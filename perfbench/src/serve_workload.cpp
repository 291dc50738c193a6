// serve_open_loop: one generator thread offers single-seed requests to an
// in-process serve::Server at a fixed Poisson rate. Each request goes
// through parse_request -> submit, each reply through render_reply; the
// scenario runs are timed by wrapped serve_entry() functions registered
// into the benchmark's own ScenarioRegistry.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "avsec/serve/server.hpp"
#include "runlog.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fault = avsec::fault;
namespace sc = avsec::scenario;
namespace serve = avsec::serve;

constexpr std::size_t kDirectCheck = 200;    // requests re-run directly
constexpr std::int64_t kRedeemSlackNs = 150'000;
constexpr std::int64_t kGatePollNs = 20'000;

serve::ScenarioRegistry make_registry(const std::vector<LoadedScenario>& loaded,
                                      RunLog* log) {
  serve::ScenarioRegistry reg;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    serve::Scenario entry = loaded[i].compiled.serve_entry();
    if (log != nullptr) {
      const auto inner = entry.run_ctx;
      const auto index = static_cast<std::uint16_t>(i);
      entry.run_ctx = [inner, index, log](fault::SimContext& ctx,
                                          std::uint64_t seed,
                                          serve::Scale scale) {
        ScopedSpan span("run_ctx", seed, 0);
        const std::uint64_t events0 = ctx.sim().dispatched();
        const std::int64_t t0 = now_ns();
        fault::Metrics m = inner(ctx, seed, scale);
        log->add(index, seed, now_ns() - t0, ctx.sim().dispatched() - events0,
                 m);
        return m;
      };
    }
    reg.add(std::move(entry));
  }
  return reg;
}

bool same_bits(const fault::Metrics& a, const fault::Metrics& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first ||
        std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Checks one reply: kOk, one passed seed, every oracle of its scenario
/// holds. Returns false (and notes why) otherwise.
bool reply_ok(const serve::Reply& r, const LoadedScenario& s,
              std::uint64_t index, Outcome& out) {
  std::string why;
  if (r.status != serve::ReplyStatus::kOk) {
    why = serve::reply_status_name(r.status) + std::string(" ") + r.detail;
  } else if (r.seeds.size() != 1 ||
             r.seeds[0].status != fault::RunStatus::kPassed) {
    why = "seed did not pass";
  } else {
    for (const std::string& o : s.compiled.oracle_failures(r.seeds[0].metrics)) {
      why += " [" + o + "]";
    }
  }
  if (why.empty()) return true;
  note(out, "request " + std::to_string(index) + " (" + s.pin.name +
                "): " + why);
  return false;
}

/// One request as the generator saw it.
struct Sent {
  std::int64_t late_ns = 0;  // submit call start - due
  std::uint64_t ticket = 0;
};

/// Digest of the first `reference_units` rendered replies at
/// kReferenceSeed, from a 1-worker server answering one request at a time.
std::string reference_digest(const WorkloadFile& wl,
                             const std::vector<LoadedScenario>& loaded,
                             Outcome& out) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::Server server(make_registry(loaded, nullptr), cfg);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    serve::Request req;
    std::string err;
    parse_request(request_line(loaded[i].pin.name,
                               derive_seed(kReferenceSeed, kWarmupPass, i),
                               wl.deadline_ms),
                  req, err);
    reply_ok(server.wait(server.submit(std::move(req))), loaded[i], i, out);
  }
  // A schedule's prefix does not depend on its length; twice the expected
  // duration holds reference_units arrivals.
  const double seconds =
      2.0 * static_cast<double>(wl.reference_units) / wl.rate_per_s + 1.0;
  const std::vector<Arrival> sched =
      make_schedule(kReferenceSeed, wl.rate_per_s, seconds,
                    static_cast<std::uint32_t>(loaded.size()));
  if (sched.size() < wl.reference_units) {
    note(out, "reference schedule too short");
    return {};
  }
  Digest d;
  for (std::size_t i = 0; i < wl.reference_units; ++i) {
    serve::Request req;
    std::string err;
    parse_request(request_line(loaded[sched[i].scenario].pin.name,
                               sched[i].seed, wl.deadline_ms),
                  req, err);
    const serve::Reply r = server.wait(server.submit(std::move(req)));
    reply_ok(r, loaded[sched[i].scenario], i, out);
    d.str(serve::render_reply(r));
  }
  return d.hex();
}

}  // namespace

void run_serve(const Options& opt, const WorkloadFile& wl, Outcome& out) {
  std::string error;
  std::vector<LoadedScenario> loaded;
  if (!load_scenarios(opt.root, wl, loaded, error)) {
    out.errors.push_back(error);
    return;
  }
  if (opt.emit_reference) {
    out.reference_digest = reference_digest(wl, loaded, out);
    return;
  }

  RunLog log(loaded.size());
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  serve::Server server(make_registry(loaded, &log), cfg);

  // Untimed warm-up: one request per scenario, answered before the next.
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    serve::Request req;
    if (!parse_request(request_line(loaded[i].pin.name,
                                    derive_seed(opt.seed, kWarmupPass, i),
                                    wl.deadline_ms),
                       req, error)) {
      note(out, "warm-up request: " + error);
      continue;
    }
    ++out.attempted;
    if (!reply_ok(server.wait(server.submit(std::move(req))), loaded[i], i,
                  out)) {
      ++out.failed;
    }
  }

  const std::vector<Arrival> sched =
      make_schedule(opt.seed, wl.rate_per_s, opt.seconds,
                    static_cast<std::uint32_t>(loaded.size()));
  std::vector<std::string> lines;
  lines.reserve(sched.size());
  for (const Arrival& a : sched) {
    lines.push_back(request_line(loaded[a.scenario].pin.name, a.seed,
                                 wl.deadline_ms));
  }
  std::vector<Sent> sent(sched.size());
  std::vector<double> latency_ms(sched.size(), 0.0);
  std::vector<double> reply_latency_ms(sched.size(), 0.0);
  std::vector<fault::Metrics> direct_check;
  out.setup_s = seconds_since(opt.main_start_ns);
  if (opt.setup_only || !out.errors.empty()) return;
  log.clear();
  spans::clear();

  // Traced runs time the first half untraced and the second half traced.
  const std::size_t traced_from = opt.trace ? sched.size() / 2 : sched.size();
  Digest digest_all, digest_ref;
  std::size_t depth_max = 0;
  std::uint64_t gate_waits = 0;
  const auto gate_depth = static_cast<std::size_t>(
      cfg.ladder.degrade_ratio * static_cast<double>(cfg.queue_capacity)) - 1;
  std::size_t redeemed = 0;
  std::uint64_t ok_replies = 0;

  auto consume = [&](std::size_t i, const serve::Reply& r) {
    std::string line;
    {
      ScopedSpan span("render_reply", r.ticket);
      line = serve::render_reply(r);
    }
    digest_all.str(line);
    if (i < wl.reference_units) digest_ref.str(line);
    ++out.attempted;
    if (reply_ok(r, loaded[sched[i].scenario], i, out)) {
      ++ok_replies;
    } else {
      ++out.failed;
    }
    latency_ms[i] =
        request_latency_ms(r, static_cast<double>(sent[i].late_ns) / 1e6);
    reply_latency_ms[i] = r.latency_ms;
    if (i < kDirectCheck && !r.seeds.empty()) {
      direct_check.push_back(r.seeds[0].metrics);
    }
  };

  // The generator sleeps to each due time rather than spinning, so it does
  // not take a CPU from the workers; a 1 ns timer slack keeps the wake-up
  // close to the due time (the default 50 us slack would add to lateness).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const std::int64_t due = start + sched[i].due_ns;
    serve::Reply r;
    while (redeemed < i && now_ns() < due - kRedeemSlackNs &&
           server.try_wait(sent[redeemed].ticket, r)) {
      consume(redeemed++, r);
    }
    const std::int64_t wait_ns = due - now_ns();
    if (wait_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
    }
    // Queue gate: when a host stall has piled requests up, hold the next
    // one until the queue is below the ladder's degrade threshold, so a
    // stall of the host shows as lateness instead of refused or degraded
    // replies. At the pinned rate the gate is idle otherwise.
    if (server.queue_depth() >= gate_depth) {
      ++gate_waits;
      while (server.queue_depth() >= gate_depth) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kGatePollNs));
      }
    }
    if (i == traced_from) spans::set_enabled(true);

    serve::Request req;
    bool parsed = false;
    {
      ScopedSpan span("parse_request", i);
      parsed = serve::parse_request(lines[i], req, error);
    }
    if (!parsed) {
      note(out, "request " + std::to_string(i) + ": " + error);
      return;
    }
    sent[i].late_ns = now_ns() - due;
    {
      ScopedSpan span("submit", i);
      sent[i].ticket = server.submit(std::move(req));
    }
    depth_max = std::max(depth_max, server.queue_depth());
  }
  for (; redeemed < sched.size(); ++redeemed) {
    consume(redeemed, server.wait(sent[redeemed].ticket));
  }
  const std::int64_t window_ns = now_ns() - start;
  spans::set_enabled(false);

  // The first requests re-run directly through run_ctx on a fresh
  // context: serve's admission -> channel -> run_seed path must return the
  // same metric bits as calling the scenario function.
  {
    fault::SimContext ctx;
    for (std::size_t i = 0; i < direct_check.size(); ++i) {
      ctx.reset();
      const fault::Metrics m =
          loaded[sched[i].scenario].compiled.run_ctx(ctx, sched[i].seed);
      if (!same_bits(m, direct_check[i])) {
        ++out.failed;
        note(out, "request " + std::to_string(i) +
                      ": served metrics differ from a direct run");
      }
    }
  }

  const std::vector<RunSample> samples = log.samples();
  const serve::ServerStats stats = server.stats();
  server.shutdown();

  // Output gate: the serial reference at kReferenceSeed, whatever --seed
  // is, must give the committed digest; at that seed so must this run.
  const std::string reference = reference_digest(wl, loaded, out);
  if (!digest_matches(wl.reference, reference, &error)) {
    ++out.failed;
    note(out, error);
  }
  if (opt.seed == kReferenceSeed && sched.size() >= wl.reference_units &&
      !digest_matches(wl.reference, digest_ref.hex(), &error)) {
    ++out.failed;
    note(out, error);
  }

  auto slice = [&](std::size_t from, std::size_t to) {
    return std::vector<double>(latency_ms.begin() + static_cast<std::ptrdiff_t>(from),
                               latency_ms.begin() + static_cast<std::ptrdiff_t>(to));
  };

  if (!opt.trace) {
    std::vector<double> run_ms;
    for (const RunSample& s : samples) {
      run_ms.push_back(static_cast<double>(s.ns) / 1e6);
    }
    const auto p50 = percentile(latency_ms, 50.0, &error);
    const auto p90 = percentile(latency_ms, 90.0, &error);
    const auto r50 = percentile(run_ms, 50.0, &error);
    const auto r99 = percentile(run_ms, 99.0, &error);
    if (!p50 || !p90 || !r50 || !r99) {
      note(out, "too few samples: " + error);
    } else {
      out.end_to_end["req_p50_ms"] = *p50;
      out.end_to_end["req_p90_ms"] = *p90;
      out.end_to_end["run_p50_ms"] = *r50;
      out.end_to_end["run_p99_ms"] = *r99;
      out.end_to_end["runs_per_s"] =
          static_cast<double>(ok_replies) /
          (static_cast<double>(window_ns) / 1e9);
    }
    std::printf("# %s: %zu requests at %.0f/s (%zu beyond p90, %llu gated),"
                " %zu runs timed (%zu beyond p99), window %.3f s host\n",
                wl.name.c_str(), sched.size(), wl.rate_per_s,
                sched.size() - (sched.size() * 9 + 9) / 10,
                static_cast<unsigned long long>(gate_waits), run_ms.size(),
                run_ms.size() - (run_ms.size() * 99 + 99) / 100,
                static_cast<double>(window_ns) / 1e9);
    std::printf("# %s digest: reference requests %s, all requests %s; seed"
                " %llu reference requests %s (committed %s)\n",
                wl.name.c_str(), digest_ref.hex().c_str(),
                digest_all.hex().c_str(),
                static_cast<unsigned long long>(kReferenceSeed),
                reference.c_str(), wl.reference.c_str());
    return;
  }

  // --- traced run: per-layer attribution -------------------------------
  std::vector<Span> all = spans::collect();
  spans::clear();
  const auto times = self_times(all);
  out.layers["serve.parse_us"] = mean_span_us(times, "parse_request");
  out.layers["serve.admit_us"] = mean_span_us(times, "submit");
  out.layers["serve.render_us"] = mean_span_us(times, "render_reply");

  std::unordered_map<std::uint64_t, std::int64_t> run_ns_by_seed;
  for (const RunSample& s : samples) run_ns_by_seed[s.seed] += s.ns;
  std::vector<double> queue_wait, run_ms, late;
  for (std::size_t i = traced_from; i < sched.size(); ++i) {
    const auto it = run_ns_by_seed.find(sched[i].seed);
    const double run = it == run_ns_by_seed.end()
                           ? 0.0
                           : static_cast<double>(it->second) / 1e6;
    run_ms.push_back(run);
    queue_wait.push_back(reply_latency_ms[i] - run);
    late.push_back(static_cast<double>(sent[i].late_ns) / 1e6);
  }
  out.layers["serve.queue_wait_ms_p50"] = percentile(queue_wait, 50.0).value_or(0.0);
  out.layers["serve.queue_wait_ms_p90"] = percentile(queue_wait, 90.0).value_or(0.0);
  out.layers["serve.run_ms_p50"] = median(run_ms);
  out.layers["serve.gen_late_ms_p50"] = percentile(late, 50.0).value_or(0.0);
  out.layers["serve.gen_late_ms_p90"] = percentile(late, 90.0).value_or(0.0);
  out.layers["serve.req_p99_ms"] =
      percentile(slice(traced_from, sched.size()), 99.0).value_or(0.0);
  out.layers["serve.queue_depth_max"] = static_cast<double>(depth_max);
  out.layers["serve.gate_waits"] = static_cast<double>(gate_waits);
  out.layers["serve.refused"] = static_cast<double>(
      stats.rejected_unknown + stats.rejected_infeasible +
      stats.rejected_overloaded + stats.shed);
  out.layers["serve.expired"] = static_cast<double>(stats.expired);
  out.layers["serve.retried"] = static_cast<double>(stats.runs_retried);
  out.layers["serve.ladder_escalations"] =
      static_cast<double>(stats.ladder_escalations);

  const double p50_plain = median(slice(0, traced_from));
  const double p50_traced = median(slice(traced_from, sched.size()));
  out.layers["obs.trace_overhead_pct"] = (p50_traced / p50_plain - 1.0) * 100.0;

  add_run_layers(log, loaded, out);
  if (!opt.complement) {
    const std::vector<Span> parse_spans = add_parse_layers(opt, wl, out);
    all.insert(all.end(), parse_spans.begin(), parse_spans.end());
    run_probes(out);
  }

  if (!opt.spans_out.empty() && !spans::write_jsonl(opt.spans_out, all)) {
    note(out, "cannot write spans to " + opt.spans_out);
  }
  std::printf("# %s traced%s: %zu requests (%zu traced), %zu spans -> %s\n",
              wl.name.c_str(), opt.complement ? " (complement)" : "",
              sched.size(), sched.size() - traced_from,
              all.size(),
              opt.spans_out.empty() ? "(not written)" : opt.spans_out.c_str());
}

}  // namespace perfbench
