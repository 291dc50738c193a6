// corpus_secured / corpus_plain: repeated passes over a pinned scenario
// list, each scenario swept through fault::Campaign, timed per run by the
// benchmark's own CtxRunFn wrapper.
#include <algorithm>
#include <cstdio>

#include "runlog.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fault = avsec::fault;
namespace sc = avsec::scenario;


/// A pinned scenario with its oracles as campaign invariants, so a sweep
/// can be re-seeded per pass through the public Campaign API.
struct Prepared {
  const LoadedScenario* loaded = nullptr;
  std::vector<std::pair<std::string, fault::Campaign::Check>> invariants;
};

std::vector<Prepared> prepare(const std::vector<LoadedScenario>& loaded) {
  std::vector<Prepared> out;
  for (const LoadedScenario& ls : loaded) {
    Prepared p;
    p.loaded = &ls;
    const sc::CompiledScenario* compiled = &ls.compiled;
    for (const std::string& name : compiled->campaign().invariant_names()) {
      p.invariants.emplace_back(name, [compiled, name](const fault::Metrics& m) {
        const auto failures = compiled->oracle_failures(m);
        return std::find(failures.begin(), failures.end(), name) ==
               failures.end();
      });
    }
    out.push_back(std::move(p));
  }
  return out;
}

fault::CampaignReport sweep_once(const Prepared& p, std::uint16_t index,
                                 std::size_t workers, std::uint64_t base_seed,
                                 std::size_t runs, RunLog* log) {
  fault::CampaignConfig cfg = p.loaded->compiled.campaign_config(workers);
  cfg.base_seed = base_seed;
  if (runs > 0) cfg.runs = runs;
  fault::Campaign campaign(cfg);
  for (const auto& [name, check] : p.invariants) campaign.require(name, check);

  ScopedSpan span("Campaign::sweep", index);
  const std::uint64_t parent = span.id();
  const sc::CompiledScenario* compiled = &p.loaded->compiled;
  const fault::Campaign::CtxRunFn run =
      [compiled, index, log, parent](fault::SimContext& ctx, std::uint64_t seed) {
        ScopedSpan run_span("run_ctx", seed, parent);
        const std::uint64_t events0 = ctx.sim().dispatched();
        const std::int64_t t0 = now_ns();
        fault::Metrics m = compiled->run_ctx(ctx, seed);
        const std::int64_t dt = now_ns() - t0;
        if (log != nullptr) {
          log->add(index, seed, dt, ctx.sim().dispatched() - events0, m);
        }
        return m;
      };
  return campaign.sweep(run);
}

/// Counts a report's runs and records every failed or quarantined one.
void check_report(const Prepared& p, std::uint64_t pass,
                  const fault::CampaignReport& r, Outcome& out) {
  out.attempted += r.runs;
  for (const fault::RunOutcome& o : r.outcomes) {
    if (o.status == fault::RunStatus::kPassed) continue;
    ++out.failed;
    std::string msg = p.loaded->pin.name + " pass " + std::to_string(pass) +
                      " seed " + std::to_string(o.seed) + ": " +
                      fault::run_status_name(o.status);
    for (const std::string& v : o.violated) msg += " [" + v + "]";
    if (!o.error.empty()) msg += " " + o.error;
    note(out, msg);
  }
}

struct Window {
  std::uint64_t passes = 0;
  std::uint64_t runs = 0;
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;
  std::int64_t wall_ns = 0;
  std::vector<double> sweep_ms;
};

/// Whole passes until `seconds` of host time have elapsed (a pass is never
/// cut, so every window runs the same scenario mix).
Window run_window(const std::vector<Prepared>& prepared,
                  const WorkloadFile& wl, const Options& opt,
                  std::uint64_t& next_pass, double seconds, RunLog& log,
                  Digest& digest_all, Digest& digest_ref,
                  std::vector<fault::CampaignReport>& ref_reports,
                  Outcome& out) {
  Window w;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::uint64_t pass = next_pass++;
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      const std::int64_t t0 = now_ns();
      fault::CampaignReport r =
          sweep_once(prepared[i], static_cast<std::uint16_t>(i), kWorkers,
                     derive_seed(opt.seed, pass, i), 0, &log);
      w.sweep_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      w.runs += r.runs;
      w.retried += r.runs_retried;
      w.quarantined += r.quarantined_runs;
      check_report(prepared[i], pass, r, out);
      digest_report(digest_all, r);
      if (pass < wl.reference_units) {
        digest_report(digest_ref, r);
        ref_reports.push_back(std::move(r));
      }
    }
    ++w.passes;
  } while (now_ns() - start < budget);
  w.wall_ns = now_ns() - start;
  return w;
}

/// Re-sweeps the reference passes at one worker; each report must be
/// bit-identical to the parallel one. Returns the serial digest.
std::string serial_digest(const std::vector<Prepared>& prepared,
                          const WorkloadFile& wl, std::uint64_t seed,
                          const std::vector<fault::CampaignReport>* parallel,
                          Outcome& out) {
  Digest d;
  std::size_t k = 0;
  for (std::uint64_t pass = 0; pass < wl.reference_units; ++pass) {
    for (std::size_t i = 0; i < prepared.size(); ++i, ++k) {
      const fault::CampaignReport r =
          sweep_once(prepared[i], static_cast<std::uint16_t>(i), 1,
                     derive_seed(seed, pass, i), 0, nullptr);
      digest_report(d, r);
      if (parallel != nullptr &&
          (k >= parallel->size() || !fault::identical(r, (*parallel)[k]))) {
        ++out.failed;
        note(out, prepared[i].loaded->pin.name + " pass " +
                      std::to_string(pass) +
                      ": 1-worker report differs from the parallel sweep");
      }
    }
  }
  return d.hex();
}

double ms_of(std::uint32_t ns) { return static_cast<double>(ns) / 1e6; }

/// Passes per block of the req_* metrics: the fewest whose sweeps leave at
/// least 10 beyond p90 for a corpus list of 26 or 34 scenarios.
constexpr std::size_t kBlockPasses = 4;

/// req_p50_ms / req_p90_ms: the nearest-rank p50 / p90 sweep latency of
/// each block of kBlockPasses consecutive passes, averaged over the
/// complete blocks. Every pass sweeps each scenario once, so a percentile
/// over all sweeps of the window falls between two scenarios' sweep times
/// and jumps with the share of sweeps a slow host core ran; a block spans
/// 0.5-1.5 s, and the mean over blocks moves in proportion to that share.
bool sweep_latency(const std::vector<double>& sweep_ms, std::size_t per_pass,
                   double& p50, double& p90, std::size_t& blocks,
                   std::string& error) {
  const std::size_t block = kBlockPasses * per_pass;
  double sum50 = 0.0, sum90 = 0.0;
  blocks = 0;
  for (std::size_t at = 0; at + block <= sweep_ms.size(); at += block) {
    const std::vector<double> xs(
        sweep_ms.begin() + static_cast<std::ptrdiff_t>(at),
        sweep_ms.begin() + static_cast<std::ptrdiff_t>(at + block));
    const auto b50 = percentile(xs, 50.0, &error);
    const auto b90 = percentile(xs, 90.0, &error);
    if (!b50 || !b90) return false;
    sum50 += *b50;
    sum90 += *b90;
    ++blocks;
  }
  if (blocks == 0) {
    error = "no complete block of " + std::to_string(kBlockPasses) + " passes";
    return false;
  }
  p50 = sum50 / static_cast<double>(blocks);
  p90 = sum90 / static_cast<double>(blocks);
  return true;
}

}  // namespace

void run_corpus(const Options& opt, const WorkloadFile& wl, Outcome& out) {
  std::string error;
  std::vector<LoadedScenario> loaded;
  if (!load_scenarios(opt.root, wl, loaded, error)) {
    out.errors.push_back(error);
    return;
  }
  const std::vector<Prepared> prepared = prepare(loaded);

  if (opt.emit_reference) {
    out.reference_digest =
        serial_digest(prepared, wl, kReferenceSeed, nullptr, out);
    return;
  }

  RunLog log(prepared.size());
  // Untimed warm-up: one run per scenario through the same sweep path.
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const fault::CampaignReport r =
        sweep_once(prepared[i], static_cast<std::uint16_t>(i), kWorkers,
                   derive_seed(opt.seed, kWarmupPass, i), 1, nullptr);
    check_report(prepared[i], kWarmupPass, r, out);
  }
  out.setup_s = seconds_since(opt.main_start_ns);
  if (opt.setup_only || !out.errors.empty()) return;

  Digest digest_all, digest_ref;
  std::vector<fault::CampaignReport> ref_reports;
  std::uint64_t next_pass = 0;

  if (!opt.trace) {
    const Window w = run_window(prepared, wl, opt, next_pass, opt.seconds, log,
                                digest_all, digest_ref, ref_reports, out);
    std::vector<double> run_ms;
    for (const RunSample& s : log.samples()) run_ms.push_back(ms_of(s.ns));
    const std::size_t n_runs = run_ms.size();
    const auto p50 = percentile(run_ms, 50.0, &error);
    const auto p99 = percentile(std::move(run_ms), 99.0, &error);
    double sw50 = 0.0, sw90 = 0.0;
    std::size_t blocks = 0;
    if (!p50 || !p99 ||
        !sweep_latency(w.sweep_ms, prepared.size(), sw50, sw90, blocks,
                       error)) {
      note(out, "too few samples: " + error);
    } else {
      out.end_to_end["runs_per_s"] =
          static_cast<double>(w.runs) / (static_cast<double>(w.wall_ns) / 1e9);
      out.end_to_end["run_p50_ms"] = *p50;
      out.end_to_end["run_p99_ms"] = *p99;
      out.end_to_end["req_p50_ms"] = sw50;
      out.end_to_end["req_p90_ms"] = sw90;
    }
    const std::size_t block = kBlockPasses * prepared.size();
    std::printf("# %s: %llu passes, %zu runs timed (%zu beyond p99), %zu sweeps"
                " timed in %zu blocks of %zu (%zu beyond p90 in each),"
                " window %.3f s host\n",
                wl.name.c_str(), static_cast<unsigned long long>(w.passes),
                n_runs, n_runs - (n_runs * 99 + 99) / 100, w.sweep_ms.size(),
                blocks, block, block - (block * 9 + 9) / 10,
                static_cast<double>(w.wall_ns) / 1e9);
  } else {
    std::vector<Span> all;
    if (!opt.complement) {
      all = add_parse_layers(opt, wl, out);
      run_probes(out);
    }
    spans::clear();
    const double half = opt.seconds / 2.0;
    const Window plain = run_window(prepared, wl, opt, next_pass, half, log,
                                    digest_all, digest_ref, ref_reports, out);
    log.clear();
    spans::set_enabled(true);
    const Window traced = run_window(prepared, wl, opt, next_pass, half, log,
                                     digest_all, digest_ref, ref_reports, out);
    spans::set_enabled(false);
    const std::vector<Span> window_spans = spans::collect();
    spans::clear();
    all.insert(all.end(), window_spans.begin(), window_spans.end());

    std::vector<double> sweep_ms;
    std::int64_t sweep_ns = 0, run_ns = 0;
    for (const Span& s : window_spans) {
      if (std::string_view(s.name) == "Campaign::sweep") {
        sweep_ms.push_back(static_cast<double>(s.duration_ns()) / 1e6);
        sweep_ns += s.duration_ns();
      } else if (std::string_view(s.name) == "run_ctx") {
        run_ns += s.duration_ns();
      }
    }
    out.layers["fault.sweep_ms_p50"] = median(sweep_ms);
    out.layers["fault.busy_share"] =
        static_cast<double>(run_ns) /
        (static_cast<double>(kWorkers) * static_cast<double>(sweep_ns));
    out.layers["fault.runs_retried"] = static_cast<double>(traced.retried);
    out.layers["fault.runs_quarantined"] =
        static_cast<double>(traced.quarantined);
    add_run_layers(log, loaded, out);
    const double rps_plain = static_cast<double>(plain.runs) /
                             static_cast<double>(plain.wall_ns);
    const double rps_traced = static_cast<double>(traced.runs) /
                              static_cast<double>(traced.wall_ns);
    out.layers["obs.trace_overhead_pct"] = (rps_plain / rps_traced - 1.0) * 100.0;

    if (!opt.spans_out.empty() && !spans::write_jsonl(opt.spans_out, all)) {
      note(out, "cannot write spans to " + opt.spans_out);
    }
    std::printf("# %s traced%s: %llu runs untraced, %llu runs traced, %zu spans"
                " -> %s\n",
                wl.name.c_str(), opt.complement ? " (complement)" : "",
                static_cast<unsigned long long>(plain.runs),
                static_cast<unsigned long long>(traced.runs), all.size(),
                opt.spans_out.empty() ? "(not written)" : opt.spans_out.c_str());
  }

  // Output gate: the reference passes re-run serially must match the
  // parallel reports bit for bit, and the serial reference passes at
  // kReferenceSeed, whatever --seed is, must give the committed digest.
  const std::string serial =
      serial_digest(prepared, wl, opt.seed, &ref_reports, out);
  const std::string reference =
      opt.seed == kReferenceSeed
          ? serial
          : serial_digest(prepared, wl, kReferenceSeed, nullptr, out);
  if (!digest_matches(wl.reference, reference, &error)) {
    ++out.failed;
    note(out, error);
  }
  std::printf("# %s digest: reference passes %s, all passes %s; seed %llu"
              " reference passes %s (committed %s)\n",
              wl.name.c_str(), digest_ref.hex().c_str(),
              digest_all.hex().c_str(),
              static_cast<unsigned long long>(kReferenceSeed),
              reference.c_str(), wl.reference.c_str());
}

}  // namespace perfbench
