// Per-layer metrics shared by the workloads of a traced run.
#include <algorithm>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = avsec::scenario;

void note(Outcome& out, std::string msg) {
  constexpr std::size_t kMaxErrors = 20;
  if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(msg));
}

double mean_span_us(const std::map<std::string, SelfTime>& times,
                    const char* name) {
  const auto it = times.find(name);
  return it == times.end() || it->second.count == 0
             ? 0.0
             : static_cast<double>(it->second.self_ns) / 1e3 /
                   static_cast<double>(it->second.count);
}

std::vector<Span> add_parse_layers(const Options& opt, const WorkloadFile& wl,
                                   Outcome& out) {
  constexpr int kReps = 10;
  spans::clear();
  spans::set_enabled(true);
  std::vector<LoadedScenario> again;
  std::string error;
  for (int rep = 0; rep < kReps; ++rep) {
    if (!load_scenarios(opt.root, wl, again, error)) {
      note(out, error);
      break;
    }
  }
  spans::set_enabled(false);
  std::vector<Span> all = spans::collect();
  spans::clear();
  const auto times = self_times(all);
  out.layers["scenario.parse_us"] = mean_span_us(times, "parse_scenario_text");
  out.layers["scenario.compile_us"] = mean_span_us(times, "compile");
  return all;
}

void add_run_layers(const RunLog& log, const std::vector<LoadedScenario>& loaded,
                    Outcome& out) {
  const std::vector<ScenarioCounts> counts = log.counts();
  ScenarioCounts total, tls, secured;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ScenarioCounts& c = counts[i];
    const sc::Protocol proto = loaded[i].compiled.spec().protocol;
    for (ScenarioCounts* t : {&total, &tls, &secured}) {
      if (t == &tls && proto != sc::Protocol::kTls) continue;
      if (t == &secured && proto == sc::Protocol::kNone) continue;
      t->runs += c.runs;
      t->events += c.events;
      t->frames += c.frames;
      t->handshakes += c.handshakes;
      t->rejected += c.rejected;
      t->host_ns += c.host_ns;
    }
  }
  auto per = [](double num, std::uint64_t den) {
    return num / static_cast<double>(den);
  };
  if (total.runs > 0 && total.events > 0) {
    out.layers["core.events_per_run"] =
        per(static_cast<double>(total.events), total.runs);
    out.layers["core.ns_per_event"] =
        per(static_cast<double>(total.host_ns), total.events);
    out.layers["netsim.frames_per_run"] =
        per(static_cast<double>(total.frames), total.runs);
  }
  if (tls.runs > 0) {
    out.layers["secproto.handshakes_per_run"] =
        per(static_cast<double>(tls.handshakes), tls.runs);
  }
  if (secured.runs > 0) {
    out.layers["secproto.rejected_per_run"] =
        per(static_cast<double>(secured.rejected), secured.runs);
  }

  // Run p50 per topology and per stack, for those this log saw.
  const std::vector<RunSample> samples = log.samples();
  auto p50_where = [&](const char* key, auto pred) {
    std::vector<double> xs;
    for (const RunSample& s : samples) {
      if (pred(loaded[s.scenario].compiled.spec())) {
        xs.push_back(static_cast<double>(s.ns) / 1e6);
      }
    }
    if (!xs.empty()) out.layers[key] = median(std::move(xs));
  };
  const std::pair<const char*, sc::Topology> topologies[] = {
      {"netsim.t1s_run_ms", sc::Topology::kT1s},
      {"netsim.can_run_ms", sc::Topology::kCan},
      {"netsim.link_run_ms", sc::Topology::kLink},
      {"health.heartbeat_run_ms", sc::Topology::kHeartbeat}};
  for (const auto& [key, topo] : topologies) {
    p50_where(key, [t = topo](const sc::ScenarioSpec& s) { return s.topology == t; });
  }
  const std::pair<const char*, sc::Protocol> stacks[] = {
      {"secproto.tls_run_ms", sc::Protocol::kTls},
      {"secproto.cansec_run_ms", sc::Protocol::kCansec},
      {"secproto.macsec_run_ms", sc::Protocol::kMacsec},
      {"secproto.secoc_run_ms", sc::Protocol::kSecOc}};
  for (const auto& [key, proto] : stacks) {
    p50_where(key, [p = proto](const sc::ScenarioSpec& s) { return s.protocol == p; });
  }
}

}  // namespace perfbench
