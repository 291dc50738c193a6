// perfbench: the repo benchmark's program (see ../README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--setup-only] [--emit-reference] [--root DIR]
//             [--spans-out PATH]
//
// Prints '#' comment lines, then one JSON result line. Exits 0 when the run
// completed (the JSON says whether its outputs were correct), 2 on a usage
// or input error, 1 when the run could not produce its metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},        {"runs_per_s", "1/s"},  {"run_p50_ms", "ms"},
    {"run_p99_ms", "ms"},    {"req_p50_ms", "ms"},   {"req_p90_ms", "ms"},
    {"rss_peak_mb", "MB"},
};

const std::vector<MetricDef> kLayerMetrics = {
    {"scenario.parse_us", "us"},
    {"scenario.compile_us", "us"},
    {"fault.sweep_ms_p50", "ms"},
    {"fault.busy_share", "ratio"},
    {"fault.runs_retried", "count"},
    {"fault.runs_quarantined", "count"},
    {"core.events_per_run", "count"},
    {"core.ns_per_event", "ns"},
    {"netsim.frames_per_run", "count"},
    {"netsim.t1s_run_ms", "ms"},
    {"netsim.can_run_ms", "ms"},
    {"netsim.link_run_ms", "ms"},
    {"health.heartbeat_run_ms", "ms"},
    {"secproto.tls_run_ms", "ms"},
    {"secproto.cansec_run_ms", "ms"},
    {"secproto.macsec_run_ms", "ms"},
    {"secproto.secoc_run_ms", "ms"},
    {"secproto.handshakes_per_run", "count"},
    {"secproto.rejected_per_run", "count"},
    {"secproto.cansec_protect_ns", "ns"},
    {"secproto.cansec_verify_ns", "ns"},
    {"secproto.macsec_protect_ns", "ns"},
    {"secproto.macsec_verify_ns", "ns"},
    {"secproto.secoc_protect_ns", "ns"},
    {"secproto.secoc_verify_ns", "ns"},
    {"secproto.tls_handshake_us", "us"},
    {"crypto.aes_block_ns", "ns"},
    {"crypto.gcm_seal_ns_8B", "ns"},
    {"crypto.gcm_seal_ns_32B", "ns"},
    {"crypto.gcm_seal_ns_64B", "ns"},
    {"crypto.gcm_open_ns_64B", "ns"},
    {"crypto.gcm_mbps_1500B", "MB/s"},
    {"crypto.cmac_ns_8B", "ns"},
    {"crypto.x25519_us", "us"},
    {"crypto.ed25519_sign_us", "us"},
    {"crypto.ed25519_verify_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.admit_us", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p90", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.render_us", "us"},
    {"serve.gen_late_ms_p50", "ms"},
    {"serve.gen_late_ms_p90", "ms"},
    {"serve.req_p99_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.gate_waits", "count"},
    {"serve.refused", "count"},
    {"serve.expired", "count"},
    {"serve.retried", "count"},
    {"serve.ladder_escalations", "count"},
    {"obs.trace_overhead_pct", "%"},
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Every traced run reports every layer: a layer the workload does not
/// exercise (serve on the corpus workloads, campaign sweeps on serve, a
/// stack a corpus list lacks) is measured by a short traced complement
/// run of the workloads that do.
void fill_missing_layers(const Options& opt, const WorkloadFile& wl,
                         Outcome& out) {
  constexpr double kComplementSeconds = 2.0;
  for (const char* other : {"corpus_plain", "corpus_secured", "serve_open_loop"}) {
    bool missing = false;
    for (const MetricDef& d : kLayerMetrics) missing |= !out.layers.count(d.name);
    if (!missing) return;
    if (wl.name == other) continue;
    WorkloadFile owl;
    std::string error;
    if (!read_workload(opt.root, other, owl, error)) {
      note(out, error);
      return;
    }
    Options o = opt;
    o.workload = other;
    o.seconds = kComplementSeconds;
    o.complement = true;
    o.spans_out.clear();
    Outcome part;
    (owl.kind == "corpus" ? run_corpus : run_serve)(o, owl, part);
    out.attempted += part.attempted;
    out.failed += part.failed;
    for (const std::string& e : part.errors) note(out, std::string(other) + ": " + e);
    for (const auto& [name, value] : part.layers) out.layers.emplace(name, value);
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-only] [--emit-reference] "
               "[--root DIR] [--spans-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.main_start_ns = now_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--emit-reference") {
      opt.emit_reference = true;
    } else if (v == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = v, ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr), ++i;
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0, ++i;
    } else if (a == "--root") {
      opt.root = v, ++i;
    } else if (a == "--spans-out") {
      opt.spans_out = v, ++i;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  WorkloadFile wl;
  std::string error;
  if (!read_workload(opt.root, opt.workload, wl, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  Outcome out;
  if (wl.kind == "corpus") {
    run_corpus(opt, wl, out);
  } else {
    run_serve(opt, wl, out);
  }
  if (opt.trace && !opt.setup_only && !opt.emit_reference) {
    fill_missing_layers(opt, wl, out);
  }
  for (const std::string& e : out.errors) {
    std::printf("# ERROR %s\n", e.c_str());
  }
  const bool correct = out.errors.empty() && out.failed == 0;

  if (opt.emit_reference) {
    if (!correct) return 1;
    std::printf("reference %s\n", out.reference_digest.c_str());
    return 0;
  }
  if (opt.setup_only) {
    if (!correct) return 1;
    std::printf("{\"setup_s\": %.17g}\n", out.setup_s);
    return 0;
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    out.end_to_end["setup_s"] = out.setup_s;
    out.end_to_end["rss_peak_mb"] = rss_peak_mb();
    for (const MetricDef& d : kEndToEnd) {
      const auto it = out.end_to_end.find(d.name);
      if (it == out.end_to_end.end()) {
        std::fprintf(stderr, "perfbench: %s produced no %s\n",
                     wl.name.c_str(), d.name);
        return 1;
      }
      metrics.push_back({d.name, d.unit, it->second});
    }
  } else {
    for (const auto& [name, value] : out.layers) {
      bool known = false;
      for (const MetricDef& d : kLayerMetrics) known |= name == d.name;
      if (!known) {
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
    for (const MetricDef& d : kLayerMetrics) {
      const auto it = out.layers.find(d.name);
      if (it == out.layers.end()) {
        std::fprintf(stderr, "perfbench: %s produced no %s\n",
                     wl.name.c_str(), d.name);
        return 1;
      }
      metrics.push_back({d.name, d.unit, it->second});
    }
  }
  for (const Metric& m : metrics) {
    // Counts and memory are exact; everything else derives from host
    // wall-clock time.
    const bool timed = m.unit != "count" && m.unit != "MB";
    std::printf("# %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), timed ? "(host time)" : "");
  }
  std::printf("%s\n", result_json(correct, out.attempted, out.failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
