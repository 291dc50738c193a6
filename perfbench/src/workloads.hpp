// The three workloads and the layer probes, plus the metric catalogue the
// result line is printed from.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "runlog.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string root = ".";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;      // stop after set-up, report setup_s only
  bool emit_reference = false;  // print the 1-worker reference digest
  /// Traced complement run: only fills layers the main workload did not
  /// exercise (no probes, no parse repeats, no span file).
  bool complement = false;
  std::string spans_out;        // traced run: where to write the spans
  std::int64_t main_start_ns = 0;
};

/// What one workload run produced. Untraced runs fill `end_to_end`;
/// traced runs fill `layers` (names from kLayerMetrics).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // any entry makes the run incorrect
  double setup_s = 0.0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  std::string reference_digest;  // emit_reference mode
};

/// Pass index whose derived seeds feed the untimed warm-up.
inline constexpr std::uint64_t kWarmupPass = ~0ull;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of an untraced run, in print order.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics of a traced run, in print order. A metric a workload
/// does not exercise is reported as 0.
extern const std::vector<MetricDef> kLayerMetrics;

void run_corpus(const Options& opt, const WorkloadFile& wl, Outcome& out);
void run_serve(const Options& opt, const WorkloadFile& wl, Outcome& out);

/// Single-thread probes of the crypto primitives and the secproto framers
/// at the corpus payload sizes, each checked against a known vector or a
/// round trip. Adds to `out.layers`; failures go to `out.errors`.
void run_probes(Outcome& out);

/// Seconds since main() started.
double seconds_since(std::int64_t start_ns);

/// Records an error (the first 20 are kept).
void note(Outcome& out, std::string msg);

/// Mean self time of the spans named `name`, microseconds; 0 if none.
double mean_span_us(const std::map<std::string, SelfTime>& times,
                    const char* name);

/// scenario.parse_us / compile_us: the pinned files re-loaded 10 times
/// under spans. Returns those spans.
std::vector<Span> add_parse_layers(const Options& opt, const WorkloadFile& wl,
                                   Outcome& out);

/// core / netsim / health / secproto metrics of the runs in `log`: exact
/// counts per run, host time per event, and run p50 per topology and per
/// stack — set only for the topologies and stacks the log saw.
void add_run_layers(const RunLog& log,
                    const std::vector<LoadedScenario>& loaded, Outcome& out);

}  // namespace perfbench
