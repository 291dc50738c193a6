// Pinned workload inputs: perfbench/workloads/<name>.txt names every
// scenario (file and scenario name), the load parameters and the
// reference digest, so corpus growth cannot silently change a workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "avsec/scenario/scenario.hpp"

namespace perfbench {

struct PinnedScenario {
  std::string file;  // path under scenarios/
  std::string name;  // the `scenario` header it must carry
};

/// Workers of every sweep and of the Server.
inline constexpr std::size_t kWorkers = 2;
/// Seed of the committed reference digests.
inline constexpr std::uint64_t kReferenceSeed = 1;

struct WorkloadFile {
  std::string name;
  std::string kind;  // "corpus" or "serve"
  double rate_per_s = 0.0;      // serve: fixed offered load
  std::int64_t deadline_ms = 0; // serve: per-request deadline
  std::string mix;              // serve: request mix over `scenarios`
  /// Reference digest: first `reference_units` passes (corpus) or timed
  /// requests (serve) at kReferenceSeed, from a 1-worker run.
  std::size_t reference_units = 1;
  std::string reference;
  std::vector<PinnedScenario> scenarios;
};

/// Reads and validates `<root>/perfbench/workloads/<name>.txt`.
bool read_workload(const std::string& root, const std::string& name,
                   WorkloadFile& out, std::string& error);

struct LoadedScenario {
  PinnedScenario pin;
  avsec::scenario::CompiledScenario compiled;
};

/// Reads each pinned file, parses it with parse_scenario_text and compiles
/// it (both spanned). Fails on a missing file, a parse/compile error or a
/// scenario whose name differs from the pin.
bool load_scenarios(const std::string& root, const WorkloadFile& wl,
                    std::vector<LoadedScenario>& out, std::string& error);

}  // namespace perfbench
