#include "inputs.hpp"

#include <fstream>
#include <sstream>

#include "spans.hpp"

namespace perfbench {

bool read_workload(const std::string& root, const std::string& name,
                   WorkloadFile& out, std::string& error) {
  const std::string path = root + "/perfbench/workloads/" + name + ".txt";
  std::ifstream in(path);
  if (!in) {
    error = "unknown workload '" + name + "' (no " + path + ")";
    return false;
  }
  out = WorkloadFile{};
  out.name = name;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    bool ok = true;
    if (key == "kind") {
      ok = static_cast<bool>(ls >> out.kind);
    } else if (key == "rate_per_s") {
      ok = static_cast<bool>(ls >> out.rate_per_s);
    } else if (key == "deadline_ms") {
      ok = static_cast<bool>(ls >> out.deadline_ms);
    } else if (key == "mix") {
      ok = static_cast<bool>(ls >> out.mix);
    } else if (key == "reference_units") {
      ok = static_cast<bool>(ls >> out.reference_units);
    } else if (key == "reference") {
      ok = static_cast<bool>(ls >> out.reference);
    } else if (key == "scenario") {
      PinnedScenario p;
      ok = static_cast<bool>(ls >> p.file >> p.name);
      out.scenarios.push_back(p);
    } else {
      ok = false;
    }
    if (!ok) {
      error = path + ":" + std::to_string(lineno) + ": bad line '" + line + "'";
      return false;
    }
  }
  if (out.kind != "corpus" && out.kind != "serve") {
    error = path + ": kind must be corpus or serve";
    return false;
  }
  if (out.scenarios.empty() || out.reference_units == 0) {
    error = path + ": needs scenarios and reference_units >= 1";
    return false;
  }
  if (out.kind == "serve" &&
      (out.rate_per_s <= 0.0 || out.deadline_ms <= 0 || out.mix != "uniform")) {
    error = path + ": serve needs rate_per_s, deadline_ms and mix uniform";
    return false;
  }
  return true;
}

bool load_scenarios(const std::string& root, const WorkloadFile& wl,
                    std::vector<LoadedScenario>& out, std::string& error) {
  namespace sc = avsec::scenario;
  out.clear();
  for (std::size_t i = 0; i < wl.scenarios.size(); ++i) {
    const PinnedScenario& pin = wl.scenarios[i];
    const std::string path = root + "/scenarios/" + pin.file;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      error = "pinned scenario file missing: " + path;
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();

    LoadedScenario ls;
    ls.pin = pin;
    sc::ParseResult parsed;
    {
      ScopedSpan span("parse_scenario_text", i);
      parsed = sc::parse_scenario_text(text.str(), pin.file);
    }
    if (!parsed.ok) {
      error = parsed.error.to_string();
      return false;
    }
    if (parsed.spec.name != pin.name) {
      error = path + ": pinned scenario '" + pin.name + "' is now named '" +
              parsed.spec.name + "'";
      return false;
    }
    sc::CompileResult compiled;
    {
      ScopedSpan span("compile", i);
      compiled = sc::compile(parsed.spec);
    }
    if (!compiled.ok) {
      error = compiled.error.to_string();
      return false;
    }
    ls.compiled = std::move(compiled.compiled);
    out.push_back(std::move(ls));
  }
  return true;
}

}  // namespace perfbench
