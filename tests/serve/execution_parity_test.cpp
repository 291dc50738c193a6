// Campaign sweeps and avsec-serve execute runs through the same
// supervised loop (fault::execute), so for one seed and one
// SupervisionConfig a campaign RunOutcome and a served SeedOutcome must
// agree on status, attempts, error and metrics.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/context.hpp"
#include "avsec/fault/resilience.hpp"
#include "avsec/serve/server.hpp"

namespace {

using namespace avsec;

// Throws on every attempt, naming the seed.
fault::Metrics crashing(fault::SimContext& /*ctx*/, std::uint64_t seed,
                        serve::Scale /*scale*/) {
  throw std::runtime_error("seed " + std::to_string(seed) + " exploded");
}

// Pumps events forever: only the event budget stops it.
fault::Metrics budget_tripping(fault::SimContext& ctx, std::uint64_t /*seed*/,
                               serve::Scale /*scale*/) {
  core::Scheduler& sim = ctx.sim();
  fault::supervise(sim);
  std::function<void()> spin = [&] {
    sim.schedule_in(core::microseconds(1), spin);
  };
  sim.schedule_at(0, spin);
  sim.run();
  return {};
}

fault::SupervisionConfig supervision(std::uint64_t max_events) {
  fault::SupervisionConfig sup;
  sup.max_events = max_events;
  sup.retry.max_retries = 2;
  sup.retry.initial_timeout = 0;  // no backoff pause in tests
  return sup;
}

// Sweeps `scenario` as a campaign, serves the same seeds one request
// each under the same supervision, and compares every seed's outcome.
// Returns the campaign report for scenario-specific checks.
fault::CampaignReport expect_engines_agree(serve::Scenario scenario,
                                           const fault::SupervisionConfig& sup) {
  fault::CampaignConfig cfg;
  cfg.runs = 4;
  cfg.base_seed = 31;
  cfg.supervision = sup;
  const fault::CampaignReport report = fault::Campaign(cfg).sweep(
      [&scenario](fault::SimContext& ctx, std::uint64_t seed) {
        return scenario.run_ctx(ctx, seed, serve::Scale::kFull);
      });

  // The server derives each run's event budget from the scenario default
  // and its wall deadline from the request (none here).
  scenario.default_max_events = sup.max_events;
  serve::ScenarioRegistry registry;
  registry.add(scenario);
  serve::ServerConfig server_cfg;
  server_cfg.supervision = sup;
  server_cfg.ladder.escalate_polls = 1'000'000;
  serve::Server server(std::move(registry), server_cfg);
  serve::ServeClient client(server);

  EXPECT_EQ(report.outcomes.size(), cfg.runs);
  for (const fault::RunOutcome& o : report.outcomes) {
    const serve::Reply r = client.call({scenario.name, {o.seed}});
    EXPECT_EQ(r.seeds.size(), 1u);
    if (r.seeds.size() != 1) continue;
    const serve::SeedOutcome& s = r.seeds[0];
    EXPECT_EQ(s.seed, o.seed);
    EXPECT_EQ(s.status, o.status) << scenario.name << " seed " << o.seed;
    EXPECT_EQ(s.attempts, o.attempts) << scenario.name << " seed " << o.seed;
    EXPECT_EQ(s.error, o.error) << scenario.name << " seed " << o.seed;
    EXPECT_EQ(s.metrics, o.metrics) << scenario.name << " seed " << o.seed;
  }
  return report;
}

TEST(ExecutionParity, CrashingScenarioQuarantinesIdentically) {
  const fault::CampaignReport report = expect_engines_agree(
      {"crashing", "throws every attempt", 0.0, 0, crashing},
      supervision(2000));
  for (const fault::RunOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, fault::RunStatus::kCrashed);
    EXPECT_EQ(o.attempts, 3u);  // first try + max_retries
    EXPECT_NE(o.error.find("exploded"), std::string::npos);
  }
}

TEST(ExecutionParity, BudgetTrippingScenarioQuarantinesIdentically) {
  const fault::CampaignReport report = expect_engines_agree(
      {"budget-tripping", "pumps events until the budget trips", 0.0, 0,
       budget_tripping},
      supervision(2000));
  for (const fault::RunOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, fault::RunStatus::kBudgetExhausted);
    EXPECT_EQ(o.attempts, 3u);
    EXPECT_NE(o.error.find("2000"), std::string::npos);
  }
}

TEST(ExecutionParity, PassingBuiltinScenarioProducesIdenticalMetrics) {
  const serve::ScenarioRegistry builtin = serve::ScenarioRegistry::builtin();
  const fault::CampaignReport report = expect_engines_agree(
      *builtin.find("heartbeat-net"), supervision(5'000'000));
  for (const fault::RunOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, fault::RunStatus::kPassed);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_FALSE(o.metrics.empty());
  }
}

}  // namespace
