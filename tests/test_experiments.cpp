#include "digruber/experiments/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "digruber/grid/topology.hpp"
#include "digruber/sim/simulation.hpp"
#include "digruber/usla/tree.hpp"

namespace digruber::experiments {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.name = "test";
  cfg.seed = 11;
  cfg.n_dps = 2;
  cfg.n_clients = 12;
  cfg.duration = sim::Duration::minutes(10);
  cfg.grid_scale = 1;
  cfg.workload.n_vos = 3;
  cfg.workload.groups_per_vo = 2;
  return cfg;
}

TEST(Scenario, RunsEndToEndWithConsistentCounts) {
  const ScenarioResult r = run_scenario(small_config());
  EXPECT_EQ(r.sites, 30u);
  EXPECT_GT(r.total_cpus, 2000);
  EXPECT_GT(r.all.requests, 100u);
  EXPECT_EQ(r.all.requests, r.handled.requests + r.not_handled.requests);
  EXPECT_EQ(r.trace.size(), r.all.requests);
  EXPECT_EQ(r.final_dps, 2);
  ASSERT_EQ(r.dps.size(), 2u);

  // Every brokered query hit some decision point.
  std::uint64_t dp_queries = 0;
  for (const auto& dp : r.dps) dp_queries += dp.queries;
  EXPECT_GE(dp_queries, r.handled.requests);

  // Jobs ran and consumed CPU.
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_GT(r.grid_cpu_seconds, 0.0);
  EXPECT_GT(r.all.utilization, 0.0);

  // Accuracy is a ratio.
  EXPECT_GE(r.handled.accuracy, 0.0);
  EXPECT_LE(r.handled.accuracy, 1.0);
}

TEST(Scenario, DeterministicForSameSeed) {
  const ScenarioResult a = run_scenario(small_config());
  const ScenarioResult b = run_scenario(small_config());
  EXPECT_EQ(a.all.requests, b.all.requests);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_DOUBLE_EQ(a.handled.response_s, b.handled.response_s);
  EXPECT_DOUBLE_EQ(a.handled.accuracy, b.handled.accuracy);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace.entries(), b.trace.entries());
}

TEST(Scenario, SeedChangesOutcome) {
  ScenarioConfig cfg = small_config();
  cfg.seed = 12;
  const ScenarioResult a = run_scenario(small_config());
  const ScenarioResult b = run_scenario(cfg);
  EXPECT_NE(a.sim_events, b.sim_events);
}

TEST(Scenario, MoreDecisionPointsMoreThroughput) {
  // Saturate a single slow decision point, then relieve it with three.
  ScenarioConfig cfg = small_config();
  cfg.n_clients = 40;
  cfg.think = sim::Duration::seconds(2);
  cfg.n_dps = 1;
  const ScenarioResult one = run_scenario(cfg);
  cfg.n_dps = 3;
  const ScenarioResult three = run_scenario(cfg);
  EXPECT_GT(three.all.requests, one.all.requests);
  EXPECT_LT(three.all.response_s, one.all.response_s);
}

TEST(Scenario, SaturatedSingleDpProducesFallbacks) {
  ScenarioConfig cfg = small_config();
  cfg.n_dps = 1;
  cfg.n_clients = 100;
  cfg.think = sim::Duration::seconds(1);
  cfg.client_timeout = sim::Duration::seconds(12);
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.not_handled.requests, 0u);
  // Fallback responses equal the timeout.
  EXPECT_NEAR(r.not_handled.response_s, 12.0, 1.0);
}

TEST(Scenario, DynamicProvisioningAddsDecisionPoints) {
  ScenarioConfig cfg = small_config();
  cfg.n_dps = 1;
  cfg.n_clients = 100;
  cfg.think = sim::Duration::seconds(1);
  cfg.duration = sim::Duration::minutes(20);
  cfg.dynamic_provisioning = true;
  cfg.max_dynamic_dps = 5;
  cfg.saturation_response_s = 8.0;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.final_dps, 1);
  EXPECT_LE(r.final_dps, 5);
  std::uint64_t signals = 0;
  for (const auto& dp : r.dps) signals += dp.saturation_signals;
  EXPECT_GT(signals, 0u);
}

TEST(Scenario, DefaultAgreementsCoverAllVosAndGroups) {
  const grid::VoCatalog catalog = grid::VoCatalog::uniform(4, 3);
  const auto agreements = default_agreements(catalog);
  ASSERT_EQ(agreements.size(), 1u);
  EXPECT_EQ(agreements[0].terms.size(), 4u + 12u);
  EXPECT_TRUE(usla::validate(agreements[0]).ok());
  const auto tree = usla::AllocationTree::build(agreements, catalog);
  ASSERT_TRUE(tree.ok()) << tree.error();
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_TRUE(tree.value().vo_share(VoId(v)).has_value());
  }
}

TEST(Scenario, CapacityModelMatchesProfiles) {
  const double gt3 = dp_capacity_qps(net::ContainerProfile::gt3(), 300,
                                     sim::Duration::millis(2.5));
  const double gt4 = dp_capacity_qps(net::ContainerProfile::gt4(), 300,
                                     sim::Duration::millis(2.5));
  EXPECT_GT(gt3, gt4);        // GT3.2 faster than the GT4 prerelease
  EXPECT_GT(gt3, 1.0);
  EXPECT_LT(gt3, 4.0);        // ~2 q/s per decision point
  EXPECT_GT(gt4, 0.5);
}

/// The oracle as a plain loop: every site's free CPUs and the VO's room
/// there, whatever the pick.
double brute_force_accuracy(const grid::Grid& grid,
                            const usla::UslaEvaluator& evaluator, VoId vo,
                            SiteId selected, std::int32_t believed_free) {
  std::int32_t best_room = 0;
  std::int32_t selected_room = 0;
  std::int32_t selected_free = 0;
  for (const auto& site : grid.sites()) {
    const std::int32_t free = site->is_down() ? 0 : site->free_cpus();
    const auto allowed = std::int32_t(evaluator.cap_fraction(vo, site->id()) *
                                      double(site->total_cpus()));
    const std::int32_t room =
        std::min(free, std::max(0, allowed - site->running_for_vo(vo)));
    best_room = std::max(best_room, room);
    if (site->id() == selected) {
      selected_room = room;
      selected_free = free;
    }
  }
  if (believed_free >= 0) {
    return believed_free == 0
               ? 1.0
               : std::min(1.0, double(selected_free) / double(believed_free));
  }
  return best_room > 0 ? double(selected_room) / double(best_room) : 1.0;
}

/// Four sites under two equal-share VOs (each capped at 75% of a site).
/// VO 0 runs 20 CPUs at site 1, VO 1 runs 10 at site 2, and site 3, the
/// largest, is down. VO 0's room: 30 at site 0, min(80, 75 - 20) = 55 at
/// site 1, min(50, 45) = 45 at site 2, none at site 3.
struct OracleGrid {
  sim::Simulation sim;
  grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 1);
  usla::AllocationTree tree =
      usla::AllocationTree::build(default_agreements(catalog), catalog).value();
  usla::UslaEvaluator evaluator{tree, catalog};
  grid::Grid grid{sim, spec()};

  OracleGrid() {
    run(SiteId(1), VoId(0), 20);
    run(SiteId(2), VoId(1), 10);
    grid.site(SiteId(3)).take_down(sim::Duration::minutes(5));
  }

  static grid::TopologySpec spec() {
    grid::TopologySpec out;
    for (const int cpus : {40, 100, 60, 200}) {
      out.sites.push_back({"s" + std::to_string(out.sites.size()), {{cpus, 1.0}}});
    }
    return out;
  }

  void run(SiteId site, VoId vo, int cpus) {
    grid::Job job;
    job.vo = vo;
    job.cpus = cpus;
    ASSERT_TRUE(grid.site(site).submit(job, [](const grid::Job&) {}));
  }

  /// The oracle's score, after checking it against the plain loop.
  double score(SiteId selected, std::int32_t believed_free) const {
    const double got =
        oracle_accuracy(grid, evaluator, VoId(0), selected, believed_free);
    EXPECT_DOUBLE_EQ(got, brute_force_accuracy(grid, evaluator, VoId(0),
                                               selected, believed_free));
    return got;
  }
};

TEST(OracleAccuracy, HandledPickScoresTheFreeCpusAgainstTheBelief) {
  const OracleGrid g;
  EXPECT_DOUBLE_EQ(g.score(SiteId(2), 100), 0.5);  // 50 free of 100 believed
  EXPECT_DOUBLE_EQ(g.score(SiteId(1), 60), 1.0);   // 80 free: clamped
  EXPECT_DOUBLE_EQ(g.score(SiteId(0), 50), 0.8);
}

TEST(OracleAccuracy, HandledPickAtADownSiteScoresZero) {
  const OracleGrid g;
  EXPECT_DOUBLE_EQ(g.score(SiteId(3), 30), 0.0);
}

TEST(OracleAccuracy, ZeroBeliefScoresOne) {
  const OracleGrid g;
  EXPECT_DOUBLE_EQ(g.score(SiteId(3), 0), 1.0);
  EXPECT_DOUBLE_EQ(g.score(SiteId(2), 0), 1.0);
}

TEST(OracleAccuracy, BlindPickRatesAgainstTheBestRoom) {
  // The best room is at site 1, where VO 0 already runs 20 CPUs; the down
  // site 3 would offer 150 if it were up.
  const OracleGrid g;
  EXPECT_DOUBLE_EQ(g.score(SiteId(1), -1), 1.0);
  EXPECT_DOUBLE_EQ(g.score(SiteId(2), -1), 45.0 / 55.0);
  EXPECT_DOUBLE_EQ(g.score(SiteId(0), -1), 30.0 / 55.0);
  EXPECT_DOUBLE_EQ(g.score(SiteId(3), -1), 0.0);
}

TEST(Scenario, RejectsInvalidConfig) {
  ScenarioConfig cfg = small_config();
  cfg.n_dps = 0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.n_clients = 0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace digruber::experiments
