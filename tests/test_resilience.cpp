// Scenario-level fault injection: deterministic replay of faulted runs,
// inertness of the empty plan, and end-to-end failover/catch-up effects.
#include <gtest/gtest.h>

#include "digruber/experiments/scenario.hpp"

namespace digruber::experiments {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.name = "resilience-test";
  cfg.seed = 11;
  cfg.n_dps = 3;
  cfg.n_clients = 12;
  cfg.duration = sim::Duration::minutes(10);
  cfg.grid_scale = 1;
  cfg.workload.n_vos = 3;
  cfg.workload.groups_per_vo = 2;
  return cfg;
}

sim::Time at(double seconds) { return sim::Time::from_seconds(seconds); }

ScenarioConfig faulted_config() {
  ScenarioConfig cfg = small_config();
  cfg.fault_plan.add({.at = at(120), .kind = sim::FaultKind::kDpCrash, .dp = 0});
  cfg.fault_plan.add({.at = at(270), .kind = sim::FaultKind::kDpRestart, .dp = 0});
  cfg.fault_plan.add(
      {.at = at(360), .kind = sim::FaultKind::kPartition, .islands = {{0}, {1, 2}}});
  cfg.fault_plan.add({.at = at(450), .kind = sim::FaultKind::kHeal});
  return cfg;
}

TEST(Resilience, FaultedRunReplaysBitIdentically) {
  const ScenarioResult a = run_scenario(faulted_config());
  const ScenarioResult b = run_scenario(faulted_config());

  // The full query trace — every (client, dp, time, response, handled)
  // tuple — must match, not just the aggregates.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace.entries(), b.trace.entries());
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.all.response_s, b.all.response_s);
  EXPECT_DOUBLE_EQ(a.all.accuracy, b.all.accuracy);

  EXPECT_EQ(a.resilience.failovers, b.resilience.failovers);
  EXPECT_EQ(a.resilience.breaker_trips, b.resilience.breaker_trips);
  EXPECT_EQ(a.resilience.resync_records, b.resilience.resync_records);
  EXPECT_EQ(a.resilience.drops_partition, b.resilience.drops_partition);
  EXPECT_EQ(a.resilience.drops_unknown_destination,
            b.resilience.drops_unknown_destination);
}

TEST(Resilience, EmptyPlanIsInert) {
  // No faults -> the failover machinery must stay disengaged: zero
  // resilience counters and the exact event count of a plain run.
  const ScenarioResult plain = run_scenario(small_config());
  EXPECT_EQ(plain.resilience.failovers, 0u);
  EXPECT_EQ(plain.resilience.breaker_trips, 0u);
  EXPECT_EQ(plain.resilience.all_dps_down_fallbacks, 0u);
  EXPECT_EQ(plain.resilience.dp_restarts, 0u);
  EXPECT_EQ(plain.resilience.resync_records, 0u);
  EXPECT_EQ(plain.resilience.drops_partition, 0u);
  EXPECT_EQ(plain.resilience.drops_unknown_destination, 0u);

  const ScenarioResult again = run_scenario(small_config());
  EXPECT_EQ(plain.sim_events, again.sim_events);
  EXPECT_EQ(plain.trace.entries(), again.trace.entries());
}

TEST(Resilience, FaultsActuallyPerturbTheRun) {
  const ScenarioResult plain = run_scenario(small_config());
  const ScenarioResult faulted = run_scenario(faulted_config());

  EXPECT_NE(plain.sim_events, faulted.sim_events);
  EXPECT_EQ(faulted.resilience.dp_restarts, 1u);
  ASSERT_EQ(faulted.dps.size(), 3u);
  EXPECT_EQ(faulted.dps[0].restarts, 1u);
  // The restarted point re-learned state from its two mesh neighbors.
  EXPECT_GT(faulted.resilience.resync_records, 0u);
  EXPECT_GT(faulted.resilience.catchups_served, 0u);
  // The partition and the crash both dropped packets, by distinct causes.
  EXPECT_GT(faulted.resilience.drops_partition, 0u);
  EXPECT_GT(faulted.resilience.drops_unknown_destination, 0u);
  // Clients failed over instead of falling back blind: availability held.
  EXPECT_GT(faulted.resilience.failovers, 0u);
  EXPECT_GT(faulted.handled.request_share, 0.8);
}

TEST(Resilience, PlanNamingMissingDpIsRejected) {
  ScenarioConfig cfg = small_config();
  cfg.fault_plan.add(
      {.at = at(60), .kind = sim::FaultKind::kDpCrash, .dp = 7});  // only 3 dps
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(Resilience, MembershipChurnRunJoinsLeavesAndQuarantines) {
  ScenarioConfig cfg = small_config();
  cfg.membership = true;
  cfg.exchange_interval = sim::Duration::seconds(15);
  cfg.membership_options.suspect_after = 1.5;
  cfg.membership_options.dead_after = 2.0;
  cfg.membership_options.join_snapshot_timeout = sim::Duration::seconds(5);
  cfg.membership_options.join_retry_backoff = sim::Duration::seconds(5);
  cfg.fault_plan.add({.at = at(120), .kind = sim::FaultKind::kDpCrash, .dp = 0});
  cfg.fault_plan.add({.at = at(240), .kind = sim::FaultKind::kDpJoin});
  cfg.fault_plan.add({.at = at(360), .kind = sim::FaultKind::kDpLeave, .dp = 1});
  const ScenarioResult r = run_scenario(cfg);

  // The crash was detected (dp0 silent well past the 45 s budget), the
  // join completed via snapshot bootstrap, and the leave was observed.
  EXPECT_GT(r.membership.deaths_declared, 0u);
  EXPECT_EQ(r.membership.joins_started, 1u);
  EXPECT_EQ(r.membership.joins_completed, 1u);
  EXPECT_GT(r.membership.snapshots_served, 0u);
  EXPECT_GT(r.membership.leaves_observed, 0u);

  // The joiner is a fourth decision point that reached serving and took
  // real traffic; the departed one drained.
  ASSERT_EQ(r.dps.size(), 4u);
  EXPECT_GE(r.dps[3].serving_since_s, 240.0);
  EXPECT_TRUE(r.dps[3].serving);
  EXPECT_TRUE(r.dps[1].left);
  EXPECT_FALSE(r.dps[1].serving);

  // Clients re-routed off the dead/left points via membership updates.
  EXPECT_GT(r.membership.client_updates_applied, 0u);
  EXPECT_GT(r.membership.client_dps_added, 0u);
  EXPECT_GT(r.membership.client_dps_quarantined, 0u);

  // Conservation still holds under churn (the chaos soak's I1/I2).
  EXPECT_EQ(r.clients.queries, r.clients.handled + r.clients.fallbacks);
  for (const DpStats& dp : r.dps) {
    EXPECT_EQ(dp.submitted, dp.completed + dp.refused + dp.shed_deadline +
                                dp.aborted + dp.queue_residue);
  }
}

TEST(Resilience, ChurnVerbsRequireMembership) {
  ScenarioConfig cfg = small_config();
  cfg.fault_plan.add({.at = at(120), .kind = sim::FaultKind::kDpJoin});
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);

  ScenarioConfig leave_cfg = small_config();
  leave_cfg.fault_plan.add({.at = at(120), .kind = sim::FaultKind::kDpLeave, .dp = 0});
  EXPECT_THROW(run_scenario(leave_cfg), std::invalid_argument);
}

TEST(Resilience, SamplesCarryIssueTimestamps) {
  const ScenarioResult r = run_scenario(small_config());
  ASSERT_EQ(r.samples.size(), r.all.requests);
  double last = 0.0;
  bool monotone = true;
  for (const auto& sample : r.samples) {
    if (sample.issued_s < last) monotone = false;
    last = sample.issued_s;
  }
  // Samples are appended in completion order; issue times must at least
  // be within the run window.
  EXPECT_GE(r.samples.front().issued_s, 0.0);
  EXPECT_LE(last, r.config.duration.to_seconds() + 60.0);
  (void)monotone;  // completion order need not equal issue order
}

}  // namespace
}  // namespace digruber::experiments
