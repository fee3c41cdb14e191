#include "digruber/experiments/config.hpp"

#include <gtest/gtest.h>

namespace digruber::experiments {
namespace {

TEST(ScenarioFromConfig, DefaultsWhenEmpty) {
  const auto result = scenario_from_config(Config::parse(""));
  ASSERT_TRUE(result.ok()) << result.error();
  const ScenarioConfig& cfg = result.value();
  EXPECT_EQ(cfg.n_dps, 3);
  EXPECT_EQ(cfg.n_clients, 120);
  EXPECT_EQ(cfg.profile.name, "GT3.2");
  EXPECT_DOUBLE_EQ(cfg.duration.to_minutes(), 60.0);
  EXPECT_DOUBLE_EQ(cfg.exchange_interval.to_minutes(), 3.0);
  EXPECT_EQ(cfg.selector, "top-k");
}

TEST(ScenarioFromConfig, ParsesAllSections) {
  const auto result = scenario_from_config(Config::parse(R"(
name = my-run
seed = 99
dps = 5
profile = gt4-c
exchange_minutes = 10
dissemination = usla
overlay = superpeer
grid_scale = 2
background_util = 0.2
clients = 30
timeout_s = 45
think_s = 4
selector = least-used
duration_minutes = 15
vos = 4
groups_per_vo = 2
runtime_mean_s = 120
cpus_max = 3
input_mb = 50
wan_min_ms = 1
wan_max_ms = 20
wan_bandwidth_mbps = 100
uslas = false
dynamic_provisioning = true
saturation_response_s = 12
)"));
  ASSERT_TRUE(result.ok()) << result.error();
  const ScenarioConfig& cfg = result.value();
  EXPECT_EQ(cfg.name, "my-run");
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.n_dps, 5);
  EXPECT_EQ(cfg.profile.name, "GT4-C");
  EXPECT_DOUBLE_EQ(cfg.exchange_interval.to_minutes(), 10.0);
  EXPECT_EQ(cfg.dissemination, digruber::Dissemination::kUslaAndUsage);
  EXPECT_EQ(cfg.overlay_options.kind, overlay::Kind::kSuperPeer);
  EXPECT_EQ(cfg.grid_scale, 2);
  EXPECT_DOUBLE_EQ(cfg.background_util, 0.2);
  EXPECT_EQ(cfg.n_clients, 30);
  EXPECT_DOUBLE_EQ(cfg.client_timeout.to_seconds(), 45.0);
  EXPECT_DOUBLE_EQ(cfg.think.to_seconds(), 4.0);
  EXPECT_EQ(cfg.selector, "least-used");
  EXPECT_EQ(cfg.workload.n_vos, 4);
  EXPECT_EQ(cfg.workload.cpus_max, 3);
  EXPECT_EQ(cfg.workload.input_bytes_mean, 50'000'000u);
  EXPECT_DOUBLE_EQ(cfg.wan.bandwidth_bps, 100e6);
  EXPECT_FALSE(cfg.install_uslas);
  EXPECT_TRUE(cfg.dynamic_provisioning);
  EXPECT_DOUBLE_EQ(cfg.saturation_response_s, 12.0);
}

TEST(ScenarioFromConfig, ParsesMembershipSection) {
  const auto result = scenario_from_config(Config::parse(R"(
membership = true
suspect_after = 1.5
dead_after = 2.0
join_timeout_s = 5
join_backoff_s = 4
fault_plan = at=120 crash dp=0; at=240 join; at=420 leave dp=1
)"));
  ASSERT_TRUE(result.ok()) << result.error();
  const ScenarioConfig& cfg = result.value();
  EXPECT_TRUE(cfg.membership);
  EXPECT_DOUBLE_EQ(cfg.membership_options.suspect_after, 1.5);
  EXPECT_DOUBLE_EQ(cfg.membership_options.dead_after, 2.0);
  EXPECT_DOUBLE_EQ(cfg.membership_options.join_snapshot_timeout.to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(cfg.membership_options.join_retry_backoff.to_seconds(), 4.0);
  EXPECT_EQ(cfg.fault_plan.join_count(), 1u);
}

TEST(ScenarioFromConfig, ParsesPartitionToleranceSection) {
  const auto result = scenario_from_config(Config::parse(R"(
partition_tolerance = true
checksums = true
staleness_s = 90
delta_pull_gap_s = 15
fault_plan = at=120 partition islands=0|1,2 clients=split; at=300 oneway from=1 to=2; at=360 healoneway from=1 to=2; at=420 heal; at=500 corrupt rate=0.02; at=560 corrupt rate=0
)"));
  ASSERT_TRUE(result.ok()) << result.error();
  const ScenarioConfig& cfg = result.value();
  EXPECT_TRUE(cfg.partition_tolerance);
  EXPECT_TRUE(cfg.frame_checksums);
  EXPECT_DOUBLE_EQ(cfg.partition_options.staleness_threshold.to_seconds(), 90.0);
  EXPECT_DOUBLE_EQ(cfg.partition_options.delta_pull_min_gap.to_seconds(), 15.0);
  EXPECT_EQ(cfg.fault_plan.events().size(), 6u);
}

TEST(ScenarioFromConfig, RejectsChurnVerbsWithMembershipOff) {
  const auto join_only =
      scenario_from_config(Config::parse("fault_plan = at=120 join\n"));
  ASSERT_FALSE(join_only.ok());
  EXPECT_NE(join_only.error().find("membership is off"), std::string::npos);
  EXPECT_FALSE(
      scenario_from_config(Config::parse("fault_plan = at=120 leave dp=0\n")).ok());
}

TEST(ScenarioFromConfig, FaultPlanMayNameAJoinersIndex) {
  // dp=3 is the point the join adds to a 3-point deployment.
  const auto cfg = scenario_from_config(Config::parse(
      "dps = 3\nclients = 6\ngrid_scale = 1\nduration_minutes = 10\n"
      "membership = true\nfault_plan = at=60 join; at=300 leave dp=3\n"));
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  const ScenarioResult r = run_scenario(cfg.value());
  ASSERT_EQ(r.dps.size(), 4u);
  EXPECT_EQ(r.membership.joins_completed, 1u);
  EXPECT_TRUE(r.dps[3].left);
  EXPECT_EQ(r.membership.leaves_observed, 3u);  // each of the three peers

  // One index past the joiners is still rejected.
  const auto past = scenario_from_config(Config::parse(
      "membership = true\nfault_plan = at=60 join; at=300 leave dp=4\n"));
  ASSERT_FALSE(past.ok());
  EXPECT_NE(past.error().find("names dp 4"), std::string::npos);
}

TEST(ScenarioFromConfig, FaultPlanMayNotNameAJoinerBeforeItsJoinFires) {
  // The leave fires before the join that would add dp 3: the plan is
  // checked in firing order, not against every join it holds.
  const auto early = scenario_from_config(Config::parse(
      "dps = 3\nmembership = true\n"
      "fault_plan = at=60 leave dp=3; at=300 join\n"));
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.error().find("names dp 3 in 't=60s leave dp3'"),
            std::string::npos)
      << early.error();

  // At one instant events fire in plan order.
  EXPECT_FALSE(scenario_from_config(
                   Config::parse("dps = 3\nmembership = true\n"
                                 "fault_plan = at=60 leave dp=3; at=60 join\n"))
                   .ok());
  EXPECT_TRUE(scenario_from_config(
                  Config::parse("dps = 3\nmembership = true\n"
                                "fault_plan = at=60 join; at=60 leave dp=3\n"))
                  .ok());

  // Every index-naming shape is bounded the same way.
  EXPECT_FALSE(scenario_from_config(
                   Config::parse("dps = 3\nmembership = true\n"
                                 "fault_plan = at=30 partition islands=0|3; "
                                 "at=60 join\n"))
                   .ok());
}

TEST(ScenarioFromConfig, RejectsUnknownKeys) {
  const auto result = scenario_from_config(Config::parse("dp_count = 3\n"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown config key"), std::string::npos);

  // An unknown key is reported ahead of a bad value.
  const auto both = scenario_from_config(Config::parse("profile = gt5\ndp_count = 3\n"));
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.error(), "unknown config key: dp_count");
}

// Tuning values that no workload varies are constants, not keys.
class ScenarioFromConfigRemovedKey : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioFromConfigRemovedKey, IsUnknown) {
  const std::string key = GetParam();
  const auto result = scenario_from_config(Config::parse(key + " = 1\n"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), "unknown config key: " + key);
}

INSTANTIATE_TEST_SUITE_P(Constants, ScenarioFromConfigRemovedKey,
                         ::testing::Values("stale_discount", "credit_cap_epochs",
                                           "price_base", "price_utilization",
                                           "price_wait"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(ScenarioFromConfig, RejectsBadEnumValues) {
  EXPECT_FALSE(scenario_from_config(Config::parse("profile = gt5\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("overlay = torus\n")).ok());
  // The retired static wirings are unknown names, not aliases.
  EXPECT_FALSE(scenario_from_config(Config::parse("overlay = ring\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("overlay = star\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("dissemination = all\n")).ok());
}

TEST(ScenarioFromConfig, ParsesOverlayStrategies) {
  // The `overlay` key names one of the src/overlay/ dissemination
  // strategies.
  const auto tree = scenario_from_config(Config::parse(
      "overlay = tree\noverlay_degree = 3\n"));
  ASSERT_TRUE(tree.ok()) << tree.error();
  EXPECT_EQ(tree.value().overlay_options.kind, overlay::Kind::kTree);
  EXPECT_EQ(tree.value().overlay_options.tree_degree, 3u);

  const auto gossip = scenario_from_config(Config::parse(
      "overlay = gossip\noverlay_fanout = 4\n"));
  ASSERT_TRUE(gossip.ok()) << gossip.error();
  EXPECT_EQ(gossip.value().overlay_options.kind, overlay::Kind::kGossip);
  EXPECT_EQ(gossip.value().overlay_options.gossip_fanout, 4u);

  const auto super = scenario_from_config(Config::parse(
      "overlay = superpeer\noverlay_superpeers = 5\n"));
  ASSERT_TRUE(super.ok()) << super.error();
  EXPECT_EQ(super.value().overlay_options.kind, overlay::Kind::kSuperPeer);
  EXPECT_EQ(super.value().overlay_options.superpeers, 5u);

  const auto mesh = scenario_from_config(Config::parse("overlay = mesh\n"));
  ASSERT_TRUE(mesh.ok()) << mesh.error();
  EXPECT_EQ(mesh.value().overlay_options.kind, overlay::Kind::kMesh);

  EXPECT_FALSE(
      scenario_from_config(Config::parse("overlay_degree = 0\n")).ok());
  EXPECT_FALSE(
      scenario_from_config(Config::parse("overlay_fanout = 0\n")).ok());
}

TEST(ScenarioFromConfig, RejectsOutOfRangeValues) {
  EXPECT_FALSE(scenario_from_config(Config::parse("dps = 0\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("clients = -4\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("wan_loss = 1.5\n")).ok());
  EXPECT_FALSE(
      scenario_from_config(Config::parse("cpus_min = 4\ncpus_max = 2\n")).ok());
}

TEST(ScenarioFromConfig, RejectsTypeErrors) {
  EXPECT_FALSE(scenario_from_config(Config::parse("dps = three\n")).ok());
  EXPECT_FALSE(scenario_from_config(Config::parse("uslas = maybe\n")).ok());
}

TEST(ScenarioFromConfig, ConfiguredScenarioRuns) {
  const auto cfg = scenario_from_config(Config::parse(
      "dps = 1\nclients = 6\nduration_minutes = 5\ngrid_scale = 1\nvos = 2\n"
      "groups_per_vo = 1\n"));
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  const ScenarioResult r = run_scenario(cfg.value());
  EXPECT_GT(r.all.requests, 0u);
  EXPECT_EQ(r.final_dps, 1);
}

}  // namespace
}  // namespace digruber::experiments
