#include "digruber/sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace digruber::sim {
namespace {

Time at(double seconds) { return Time::from_seconds(seconds); }

TEST(FaultPlan, ParsesEveryVerb) {
  const auto plan = FaultPlan::parse(
      "# a comment\n"
      "at=120 crash dp=0\n"
      "at=5m restart dp=0\n"
      "at=360 partition islands=0|1,2\n"
      "at=400 heal\n"
      "at=450 degrade link=1:2 latency=3 loss=0.1\n"
      "at=460 degrade dp=0 latency=2\n"
      "at=500 restore link=1:2\n"
      "at=510 restore dp=0\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto& events = plan.value().events();
  ASSERT_EQ(events.size(), 8u);

  EXPECT_EQ(events[0].kind, FaultKind::kDpCrash);
  EXPECT_EQ(events[0].at, Time::from_seconds(120));
  EXPECT_EQ(events[0].dp, 0u);

  EXPECT_EQ(events[1].kind, FaultKind::kDpRestart);
  EXPECT_EQ(events[1].at, Time::from_seconds(300));  // 5m suffix

  EXPECT_EQ(events[2].kind, FaultKind::kPartition);
  ASSERT_EQ(events[2].islands.size(), 2u);
  EXPECT_EQ(events[2].islands[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(events[2].islands[1], (std::vector<std::size_t>{1, 2}));

  EXPECT_EQ(events[3].kind, FaultKind::kHeal);

  EXPECT_EQ(events[4].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(events[4].dp, 1u);
  EXPECT_EQ(events[4].peer, 2u);
  EXPECT_FALSE(events[4].all_peers);
  EXPECT_DOUBLE_EQ(events[4].latency_factor, 3.0);
  EXPECT_DOUBLE_EQ(events[4].extra_loss, 0.1);

  EXPECT_EQ(events[5].kind, FaultKind::kLinkDegrade);
  EXPECT_TRUE(events[5].all_peers);
  EXPECT_DOUBLE_EQ(events[5].latency_factor, 2.0);
  EXPECT_DOUBLE_EQ(events[5].extra_loss, 0.0);

  EXPECT_EQ(events[6].kind, FaultKind::kLinkRestore);
  EXPECT_EQ(events[7].kind, FaultKind::kLinkRestore);
  EXPECT_TRUE(events[7].all_peers);
}

TEST(FaultPlan, ParsesChurnVerbs) {
  const auto plan = FaultPlan::parse(
      "at=100 join\n"
      "at=200 leave dp=1\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto& events = plan.value().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kDpJoin);
  EXPECT_EQ(events[0].at, Time::from_seconds(100));
  EXPECT_EQ(events[1].kind, FaultKind::kDpLeave);
  EXPECT_EQ(events[1].dp, 1u);

  FaultPlan built;
  built.add({.at = at(100), .kind = FaultKind::kDpJoin});
  built.add({.at = at(200), .kind = FaultKind::kDpLeave, .dp = 1});
  EXPECT_EQ(plan.value(), built);

  // `leave` names a decision point; `join` never does (the harness assigns
  // the next free deployment index in plan order).
  EXPECT_FALSE(FaultPlan::parse("at=10 leave").ok());
}

TEST(FaultPlan, ParsesPartitionToleranceVerbs) {
  const auto plan = FaultPlan::parse(
      "at=100 partition islands=0|1,2 clients=split\n"
      "at=200 oneway from=0 to=2\n"
      "at=250 oneway from=1\n"
      "at=300 healoneway from=0 to=2\n"
      "at=320 healoneway from=1\n"
      "at=400 corrupt rate=0.05\n"
      "at=500 corrupt rate=0\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto& events = plan.value().events();
  ASSERT_EQ(events.size(), 7u);

  EXPECT_EQ(events[0].kind, FaultKind::kPartition);
  EXPECT_TRUE(events[0].split_clients);

  EXPECT_EQ(events[1].kind, FaultKind::kOneWayPartition);
  EXPECT_EQ(events[1].dp, 0u);
  EXPECT_EQ(events[1].peer, 2u);
  EXPECT_FALSE(events[1].all_peers);

  EXPECT_EQ(events[2].kind, FaultKind::kOneWayPartition);
  EXPECT_EQ(events[2].dp, 1u);
  EXPECT_TRUE(events[2].all_peers);

  EXPECT_EQ(events[3].kind, FaultKind::kOneWayHeal);
  EXPECT_EQ(events[3].peer, 2u);
  EXPECT_EQ(events[4].kind, FaultKind::kOneWayHeal);
  EXPECT_TRUE(events[4].all_peers);

  EXPECT_EQ(events[5].kind, FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(events[5].corrupt_rate, 0.05);
  EXPECT_EQ(events[6].kind, FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(events[6].corrupt_rate, 0.0);

  FaultPlan built;
  built.add({.at = at(100),
             .kind = FaultKind::kPartition,
             .split_clients = true,
             .islands = {{0}, {1, 2}}});
  built.add({.at = at(200), .kind = FaultKind::kOneWayPartition, .dp = 0, .peer = 2});
  built.add(
      {.at = at(250), .kind = FaultKind::kOneWayPartition, .dp = 1, .all_peers = true});
  built.add({.at = at(300), .kind = FaultKind::kOneWayHeal, .dp = 0, .peer = 2});
  built.add({.at = at(320), .kind = FaultKind::kOneWayHeal, .dp = 1, .all_peers = true});
  built.add({.at = at(400), .kind = FaultKind::kCorrupt, .corrupt_rate = 0.05});
  built.add({.at = at(500), .kind = FaultKind::kCorrupt});
  EXPECT_EQ(plan.value(), built);

  EXPECT_FALSE(FaultPlan::parse("at=10 oneway to=1").ok());
  EXPECT_FALSE(FaultPlan::parse("at=10 oneway from=1 to=1").ok());
  EXPECT_FALSE(FaultPlan::parse("at=10 corrupt rate=1.5").ok());
  EXPECT_FALSE(FaultPlan::parse("at=10 partition islands=0|1 clients=keep").ok());
}

TEST(FaultPlanRandom, PartitionToleranceFaultsAreOptIn) {
  // allow_oneway_partitions / allow_corruption / split_clients_in_partitions
  // default to false: pre-existing chaos seeds replay byte-identically.
  RandomFaultOptions options;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    for (const FaultEvent& event : plan.events()) {
      EXPECT_NE(event.kind, FaultKind::kOneWayPartition) << "seed " << seed;
      EXPECT_NE(event.kind, FaultKind::kCorrupt) << "seed " << seed;
      EXPECT_FALSE(event.split_clients) << "seed " << seed;
    }
  }
}

TEST(FaultPlanRandom, OneWayAndCorruptionEpisodesAlwaysHeal) {
  RandomFaultOptions options;
  options.n_dps = 3;
  options.episodes = 8;
  options.allow_oneway_partitions = true;
  options.allow_corruption = true;
  options.split_clients_in_partitions = true;
  bool saw_oneway = false, saw_corrupt = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    EXPECT_EQ(plan, FaultPlan::random(seed, options)) << "seed " << seed;
    int oneway_open = 0;
    double corrupt_rate = 0.0;
    for (const FaultEvent& event : plan.events()) {
      switch (event.kind) {
        case FaultKind::kOneWayPartition:
          saw_oneway = true;
          ++oneway_open;
          break;
        case FaultKind::kOneWayHeal:
          --oneway_open;
          break;
        case FaultKind::kHeal:
          // A full heal clears directed blocks too.
          oneway_open = 0;
          break;
        case FaultKind::kCorrupt:
          if (event.corrupt_rate > 0.0) saw_corrupt = true;
          corrupt_rate = event.corrupt_rate;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(oneway_open, 0) << "unhealed one-way partition, seed " << seed;
    EXPECT_DOUBLE_EQ(corrupt_rate, 0.0)
        << "corruption left running, seed " << seed;
  }
  EXPECT_TRUE(saw_oneway);
  EXPECT_TRUE(saw_corrupt);
}

TEST(FaultPlan, JoinCountAndMaxDpIndexCoverChurn) {
  FaultPlan plan;
  EXPECT_EQ(plan.join_count(), 0u);
  plan.add({.at = at(10), .kind = FaultKind::kDpJoin});
  plan.add({.at = at(20), .kind = FaultKind::kDpJoin});
  EXPECT_EQ(plan.join_count(), 2u);
  // Joins carry no index and must not widen the deployment-bound check...
  for (const FaultEvent& e : plan.events()) EXPECT_EQ(max_dp_index(e), 0u);
  // ...while a leave's target does.
  plan.add({.at = at(30), .kind = FaultKind::kDpLeave, .dp = 5});
  EXPECT_EQ(max_dp_index(plan.events().back()), 5u);
}

TEST(FaultPlan, SemicolonSeparatedSingleLine) {
  const auto plan = FaultPlan::parse("at=10 crash dp=1; at=20 restart dp=1");
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_EQ(plan.value().size(), 2u);
}

TEST(FaultPlan, ParseMatchesAddedEvents) {
  const auto parsed = FaultPlan::parse(
      "at=120 crash dp=0\n"
      "at=300 restart dp=0\n"
      "at=360 partition islands=0|1,2\n"
      "at=400 heal\n"
      "at=450 degrade link=1:2 latency=3 loss=0.1\n"
      "at=460 restore dp=0\n"
      "at=470 diskstall dp=2\n"
      "at=480 disktorn dp=1\n");
  ASSERT_TRUE(parsed.ok());

  FaultPlan built;
  built.add({.at = at(120), .kind = FaultKind::kDpCrash, .dp = 0});
  built.add({.at = at(300), .kind = FaultKind::kDpRestart, .dp = 0});
  built.add({.at = at(360), .kind = FaultKind::kPartition, .islands = {{0}, {1, 2}}});
  built.add({.at = at(400), .kind = FaultKind::kHeal});
  built.add({.at = at(450),
             .kind = FaultKind::kLinkDegrade,
             .dp = 1,
             .peer = 2,
             .latency_factor = 3,
             .extra_loss = 0.1});
  built.add({.at = at(460), .kind = FaultKind::kLinkRestore, .dp = 0, .all_peers = true});
  // A stall without factor= defaults to 8.
  built.add({.at = at(470), .kind = FaultKind::kDiskStall, .dp = 2, .latency_factor = 8});
  built.add({.at = at(480), .kind = FaultKind::kDiskTorn, .dp = 1});
  EXPECT_EQ(parsed.value(), built);
}

TEST(FaultPlan, RejectsMalformedLinesWithLineNumbers) {
  const char* bad[] = {
      "crash dp=0",                       // missing at=
      "at=nope crash dp=0",               // bad time
      "at=10 crash",                      // missing dp
      "at=10 partition islands=0",        // single island
      "at=10 partition islands=0|x",      // bad index
      "at=10 degrade latency=2",          // no target
      "at=10 degrade link=1:1",           // self link
      "at=10 degrade link=1:2 latency=0.5",  // latency < 1
      "at=10 degrade link=1:2 loss=1.5",  // loss > 1
      "at=10 explode dp=0",               // unknown verb
  };
  for (const char* text : bad) {
    const auto plan = FaultPlan::parse(text);
    EXPECT_FALSE(plan.ok()) << "accepted: " << text;
    if (!plan.ok()) {
      EXPECT_NE(plan.error().find("fault plan line 1"), std::string::npos)
          << plan.error();
    }
  }
}

TEST(FaultPlan, EventsSortedByTimeStably) {
  FaultPlan plan;
  plan.add({.at = at(50), .kind = FaultKind::kHeal});
  plan.add({.at = at(10), .kind = FaultKind::kDpCrash, .dp = 2});
  // Same instant as the heal: after it.
  plan.add({.at = at(50), .kind = FaultKind::kDpRestart, .dp = 2});
  plan.add({.at = at(5), .kind = FaultKind::kDpCrash, .dp = 1});
  const auto& events = plan.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].dp, 1u);
  EXPECT_EQ(events[1].dp, 2u);
  EXPECT_EQ(events[2].kind, FaultKind::kHeal);
  EXPECT_EQ(events[3].kind, FaultKind::kDpRestart);
}

TEST(FaultPlan, MaxDpIndexCoversAllEventShapes) {
  FaultPlan plan;
  plan.add({.at = at(1), .kind = FaultKind::kDpCrash, .dp = 3});
  plan.add({.at = at(2),
            .kind = FaultKind::kLinkDegrade,
            .dp = 1,
            .peer = 7,
            .latency_factor = 2});
  plan.add({.at = at(3), .kind = FaultKind::kPartition, .islands = {{0, 9}, {4}}});
  plan.add({.at = at(4), .kind = FaultKind::kHeal});
  const auto& events = plan.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(max_dp_index(events[0]), 3u);
  EXPECT_EQ(max_dp_index(events[1]), 7u);
  EXPECT_EQ(max_dp_index(events[2]), 9u);
  EXPECT_EQ(max_dp_index(events[3]), 0u);  // names no point
}

TEST(FaultPlan, ArmFiresEventsAtTheirInstants) {
  FaultPlan plan;
  plan.add({.at = at(10), .kind = FaultKind::kDpCrash, .dp = 0});
  plan.add({.at = at(20), .kind = FaultKind::kDpRestart, .dp = 0});

  Simulation sim;
  std::vector<std::pair<double, FaultKind>> fired;
  plan.arm(sim, [&](const FaultEvent& event) {
    fired.emplace_back(sim.now().to_seconds(), event.kind);
  });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0].first, 10.0);
  EXPECT_EQ(fired[0].second, FaultKind::kDpCrash);
  EXPECT_DOUBLE_EQ(fired[1].first, 20.0);
  EXPECT_EQ(fired[1].second, FaultKind::kDpRestart);
}

TEST(FaultPlan, EveryKindHasItsOwnTraceName) {
  std::set<std::string> names;
  for (int k = 0; k <= int(FaultKind::kDiskRestore); ++k) {
    const std::string name = trace_name(FaultKind(k));
    EXPECT_EQ(name.rfind("fault.", 0), 0u) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_STREQ(trace_name(FaultKind::kDpCrash), "fault.crash");
  EXPECT_STREQ(trace_name(FaultKind::kDiskRestore), "fault.disk_restore");
}

// ---------------------------------------------------------------------------
// Random plans (the chaos harness's schedule generator).

TEST(FaultPlanRandom, SameSeedSamePlanDifferentSeedDiffers) {
  RandomFaultOptions options;
  const FaultPlan a = FaultPlan::random(42, options);
  const FaultPlan b = FaultPlan::random(42, options);
  EXPECT_EQ(a, b);
  // With several episodes the odds of a seed collision are negligible; a
  // handful of alternative seeds must produce at least one different plan.
  bool any_differ = false;
  for (std::uint64_t seed = 43; seed < 48; ++seed) {
    if (!(FaultPlan::random(seed, options) == a)) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultPlanRandom, EventsStayInsideTheSchedulingWindow) {
  RandomFaultOptions options;
  options.horizon = Duration::minutes(10);
  const Time lo = Time::zero() + options.horizon * 0.1;
  const Time hi = Time::zero() + options.horizon * 0.9;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    for (const FaultEvent& event : plan.events()) {
      EXPECT_GE(event.at, lo) << "seed " << seed;
      EXPECT_LE(event.at, hi) << "seed " << seed;
    }
  }
}

TEST(FaultPlanRandom, EveryFaultHealsAndIndicesFitDeployment) {
  RandomFaultOptions options;
  options.n_dps = 4;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    // Matched pairs: replaying the schedule must leave nothing down,
    // partitioned, or degraded at the end.
    std::vector<int> down(options.n_dps, 0);
    std::vector<int> degraded(options.n_dps, 0);
    int partitions = 0;
    for (const FaultEvent& event : plan.events()) {
      EXPECT_LT(max_dp_index(event), options.n_dps) << "seed " << seed;
      switch (event.kind) {
        case FaultKind::kDpCrash:
          EXPECT_EQ(down[event.dp], 0) << "seed " << seed << ": double crash";
          down[event.dp] = 1;
          break;
        case FaultKind::kDpRestart:
          EXPECT_EQ(down[event.dp], 1) << "seed " << seed << ": stray restart";
          down[event.dp] = 0;
          break;
        case FaultKind::kPartition:
          ++partitions;
          break;
        case FaultKind::kHeal:
          EXPECT_GT(partitions, 0) << "seed " << seed << ": stray heal";
          --partitions;
          break;
        case FaultKind::kLinkDegrade:
          EXPECT_EQ(degraded[event.dp], 0) << "seed " << seed;
          degraded[event.dp] = 1;
          break;
        case FaultKind::kLinkRestore:
          EXPECT_EQ(degraded[event.dp], 1) << "seed " << seed;
          degraded[event.dp] = 0;
          break;
        case FaultKind::kDpJoin:
        case FaultKind::kDpLeave:
        case FaultKind::kOneWayPartition:
        case FaultKind::kOneWayHeal:
        case FaultKind::kCorrupt:
        case FaultKind::kDiskTorn:
        case FaultKind::kDiskBitRot:
        case FaultKind::kDiskStall:
        case FaultKind::kDiskRestore:
          FAIL() << "seed " << seed << ": events without opt-in";
          break;
      }
    }
    EXPECT_EQ(partitions, 0) << "seed " << seed;
    for (std::size_t d = 0; d < options.n_dps; ++d) {
      EXPECT_EQ(down[d], 0) << "seed " << seed << " dp" << d;
      EXPECT_EQ(degraded[d], 0) << "seed " << seed << " dp" << d;
    }
  }
}

TEST(FaultPlanRandom, KeepOneAliveNeverCrashesWholeMesh) {
  RandomFaultOptions options;
  options.n_dps = 2;  // tightest case: any two overlapping crashes kill all
  options.episodes = 24;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    int down = 0;
    for (const FaultEvent& event : plan.events()) {
      if (event.kind == FaultKind::kDpCrash) ++down;
      if (event.kind == FaultKind::kDpRestart) --down;
      EXPECT_LT(down, int(options.n_dps)) << "seed " << seed;
    }
  }
}

TEST(FaultPlanRandom, HonorsKindAllowFlags) {
  // Crashes, partitions and degrades are always on; each opt-in switch
  // adds its own kinds and nothing else.
  const std::vector<FaultKind> base = {
      FaultKind::kDpCrash,     FaultKind::kDpRestart,   FaultKind::kPartition,
      FaultKind::kHeal,        FaultKind::kLinkDegrade, FaultKind::kLinkRestore};
  struct Switch {
    bool RandomFaultOptions::*flag;
    std::vector<FaultKind> kinds;
  };
  const Switch switches[] = {
      {&RandomFaultOptions::allow_joins, {FaultKind::kDpJoin}},
      {&RandomFaultOptions::allow_leaves, {FaultKind::kDpLeave}},
      {&RandomFaultOptions::allow_oneway_partitions,
       {FaultKind::kOneWayPartition, FaultKind::kOneWayHeal}},
      {&RandomFaultOptions::allow_corruption, {FaultKind::kCorrupt}},
      {&RandomFaultOptions::allow_disk_faults,
       {FaultKind::kDiskTorn, FaultKind::kDiskBitRot, FaultKind::kDiskStall,
        FaultKind::kDiskRestore}},
  };
  for (const Switch& on : switches) {
    RandomFaultOptions options;
    options.episodes = 8;
    options.*on.flag = true;
    std::vector<FaultKind> allowed = base;
    allowed.insert(allowed.end(), on.kinds.begin(), on.kinds.end());
    bool saw_opt_in = false;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const FaultPlan plan = FaultPlan::random(seed, options);
      for (const FaultEvent& event : plan.events()) {
        EXPECT_NE(std::find(allowed.begin(), allowed.end(), event.kind),
                  allowed.end())
            << "seed " << seed << ": " << describe(event);
        if (std::find(on.kinds.begin(), on.kinds.end(), event.kind) !=
            on.kinds.end()) {
          saw_opt_in = true;
        }
      }
    }
    EXPECT_TRUE(saw_opt_in) << "no " << trace_name(on.kinds.front());
  }
}

TEST(FaultPlanRandom, ChurnIsOptInSoDefaultSchedulesStayByteIdentical) {
  // allow_joins / allow_leaves default to false: the kind list (and hence
  // every rng draw) is unchanged, so pre-churn chaos seeds replay exactly.
  RandomFaultOptions options;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    for (const FaultEvent& event : plan.events()) {
      EXPECT_NE(event.kind, FaultKind::kDpJoin) << "seed " << seed;
      EXPECT_NE(event.kind, FaultKind::kDpLeave) << "seed " << seed;
    }
  }
}

TEST(FaultPlanRandom, ChurnSchedulesAreDeterministicAndWellFormed) {
  RandomFaultOptions options;
  options.n_dps = 3;
  options.episodes = 6;
  options.allow_joins = true;
  options.allow_leaves = true;
  bool saw_join = false, saw_leave = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    EXPECT_EQ(plan, FaultPlan::random(seed, options)) << "seed " << seed;
    // A left decision point is gone for good: never crashed, restarted, or
    // left again afterwards — and it counts as down, so crashes and leaves
    // never take every point down at once.
    std::vector<int> left(options.n_dps, 0);
    int down = 0;
    for (const FaultEvent& event : plan.events()) {
      switch (event.kind) {
        case FaultKind::kDpJoin:
          saw_join = true;
          break;
        case FaultKind::kDpLeave:
          saw_leave = true;
          EXPECT_EQ(left[event.dp], 0) << "seed " << seed << ": double leave";
          left[event.dp] = 1;
          ++down;
          break;
        case FaultKind::kDpCrash:
          EXPECT_EQ(left[event.dp], 0) << "seed " << seed
                                       << ": crash of a departed dp";
          ++down;
          break;
        case FaultKind::kDpRestart:
          EXPECT_EQ(left[event.dp], 0) << "seed " << seed
                                       << ": restart of a departed dp";
          --down;
          break;
        default:
          break;
      }
      EXPECT_LT(down, int(options.n_dps)) << "seed " << seed;
    }
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_leave);
}

TEST(FaultPlan, DescribeMentionsEveryEvent) {
  FaultPlan plan;
  plan.add({.at = at(10), .kind = FaultKind::kDpCrash, .dp = 0});
  plan.add({.at = at(20), .kind = FaultKind::kPartition, .islands = {{0}, {1, 2}}});
  plan.add({.at = at(30), .kind = FaultKind::kDpJoin});
  plan.add({.at = at(40), .kind = FaultKind::kDpLeave, .dp = 2});
  const std::string text = plan.describe();
  EXPECT_NE(text.find("crash dp0"), std::string::npos);
  EXPECT_NE(text.find("partition dp0 | dp1,dp2"), std::string::npos);
  EXPECT_NE(text.find("join"), std::string::npos);
  EXPECT_NE(text.find("leave dp2"), std::string::npos);
}

}  // namespace
}  // namespace digruber::sim
