// Dynamic membership: the SWIM-style table's merge/sweep semantics, the
// decision-point failure detector riding the exchange cadence, runtime
// join via snapshot bootstrap (with seed rotation on crash/partition),
// graceful leave with drain NACKs, and membership-aware client routing
// (joiner pickup, dead-point quarantine with no half-open re-probing).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
#include "digruber/digruber/membership.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::digruber {
namespace {

sim::Time at(double s) { return sim::Time::from_seconds(s); }

MembershipOptions table_options() {
  MembershipOptions o;
  o.enabled = true;
  o.suspect_after = 2.5;
  o.dead_after = 4.0;
  return o;
}

MemberInfo info(std::uint64_t dp, std::uint64_t node,
                MemberState state = MemberState::kAlive,
                std::uint32_t incarnation = 0) {
  return MemberInfo{DpId(dp), node, state, incarnation};
}

// ---------------------------------------------------------------------------
// MembershipTable unit tests (pure state machine, no simulation).

TEST(MembershipTable, SweepDeclaresSilentPeerSuspectThenDead) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(0, 100), info(1, 101)}, sim::Time::zero());
  const std::uint64_t epoch0 = table.epoch();
  const sim::Duration interval = sim::Duration::seconds(10);

  // 20 s of silence: below the 25 s suspicion threshold, nothing moves.
  EXPECT_TRUE(table.sweep(at(20), interval).transitions.empty());
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kAlive);

  // 30 s: suspect (>= 2.5 intervals), but not yet dead (< 4 intervals).
  auto r1 = table.sweep(at(30), interval);
  ASSERT_EQ(r1.transitions.size(), 1u);
  EXPECT_EQ(r1.transitions[0].peer, DpId(1));
  EXPECT_EQ(r1.transitions[0].to, MemberState::kSuspect);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kSuspect);
  // A suspect is still an exchange target (its reply refutes the verdict).
  EXPECT_EQ(table.live_peer_nodes().size(), 1u);

  // 45 s: past the 40 s death threshold.
  auto r2 = table.sweep(at(45), interval);
  ASSERT_EQ(r2.transitions.size(), 1u);
  EXPECT_EQ(r2.transitions[0].to, MemberState::kDead);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kDead);
  EXPECT_TRUE(table.live_peer_nodes().empty());

  EXPECT_EQ(table.counters().suspicions, 1u);
  EXPECT_EQ(table.counters().deaths, 1u);
  // Every verdict is a view change the epoch must advertise.
  EXPECT_GT(table.epoch(), epoch0);
  ASSERT_EQ(table.transitions().size(), 2u);
  EXPECT_EQ(table.transitions()[1].at, at(45));
}

TEST(MembershipTable, LateFrameRefutesSuspicionButNotDeath) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(1, 101)}, sim::Time::zero());
  const sim::Duration interval = sim::Duration::seconds(10);

  table.sweep(at(30), interval);
  ASSERT_EQ(table.state_of(DpId(1)), MemberState::kSuspect);

  // A single frame at the same incarnation refutes the suspicion.
  auto refute = table.heard_from(DpId(1), 101, 0, at(32));
  ASSERT_TRUE(refute.has_value());
  EXPECT_EQ(refute->to, MemberState::kAlive);
  EXPECT_EQ(table.counters().refutations, 1u);

  // Silence from 32 s to 80 s crosses both thresholds in one sweep.
  auto swept = table.sweep(at(80), interval);
  ASSERT_EQ(swept.transitions.size(), 2u);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kDead);

  // Dead is terminal for the incarnation: a late frame from the previous
  // life must not resurrect the entry...
  EXPECT_FALSE(table.heard_from(DpId(1), 101, 0, at(85)).has_value());
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kDead);
  // ...but a strictly newer incarnation is a restart and does.
  auto resurrect = table.heard_from(DpId(1), 101, 1, at(90));
  ASSERT_TRUE(resurrect.has_value());
  EXPECT_EQ(resurrect->to, MemberState::kAlive);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kAlive);
  EXPECT_EQ(table.counters().refutations, 2u);
}

TEST(MembershipTable, AbsorbMergesBySeverityThenIncarnation) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(1, 101)}, sim::Time::zero());

  auto absorb_one = [&](MemberInfo member, double t) {
    MembershipUpdate update;
    update.epoch = 0;  // epoch merge tested separately
    update.members = {member};
    return table.absorb(update, at(t));
  };

  // Within one incarnation, severity wins: suspect beats alive...
  EXPECT_EQ(absorb_one(info(1, 101, MemberState::kSuspect), 10).size(), 1u);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kSuspect);
  // ...so an alive claim at the same incarnation cannot undo it...
  EXPECT_TRUE(absorb_one(info(1, 101, MemberState::kAlive), 11).empty());
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kSuspect);
  // ...and dead beats suspect.
  EXPECT_EQ(absorb_one(info(1, 101, MemberState::kDead), 12).size(), 1u);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kDead);

  // A higher incarnation always wins, whatever the severities.
  EXPECT_EQ(absorb_one(info(1, 101, MemberState::kAlive, 1), 13).size(), 1u);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kAlive);

  // A graceful leave at that incarnation is terminal.
  EXPECT_EQ(absorb_one(info(1, 101, MemberState::kLeft, 1), 14).size(), 1u);
  EXPECT_EQ(table.state_of(DpId(1)), MemberState::kLeft);
  EXPECT_EQ(table.counters().leaves_observed, 1u);
  EXPECT_TRUE(table.live_peer_nodes().empty());
}

TEST(MembershipTable, SelfClaimIsRefutedByIncarnationBump) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(1, 101)}, sim::Time::zero());

  MembershipUpdate rumour;
  rumour.members = {info(0, 100, MemberState::kDead, 0)};
  EXPECT_TRUE(table.absorb(rumour, at(5)).empty());

  // The table outlives the claimed incarnation; the bumped self entry
  // gossips back out and overrides the rumour everywhere.
  EXPECT_EQ(table.self().state, MemberState::kAlive);
  EXPECT_GT(table.self().incarnation, 0u);
  EXPECT_EQ(table.counters().refutations, 1u);
}

TEST(MembershipTable, RestartWithHigherIncarnationSupersedesStaleDeath) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(1, 101)}, sim::Time::zero());

  // Durable restart: recovery replays the persisted incarnation floor (3)
  // and resumes one above it, resetting to the seed view.
  table.reset_to_seeds(at(50), 4);
  EXPECT_EQ(table.self().incarnation, 4u);
  EXPECT_EQ(table.self().state, MemberState::kAlive);

  // Peers still gossiping the death verdict from the previous life (any
  // incarnation below the persisted floor + 1) can no longer bite: the
  // restarted entry is strictly newer, so no refutation round is needed.
  MembershipUpdate stale;
  stale.members = {info(0, 100, MemberState::kDead, 3)};
  EXPECT_TRUE(table.absorb(stale, at(51)).empty());
  EXPECT_EQ(table.self().state, MemberState::kAlive);
  EXPECT_EQ(table.self().incarnation, 4u);
  EXPECT_EQ(table.counters().refutations, 0u);

  // A verdict at the *current* incarnation is genuinely new evidence and
  // still triggers the usual self-refutation bump.
  MembershipUpdate current;
  current.members = {info(0, 100, MemberState::kDead, 4)};
  EXPECT_TRUE(table.absorb(current, at(52)).empty());
  EXPECT_GT(table.self().incarnation, 4u);
  EXPECT_EQ(table.counters().refutations, 1u);
}

TEST(MembershipTable, AbsorbLearnsJoinersAndMaxMergesEpoch) {
  MembershipTable table(DpId(0), 100, table_options());
  table.seed({info(1, 101)}, sim::Time::zero());

  MembershipUpdate update;
  update.epoch = 40;
  update.members = {info(2, 102)};
  auto changed = table.absorb(update, at(5));
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].peer, DpId(2));
  EXPECT_EQ(table.counters().joins_observed, 1u);
  EXPECT_EQ(table.live_peer_nodes().size(), 2u);
  // Epochs are max-merged so the mesh converges on one monotone mark.
  EXPECT_EQ(table.epoch(), 40u);
  EXPECT_TRUE(table.absorb(update, at(6)).empty());  // idempotent
  EXPECT_EQ(table.epoch(), 40u);
}

// ---------------------------------------------------------------------------
// Decision-point integration (failure detector, join, leave) and
// membership-aware client routing, on the simulated WAN.

net::ContainerProfile fast_profile() {
  net::ContainerProfile p;
  p.workers = 4;
  p.base_overhead = sim::Duration::millis(5);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

struct Fixture {
  sim::Simulation sim;
  net::SimTransport transport;
  grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 2);
  usla::AllocationTree tree;

  explicit Fixture(std::uint64_t seed = 1)
      : transport(sim, net::WanModel(net::WanParams{}, seed)) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  /// Membership-enabled options with a 10 s heartbeat: suspect after 25 s
  /// of silence, dead after 40 s, detection budget 2 * 2.5 * 10 = 50 s.
  DecisionPointOptions dp_options() {
    DecisionPointOptions o;
    o.profile = fast_profile();
    o.exchange_interval = sim::Duration::seconds(10);
    o.eval_cost_per_site = sim::Duration::millis(0.1);
    o.membership.enabled = true;
    o.membership.join_snapshot_timeout = sim::Duration::seconds(5);
    o.membership.join_retry_backoff = sim::Duration::seconds(2);
    return o;
  }

  std::vector<grid::SiteSnapshot> snapshots() {
    std::vector<grid::SiteSnapshot> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      grid::SiteSnapshot s;
      s.site = SiteId(i);
      s.total_cpus = 100;
      s.free_cpus = std::int32_t(100 - 10 * i);
      out.push_back(s);
    }
    return out;
  }

  std::vector<SiteId> sites() { return {SiteId(0), SiteId(1), SiteId(2)}; }

  grid::Job job() {
    grid::Job j;
    j.id = JobId(1);
    j.vo = VoId(0);
    j.group = GroupId(0);
    j.user = UserId(0);
    j.cpus = 1;
    return j;
  }

  void seed_all(std::vector<DecisionPoint*> dps) {
    std::vector<MemberInfo> members;
    for (DecisionPoint* dp : dps) {
      members.push_back(MemberInfo{dp->id(), dp->node().value(),
                                   MemberState::kAlive, 0});
    }
    for (DecisionPoint* dp : dps) dp->seed_membership(members);
  }

  void report_selection(net::RpcClient& rpc, NodeId dp, std::int32_t cpus) {
    ReportSelectionRequest report;
    report.site = SiteId(0);
    report.vo = VoId(0);
    report.group = GroupId(0);
    report.user = UserId(0);
    report.cpus = cpus;
    report.est_runtime = sim::Duration::minutes(60);
    rpc.call<ReportSelectionRequest, Ack>(dp, kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  }

  std::unique_ptr<DiGruberClient> client(std::vector<NodeId> dps,
                                         ClientOptions options) {
    return std::make_unique<DiGruberClient>(
        sim, transport, ClientId(0), std::move(dps), sites(),
        gruber::make_selector("top-k", sim.rng().fork()), sim.rng().fork(),
        options);
  }
};

TEST(Membership, DetectorDeclaresCrashedPeerDeadWithinBudget) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  c.bootstrap(f.snapshots());
  f.seed_all({&a, &b, &c});

  f.sim.schedule_at(at(35), [&] { a.crash(); });

  // Budget: crash at 35 s, last frame heard ~30 s, dead after 40 s of
  // silence, swept on the 10 s cadence -> declared by ~85 s on every
  // surviving peer (well inside crash + 2 suspicion intervals = 85 s).
  f.sim.run_until(at(95));
  for (DecisionPoint* survivor : {&b, &c}) {
    ASSERT_TRUE(survivor->membership() != nullptr);
    EXPECT_EQ(survivor->membership()->state_of(DpId(0)), MemberState::kDead);
    EXPECT_GE(survivor->membership()->counters().suspicions, 1u);
    EXPECT_GE(survivor->membership()->counters().deaths, 1u);
  }
  // The dead peer dropped out of the exchange fan-out; survivors still
  // heartbeat each other.
  EXPECT_EQ(b.membership()->live_peer_nodes(),
            (std::vector<NodeId>{c.node()}));
  EXPECT_EQ(b.membership()->state_of(DpId(2)), MemberState::kAlive);
  b.stop();
  c.stop();
}

TEST(Membership, JoinBootstrapsFromSnapshotAndAnnouncesItself) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  // c is deliberately NOT bootstrapped: everything it knows must come from
  // the seed's snapshot.
  f.seed_all({&a, &b});

  net::RpcClient rpc(f.sim, f.transport);
  f.report_selection(rpc, a.node(), 40);

  f.sim.schedule_at(at(25), [&] { c.join({a.node(), b.node()}); });
  f.sim.run_until(at(60));

  // One transfer from the first seed, no retries, and the snapshot carried
  // the active dispatch record — not a full-history replay.
  EXPECT_TRUE(c.serving());
  EXPECT_EQ(c.counters().join_retries, 0u);
  EXPECT_EQ(a.counters().pull(PullReason::kJoin).served, 1u);
  EXPECT_EQ(b.counters().pull(PullReason::kJoin).served, 0u);
  EXPECT_EQ(c.counters().pull(PullReason::kJoin).applied, 1u);
  EXPECT_GE(c.serving_since(), at(25));
  // The bootstrapped view reflects the seed's belief: 100 - 40 on site 0.
  EXPECT_EQ(c.engine().view().estimated_free(SiteId(0), f.sim.now()), 60);

  // The joiner announced itself with its first exchange: both incumbents
  // admitted it as alive and will flood records its way.
  EXPECT_EQ(a.membership()->state_of(DpId(2)), MemberState::kAlive);
  EXPECT_EQ(b.membership()->state_of(DpId(2)), MemberState::kAlive);
  EXPECT_GE(a.membership()->counters().joins_observed, 1u);
  a.stop();
  b.stop();
  c.stop();
}

TEST(Membership, JoinRotatesToNextSeedWhenFirstCrashesMidTransfer) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  // The seed dies with the snapshot request in flight: the transfer must
  // abort cleanly (no partial state applied) and rotate to the next seed
  // after the backoff.
  f.sim.schedule_at(at(10), [&] { c.join({a.node(), b.node()}); });
  f.sim.schedule_at(sim::Time::from_seconds(10.001), [&] { a.crash(); });

  // While the join is pending, query traffic bounces off the door with a
  // typed draining NACK — a partial-state point must not answer queries.
  bool refused = false;
  net::RpcClient probe(f.sim, f.transport);
  f.sim.schedule_at(at(12), [&] {
    GetSiteLoadsRequest query;
    query.job = JobId(9);
    query.vo = VoId(0);
    query.group = GroupId(0);
    query.user = UserId(0);
    probe.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        c.node(), kGetSiteLoads, query, sim::Duration::seconds(10),
        [&](Result<GetSiteLoadsReply> result) {
          refused = true;
          ASSERT_FALSE(result.ok());
          EXPECT_NE(result.error().find("drain"), std::string::npos)
              << result.error();
        });
  });

  f.sim.run_until(at(40));
  EXPECT_TRUE(refused);
  EXPECT_TRUE(c.serving());
  EXPECT_GE(c.counters().join_retries, 1u);
  EXPECT_EQ(a.counters().pull(PullReason::kJoin).served, 0u);
  EXPECT_EQ(b.counters().pull(PullReason::kJoin).served, 1u);
  EXPECT_EQ(c.counters().queries, 0u);
  EXPECT_GE(c.counters().drain_nacks, 1u);
  b.stop();
  c.stop();
}

TEST(Membership, JoinerCrashMidTransferDropsLateSnapshot) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  net::RpcClient rpc(f.sim, f.transport);
  f.report_selection(rpc, a.node(), 40);

  // This time the *joiner* dies with the join pull's reply in flight. The
  // seed serves the transfer, but the bytes land on a crashed incarnation —
  // the abort guard must drop them instead of half-applying state.
  f.sim.schedule_at(at(25), [&] { c.join({a.node(), b.node()}); });
  f.sim.schedule_at(sim::Time::from_seconds(25.001), [&] { c.crash(); });
  f.sim.run_until(at(45));

  EXPECT_EQ(a.counters().pull(PullReason::kJoin).served, 1u);
  EXPECT_FALSE(c.serving());
  EXPECT_FALSE(c.running());
  EXPECT_EQ(c.counters().pull(PullReason::kJoin).applied, 0u);

  // The crashed joiner comes back and re-runs the whole join; the mesh
  // (which never admitted the aborted life) accepts the new one.
  c.restart(f.snapshots());
  c.join({a.node(), b.node()});
  f.sim.run_until(at(90));
  EXPECT_TRUE(c.serving());
  EXPECT_EQ(c.counters().pull(PullReason::kJoin).applied, 1u);
  EXPECT_EQ(a.membership()->state_of(DpId(2)), MemberState::kAlive);
  a.stop();
  b.stop();
  c.stop();
}

TEST(Membership, JoinRidesOutPartitionedSeedViaTimeout) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  // Partition the first seed away before the join: the transfer times out
  // (rather than erroring fast), and the rotation still lands on b.
  f.sim.schedule_at(at(5), [&] {
    f.transport.set_island(a.node(), 1);
    f.transport.set_island(a.peer_node(), 1);
  });
  f.sim.schedule_at(at(10), [&] { c.join({a.node(), b.node()}); });

  f.sim.run_until(at(40));
  EXPECT_TRUE(c.serving());
  EXPECT_GE(c.counters().join_retries, 1u);
  EXPECT_EQ(b.counters().pull(PullReason::kJoin).served, 1u);
  EXPECT_EQ(c.counters().queries, 0u);
  EXPECT_GE(f.transport.packets_dropped(net::DropCause::kPartition), 1u);
  b.stop();
  c.stop();
}

TEST(Membership, LeaveDrainsAndRedirectsClientsToSurvivors) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  c.bootstrap(f.snapshots());
  f.seed_all({&a, &b, &c});

  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(5);
  options.membership_aware = true;
  auto client = f.client({a.node(), b.node()}, options);

  f.sim.schedule_at(at(20), [&] { a.leave(); });

  bool done = false;
  f.sim.schedule_at(at(22), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      done = true;
      EXPECT_TRUE(outcome.handled_by_gruber);
      EXPECT_EQ(outcome.served_by, b.node());
    });
  });

  f.sim.run_until(at(60));
  ASSERT_TRUE(done);

  // The departed point drained: marked left everywhere, gone from the
  // survivors' fan-out, and its door refused the straggler query.
  EXPECT_TRUE(a.left());
  EXPECT_FALSE(a.serving());
  EXPECT_EQ(b.membership()->state_of(DpId(0)), MemberState::kLeft);
  EXPECT_EQ(c.membership()->state_of(DpId(0)), MemberState::kLeft);
  EXPECT_GE(b.membership()->counters().leaves_observed, 1u);
  EXPECT_GE(a.counters().drain_nacks, 1u);

  // The typed NACK was a redirect, not a failure: no fallback, and the
  // piggybacked view quarantined the departed point for good.
  EXPECT_EQ(client->counters().drain_redirects, 1u);
  EXPECT_EQ(client->counters().fallbacks, 0u);
  EXPECT_TRUE(client->is_quarantined(0));
  b.stop();
  c.stop();
}

TEST(Membership, LeftPointStopsCheckpointing) {
  Fixture f;
  DecisionPointOptions o = f.dp_options();
  o.durability.enabled = true;
  o.durability.checkpoint_interval = sim::Duration::seconds(30);
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, o);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  std::uint64_t at_leave = 0;
  f.sim.schedule_at(at(20), [&] {
    a.leave();
    at_leave = a.disk()->counters().checkpoints_written;
  });
  f.sim.run_until(at(300));

  // Leaving stops every timer, the checkpoint cadence included; the
  // survivor keeps its own.
  EXPECT_TRUE(a.left());
  EXPECT_EQ(a.disk()->counters().checkpoints_written, at_leave);
  EXPECT_GE(b.disk()->counters().checkpoints_written, 9u);
  b.stop();
}

TEST(Membership, QuarantineStopsHalfOpenReprobesOfDeadPoint) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  // The first query fails over kBreakerThreshold times before a's breaker
  // opens; a's cooldown then runs out long before the run ends.
  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(2);
  options.membership_aware = true;
  auto client = f.client({a.node(), b.node()}, options);

  f.sim.schedule_at(at(1), [&] { a.crash(); });  // permanent

  std::uint64_t handled = 0;
  for (int i = 0; i < 12; ++i) {
    f.sim.schedule_at(at(2 + 15.0 * i), [&] {
      client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
        if (outcome.handled_by_gruber) ++handled;
      });
    });
  }

  // b declares a dead by ~40 s; the next stale-epoch query reply carries
  // the verdict and the client quarantines index 0.
  std::uint64_t failovers_after_quarantine = 0;
  f.sim.schedule_at(at(75), [&] {
    EXPECT_TRUE(client->is_quarantined(0));
    failovers_after_quarantine = client->counters().failovers;
  });

  f.sim.run_until(at(200));
  EXPECT_EQ(handled, 12u);
  EXPECT_EQ(client->counters().dps_quarantined, 1u);
  EXPECT_GE(client->counters().failovers, 1u);  // pre-quarantine probes did fail over
  // The fix under test: once membership says dead, there are no further
  // probes, so the failover count froze and a's breaker tripped only once.
  EXPECT_EQ(client->counters().failovers, failovers_after_quarantine);
  EXPECT_EQ(client->counters().breaker_trips, 1u);

  // Not even half-open ones: with b down too, b trips its own breaker and
  // the query falls back without a probe of quarantined a.
  f.sim.schedule_at(at(200), [&] { b.crash(); });
  f.sim.schedule_at(at(205), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      EXPECT_FALSE(outcome.handled_by_gruber);
    });
  });
  f.sim.run_until(at(300));
  EXPECT_EQ(client->counters().breaker_trips, 2u);
  EXPECT_EQ(client->counters().all_dps_down_fallbacks, 1u);
}

TEST(Membership, StaleEpochClientLearnsJoinerFromQueryReply) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.dp_options());
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options());
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, f.dp_options());
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  f.seed_all({&a, &b});

  ClientOptions options;
  options.attempt_timeout = sim::Duration::seconds(5);
  options.membership_aware = true;
  auto client = f.client({a.node(), b.node()}, options);

  f.sim.schedule_at(at(30), [&] { c.join({a.node(), b.node()}); });

  bool done = false;
  f.sim.schedule_at(at(55), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      done = true;
      EXPECT_TRUE(outcome.handled_by_gruber);
    });
  });

  f.sim.run_until(at(90));
  ASSERT_TRUE(done);
  // The reply piggybacked the newer view: the joiner is now a routing
  // target with a fresh breaker.
  EXPECT_GE(client->counters().membership_updates_applied, 1u);
  EXPECT_EQ(client->counters().dps_added, 1u);
  ASSERT_EQ(client->decision_points().size(), 3u);
  EXPECT_EQ(client->decision_points()[2], c.node());
  EXPECT_GT(client->membership_epoch(), 0u);
  a.stop();
  b.stop();
  c.stop();
}

}  // namespace
}  // namespace digruber::digruber
