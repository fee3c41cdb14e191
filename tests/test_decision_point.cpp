#include "digruber/digruber/decision_point.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "digruber/digruber/durability.hpp"
#include "digruber/digruber/infrastructure_monitor.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::digruber {
namespace {

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
  net::RpcClient rpc;

  explicit Fixture(std::uint64_t seed = 1)
      : transport(sim, net::WanModel(net::WanParams{}, seed)), rpc(sim, transport) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  DecisionPointOptions options() {
    DecisionPointOptions o;
    o.profile = fast_profile();
    o.exchange_interval = sim::Duration::minutes(1);
    o.eval_cost_per_site = sim::Duration::millis(0.1);
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

  GetSiteLoadsRequest request() {
    GetSiteLoadsRequest r;
    r.job = JobId(1);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = 1;
    return r;
  }
};

TEST(DecisionPoint, AnswersSiteLoadQueries) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  bool got = false;
  f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dp.node(), kGetSiteLoads, f.request(), sim::Duration::seconds(30),
      [&](Result<GetSiteLoadsReply> result) {
        ASSERT_TRUE(result.ok()) << result.error();
        ASSERT_EQ(result.value().candidates.size(), 3u);
        EXPECT_EQ(result.value().candidates[0].free_estimate, 100);
        EXPECT_EQ(result.value().candidates[2].free_estimate, 80);
        got = true;
      });
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_TRUE(got);
  EXPECT_EQ(dp.counters().queries, 1u);
  dp.stop();
}

TEST(DecisionPoint, ReportedSelectionsSteerLaterQueries) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  ReportSelectionRequest report;
  report.job = JobId(1);
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 40;
  report.est_runtime = sim::Duration::seconds(500);

  bool acked = false;
  f.rpc.call<ReportSelectionRequest, Ack>(dp.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [&](Result<Ack> a) { acked = a.ok(); });
  f.sim.run_until(sim::Time::from_seconds(10));
  ASSERT_TRUE(acked);
  EXPECT_EQ(dp.counters().selections, 1u);

  bool checked = false;
  f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      dp.node(), kGetSiteLoads, f.request(), sim::Duration::seconds(30),
      [&](Result<GetSiteLoadsReply> result) {
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().candidates[0].free_estimate, 60);  // 100-40
        checked = true;
      });
  f.sim.run_until(sim::Time::from_seconds(20));
  EXPECT_TRUE(checked);
  dp.stop();
}

TEST(DecisionPoint, ExchangePropagatesDispatchRecords) {
  Fixture f;
  DecisionPointOptions options = f.options();
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b});

  ReportSelectionRequest report;
  report.site = SiteId(1);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 25;
  report.est_runtime = sim::Duration::minutes(30);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // Before the first exchange tick, b knows nothing.
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_EQ(b.counters().records_applied, 0u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(1), f.sim.now()), 90);

  // After the 1-minute exchange interval, b has learned a's dispatch.
  f.sim.run_until(sim::Time::from_seconds(90));
  EXPECT_EQ(b.counters().records_applied, 1u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(1), f.sim.now()), 65);
  EXPECT_GE(a.counters().exchanges_sent, 1u);
  EXPECT_GE(b.counters().exchanges_received, 1u);
  a.stop();
  b.stop();
}

TEST(DecisionPoint, ExchangeRoundEncodesOnceRegardlessOfPeerCount) {
  // The state-exchange broadcast serializes its ExchangeMessage exactly
  // once per round and shares the frame across all N-1 mesh peers; the
  // wire layer's encode counter is the witness. Counters are process-wide,
  // so assert on deltas.
  Fixture f;
  DecisionPointOptions options = f.options();
  std::vector<std::unique_ptr<DecisionPoint>> dps;
  std::vector<DecisionPoint*> raw;
  for (std::uint64_t i = 0; i < 4; ++i) {
    dps.push_back(std::make_unique<DecisionPoint>(f.sim, f.transport, DpId(i),
                                                  f.catalog, f.tree, options));
    dps.back()->bootstrap(f.snapshots());
    raw.push_back(dps.back().get());
  }
  connect(raw);

  const net::wire::WireStats& stats = net::wire::wire_stats();
  const std::uint64_t encodes_before =
      stats.encodes(net::wire::MsgCategory::kStateExchange);
  const std::uint64_t bytes_before =
      stats.bytes(net::wire::MsgCategory::kStateExchange);

  // One exchange tick for each of the 4 decision points.
  f.sim.run_until(sim::Time::from_seconds(70));

  const std::uint64_t encodes =
      stats.encodes(net::wire::MsgCategory::kStateExchange) - encodes_before;
  // 4 DPs x 1 round = 4 serializations — NOT 4 DPs x 3 peers = 12.
  EXPECT_EQ(encodes, 4u);
  EXPECT_GT(stats.bytes(net::wire::MsgCategory::kStateExchange), bytes_before);
  // Every peer still got its copy: deliveries scale with the mesh degree.
  for (DecisionPoint* dp : raw) {
    EXPECT_EQ(dp->counters().exchanges_sent, 3u);
    EXPECT_EQ(dp->counters().exchanges_received, 3u);
    dp->stop();
  }
}

TEST(DecisionPoint, FloodingDedupsAcrossMesh) {
  Fixture f;
  DecisionPointOptions options = f.options();
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, options);
  for (DecisionPoint* dp : {&a, &b, &c}) dp->bootstrap(f.snapshots());
  connect({&a, &b, &c});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // Several exchange rounds: b and c each apply the record exactly once
  // even though the mesh relays it from multiple directions.
  f.sim.run_until(sim::Time::from_seconds(300));
  EXPECT_EQ(b.counters().records_applied, 1u);
  EXPECT_EQ(c.counters().records_applied, 1u);
  EXPECT_GT(b.counters().records_duplicate + c.counters().records_duplicate +
                a.counters().records_duplicate,
            0u);
  // The view is not double-counted.
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(0), f.sim.now()), 90);
  for (DecisionPoint* dp : {&a, &b, &c}) dp->stop();
}

TEST(DecisionPoint, LineOverlayRelaysAcrossHops) {
  Fixture f;
  DecisionPointOptions options = f.options();
  // A degree-1 spanning tree is a line: dp0 - dp1 - dp2 - dp3.
  options.overlay.kind = overlay::Kind::kTree;
  options.overlay.tree_degree = 1;
  std::vector<std::unique_ptr<DecisionPoint>> dps;
  for (std::uint64_t i = 0; i < 4; ++i) {
    dps.push_back(std::make_unique<DecisionPoint>(f.sim, f.transport, DpId(i),
                                                  f.catalog, f.tree, options));
    dps.back()->bootstrap(f.snapshots());
  }
  connect({dps[0].get(), dps[1].get(), dps[2].get(), dps[3].get()});

  ReportSelectionRequest report;
  report.site = SiteId(2);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 30;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(dps[0]->node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // One hop per exchange round along the line.
  f.sim.run_until(sim::Time::from_seconds(70));
  EXPECT_EQ(dps[1]->counters().records_applied, 1u);
  EXPECT_EQ(dps[2]->counters().records_applied, 0u);
  f.sim.run_until(sim::Time::from_seconds(130));
  EXPECT_EQ(dps[2]->counters().records_applied, 1u);
  EXPECT_EQ(dps[3]->counters().records_applied, 0u);
  f.sim.run_until(sim::Time::from_seconds(190));
  EXPECT_EQ(dps[3]->counters().records_applied, 1u);
  for (auto& dp : dps) dp->stop();
}

TEST(DecisionPoint, ForgedHopDepthIsAppliedButNotRelayed) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.overlay.kind = overlay::Kind::kTree;
  options.overlay.tree_degree = 1;  // a line: dp0 - dp1 - dp2
  std::vector<std::unique_ptr<DecisionPoint>> dps;
  for (std::uint64_t i = 0; i < 3; ++i) {
    dps.push_back(std::make_unique<DecisionPoint>(f.sim, f.transport, DpId(i),
                                                  f.catalog, f.tree, options));
    dps.back()->bootstrap(f.snapshots());
  }
  connect({dps[0].get(), dps[1].get(), dps[2].get()});

  // A stand-in claiming to be dp0 sends dp1 one record at the deepest
  // depth a u32 can hold: one more hop must not wrap it back to fresh.
  ExchangeMessage forged;
  forged.from = DpId(0);
  forged.exchange_round = 1;
  gruber::DispatchRecord record;
  record.origin = DpId(0);
  record.seq = 99;
  record.site = SiteId(2);
  record.vo = VoId(0);
  record.cpus = 5;
  record.when = sim::Time::from_seconds(30);
  record.est_runtime = sim::Duration::minutes(60);
  forged.dispatches.push_back(record);
  forged.hops = Hops{UINT32_MAX, {UINT32_MAX}};
  f.sim.schedule_at(sim::Time::from_seconds(30),
                    [&] { f.rpc.notify(dps[1]->node(), kExchange, forged); });

  f.sim.run_until(sim::Time::from_seconds(200));
  EXPECT_EQ(dps[1]->counters().records_applied, 1u);
  EXPECT_EQ(dps[1]->counters().overlay_relays_suppressed, 1u);
  EXPECT_TRUE(dps[2]->applied_keys().empty());
  for (auto& dp : dps) dp->stop();
}

TEST(DecisionPoint, RecordExpiredInFlightIsCountedLoggedAndRelayedButNotHeld) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.overlay.kind = overlay::Kind::kTree;
  options.overlay.tree_degree = 1;  // a line: dp0 - dp1 - dp2
  options.durability.enabled = true;
  options.durability.disk_seed = 42;
  std::vector<std::unique_ptr<DecisionPoint>> dps;
  for (std::uint64_t i = 0; i < 3; ++i) {
    dps.push_back(std::make_unique<DecisionPoint>(f.sim, f.transport, DpId(i),
                                                  f.catalog, f.tree, options));
    dps.back()->bootstrap(f.snapshots());
  }
  connect({dps[0].get(), dps[1].get(), dps[2].get()});
  DecisionPoint& middle = *dps[1];

  // A frame claiming to be from dp0 reaches dp1 at 30 s carrying a record
  // that ran from 0 to 10 s; the same frame arrives again at 35 s.
  ExchangeMessage frame;
  frame.from = DpId(0);
  frame.exchange_round = 1;
  gruber::DispatchRecord record;
  record.origin = DpId(0);
  record.seq = 99;
  record.site = SiteId(2);
  record.vo = VoId(0);
  record.cpus = 5;
  record.when = sim::Time::zero();
  record.est_runtime = sim::Duration::seconds(10);
  frame.dispatches.push_back(record);
  f.sim.schedule_at(sim::Time::from_seconds(30),
                    [&] { f.rpc.notify(middle.node(), kExchange, frame); });
  f.sim.run_until(sim::Time::from_seconds(34));
  EXPECT_EQ(middle.counters().records_applied, 1u);
  EXPECT_EQ(middle.counters().records_duplicate, 0u);
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(middle.applied_keys(), (std::vector<Key>{{0, 99}}));
  // The view alone skips it.
  EXPECT_EQ(middle.engine().view().dispatches_recorded(), 0u);
  EXPECT_TRUE(middle.engine().view().active_records(f.sim.now()).empty());

  f.sim.schedule_at(sim::Time::from_seconds(35),
                    [&] { f.rpc.notify(middle.node(), kExchange, frame); });
  f.sim.run_until(sim::Time::from_seconds(40));
  EXPECT_EQ(middle.counters().records_applied, 1u);
  EXPECT_EQ(middle.counters().records_duplicate, 1u);

  // It was logged once, as applied at 30 s...
  std::vector<WalDispatch> logged;
  durable::wal_scan(middle.disk()->log(),
                    [&](std::uint8_t type, std::span<const std::uint8_t> payload) {
                      if (WalRecordType(type) != WalRecordType::kDispatch) return;
                      WalDispatch dispatch;
                      ASSERT_TRUE(net::wire::decode(payload, dispatch));
                      logged.push_back(dispatch);
                    });
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].record, record);
  EXPECT_GE(logged[0].applied_at, sim::Time::from_seconds(30));

  // ...and rides dp1's next exchange frame to dp2 (one hop per round).
  f.sim.run_until(sim::Time::from_seconds(70));
  EXPECT_EQ(dps[2]->counters().records_applied, 1u);
  EXPECT_EQ(dps[2]->applied_keys(), (std::vector<Key>{{0, 99}}));
  EXPECT_EQ(dps[2]->engine().view().dispatches_recorded(), 0u);
  for (auto& dp : dps) dp->stop();
}

TEST(DecisionPoint, TreeSplitHorizonAndOneEncodePerExclusion) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.overlay.kind = overlay::Kind::kTree;
  options.overlay.tree_degree = 1;
  DecisionPoint parent(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint middle(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  DecisionPoint leaf(f.sim, f.transport, DpId(2), f.catalog, f.tree, options);
  for (DecisionPoint* dp : {&parent, &middle, &leaf}) dp->bootstrap(f.snapshots());
  connect({&parent, &middle, &leaf});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(parent.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});

  // First round: the root and the leaf have one target (one exclusion
  // each), the middle point two targets with distinct exclusions — its
  // parent and its child — so 1 + 2 + 1 encodes.
  const net::wire::WireStats& stats = net::wire::wire_stats();
  const std::uint64_t encodes_before =
      stats.encodes(net::wire::MsgCategory::kStateExchange);
  f.sim.run_until(sim::Time::from_seconds(70));
  EXPECT_EQ(stats.encodes(net::wire::MsgCategory::kStateExchange) - encodes_before,
            4u);
  EXPECT_EQ(parent.counters().exchanges_sent, 1u);
  EXPECT_EQ(middle.counters().exchanges_sent, 2u);
  EXPECT_EQ(leaf.counters().exchanges_sent, 1u);

  // The middle point relays the parent's record to the leaf in round two
  // but never back to the parent, and the leaf never echoes it to the
  // middle point: no duplicate arrives anywhere.
  f.sim.run_until(sim::Time::from_seconds(250));
  EXPECT_EQ(middle.counters().records_applied, 1u);
  EXPECT_EQ(leaf.counters().records_applied, 1u);
  EXPECT_EQ(parent.counters().records_duplicate, 0u);
  EXPECT_EQ(middle.counters().records_duplicate, 0u);
  for (DecisionPoint* dp : {&parent, &middle, &leaf}) dp->stop();
}

TEST(DecisionPoint, DisseminationNoneNeverExchanges) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.dissemination = Dissemination::kNone;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(60);
  f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                          sim::Duration::seconds(30),
                                          [](Result<Ack>) {});
  f.sim.run_until(sim::Time::from_seconds(600));
  EXPECT_EQ(a.counters().exchanges_sent, 0u);
  EXPECT_EQ(b.counters().records_applied, 0u);
  a.stop();
  b.stop();
}

TEST(DecisionPoint, RefusesSiteLoadQueriesForUnderOneCpu) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  int refused = 0;
  for (const std::int32_t cpus : {0, -3}) {
    GetSiteLoadsRequest request = f.request();
    request.cpus = cpus;
    f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        dp.node(), kGetSiteLoads, request, sim::Duration::seconds(30),
        [&](Result<GetSiteLoadsReply> result) { refused += !result.ok(); });
  }
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(dp.counters().queries, 0u);
  dp.stop();
}

TEST(DecisionPoint, RefusesSelectionReportsForUnderOneCpu) {
  Fixture f;
  DecisionPointOptions options = f.options();
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.est_runtime = sim::Duration::minutes(60);
  for (const std::int32_t cpus : {0, -40}) {
    report.cpus = cpus;
    f.rpc.call<ReportSelectionRequest, Ack>(a.node(), kReportSelection, report,
                                            sim::Duration::seconds(30),
                                            [](Result<Ack>) {});
  }
  // Several exchange rounds: nothing was recorded, so nothing floods.
  f.sim.run_until(sim::Time::from_seconds(300));
  EXPECT_EQ(a.counters().selections, 0u);
  EXPECT_EQ(a.engine().view().estimated_free(SiteId(0), f.sim.now()), 100);
  EXPECT_EQ(b.counters().records_applied, 0u);
  EXPECT_EQ(b.engine().view().estimated_free(SiteId(0), f.sim.now()), 100);
  a.stop();
  b.stop();
}

TEST(DecisionPoint, DropsLearnedRecordsForUnderOneCpu) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  ExchangeMessage message;
  message.from = DpId(7);
  message.exchange_round = 1;
  for (const std::int32_t cpus : {0, -5, 10}) {
    gruber::DispatchRecord r;
    r.origin = DpId(7);
    r.seq = message.dispatches.size() + 1;
    r.site = SiteId(0);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = cpus;
    r.est_runtime = sim::Duration::minutes(60);
    message.dispatches.push_back(r);
  }
  f.rpc.notify(dp.node(), kExchange, message);
  f.sim.run_until(sim::Time::from_seconds(30));
  EXPECT_EQ(dp.counters().exchanges_received, 1u);
  EXPECT_EQ(dp.counters().records_applied, 1u);
  EXPECT_EQ(dp.engine().view().estimated_free(SiteId(0), f.sim.now()), 90);
  dp.stop();
}

TEST(DecisionPoint, DedupsForgedExtremeSeqsExactlyOnce) {
  // Seqs come off the wire as arbitrary u64s: the flooding dedup set must
  // hold 0 and the top of the range as exactly as an ordinary seq.
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  constexpr std::uint64_t kMax = UINT64_MAX;
  ExchangeMessage message;
  message.from = DpId(7);
  message.exchange_round = 1;
  for (const std::uint64_t seq : {kMax - 1, std::uint64_t{0}, kMax,
                                  std::uint64_t{42}}) {
    gruber::DispatchRecord r;
    r.origin = DpId(7);
    r.seq = seq;
    r.site = SiteId(0);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = 1;
    r.est_runtime = sim::Duration::minutes(60);
    message.dispatches.push_back(r);
  }
  f.rpc.notify(dp.node(), kExchange, message);
  f.sim.run_until(sim::Time::from_seconds(10));
  EXPECT_EQ(dp.counters().records_applied, 4u);
  EXPECT_EQ(dp.counters().records_duplicate, 0u);
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(dp.applied_keys(),
            (std::vector<Key>{{7, 0}, {7, 42}, {7, kMax - 1}, {7, kMax}}));

  // The same frame again is all duplicates.
  f.rpc.notify(dp.node(), kExchange, message);
  f.sim.run_until(sim::Time::from_seconds(20));
  EXPECT_EQ(dp.counters().exchanges_received, 2u);
  EXPECT_EQ(dp.counters().records_applied, 4u);
  EXPECT_EQ(dp.counters().records_duplicate, 4u);
  EXPECT_EQ(dp.applied_keys().size(), 4u);
  dp.stop();
}

TEST(DecisionPoint, SaturationSignalsReachMonitor) {
  Fixture f;
  int provisions = 0;
  InfrastructureMonitor monitor(f.sim, f.transport,
                                [&](const SaturationSignal&) { ++provisions; });

  DecisionPointOptions options = f.options();
  options.profile.workers = 1;
  options.profile.base_overhead = sim::Duration::seconds(20);  // very slow
  options.saturation_response_s = 5.0;
  options.infrastructure_monitor = monitor.node();
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  dp.bootstrap(f.snapshots());

  // Hammer the decision point so its sojourn times blow past the bound.
  for (int i = 0; i < 20; ++i) {
    f.rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        dp.node(), kGetSiteLoads, f.request(), sim::Duration::minutes(20),
        [](Result<GetSiteLoadsReply>) {});
  }
  f.sim.run_until(sim::Time::from_seconds(600));
  // The monitor acts once it has heard kSignalsToAct signals.
  EXPECT_GE(dp.counters().saturation_signals, std::uint64_t(kSignalsToAct));
  EXPECT_GE(monitor.signals_received(), std::uint64_t(kSignalsToAct));
  EXPECT_GE(provisions, 1);
  dp.stop();
}

}  // namespace
}  // namespace digruber::digruber
