// The one anti-entropy pull (kPull): every reason applies records by the
// same rule, the server refuses what it must not answer, a pulled record
// relays on its first exchange copy, and every pull span ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "digruber/digruber/decision_point.hpp"
#include "digruber/net/sim_transport.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::digruber {

// Names the parameter of the PullRule cases in test output.
void PrintTo(PullReason reason, std::ostream* os) {
  *os << (reason == PullReason::kCatchUp ? "catch-up" : "delta");
}

namespace {

sim::Time at(double seconds) { return sim::Time::from_seconds(seconds); }

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

  Fixture() : transport(sim, net::WanModel(net::WanParams{}, 1)), rpc(sim, transport) {
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
};

gruber::DispatchRecord record(std::uint64_t origin, std::uint64_t seq,
                              std::uint64_t site, std::int32_t cpus,
                              double when_s, double runtime_s) {
  gruber::DispatchRecord r;
  r.origin = DpId(origin);
  r.seq = seq;
  r.site = SiteId(site);
  r.vo = VoId(0);
  r.group = GroupId(0);
  r.user = UserId(0);
  r.cpus = cpus;
  r.when = at(when_s);
  r.est_runtime = sim::Duration::seconds(runtime_s);
  return r;
}

bool holds_key(const DecisionPoint& dp, std::uint64_t origin, std::uint64_t seq) {
  const auto keys = dp.applied_keys();
  return std::binary_search(keys.begin(), keys.end(), std::make_pair(origin, seq));
}

class PullRule : public ::testing::TestWithParam<PullReason> {};

TEST_P(PullRule, SkipsExpiredResolvesTwinsAndCountsDoubleCommits) {
  Fixture f;
  DecisionPointOptions options = f.options();
  options.partition.enabled = true;  // digests drive the delta pull
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  dp.bootstrap(f.snapshots());

  // A stand-in peer (dp9) whose pull replies carry crafted records.
  net::RpcServer peer(f.sim, f.transport, fast_profile());
  std::vector<PullReason> asked;
  peer.register_typed<PullRequest, PullReply>(
      kPull, [&](const PullRequest& request, NodeId) {
        asked.push_back(request.reason);
        PullReply reply;
        reply.from = DpId(9);
        reply.records = {
            record(5, 10, 0, 7, 1, 1),      // expired long before the pull
            record(5, 1, 0, 30, 10, 3600),  // twin holding more CPUs: wins
            record(5, 2, 1, 5, 20, 3600),   // later twin holding fewer: loses
            record(5, 3, 1, 8, 30, 3600),   // equal CPUs, later: wins
            record(7, 1, 2, 4, 40, 3600),   // dp6 admitted the same work
        };
        return std::make_pair(reply, sim::Duration::millis(1));
      });
  dp.set_overlay_view({{DpId(9), peer.node()}});

  // The incumbents arrive by exchange.
  ExchangeMessage first;
  first.from = DpId(9);
  first.exchange_round = 1;
  first.dispatches = {record(5, 1, 0, 10, 10, 3600), record(5, 2, 1, 20, 10, 3600),
                      record(5, 3, 1, 8, 25, 3600), record(6, 1, 2, 4, 40, 3600)};
  // The next frame asks for the pull: a round gap for a catch-up, a
  // mismatching digest for a delta pull.
  ExchangeMessage second;
  second.from = DpId(9);
  second.exchange_round = 2;
  if (GetParam() == PullReason::kCatchUp) {
    second.exchange_round = 3;
  } else {
    second.load.emplace().node = peer.node().value();
    gruber::ViewDigest& digest = second.digest.emplace();
    digest.base_hash = 1;
    gruber::VoDigest vo;
    vo.vo = VoId(0);
    vo.hash = 1;
    digest.vos.push_back(vo);
  }
  f.sim.schedule_at(at(50), [&] { f.rpc.notify(dp.node(), kExchange, first); });
  f.sim.schedule_at(at(55), [&] { f.rpc.notify(dp.node(), kExchange, second); });
  f.sim.run_until(at(58));

  ASSERT_EQ(asked, std::vector<PullReason>{GetParam()});
  const sim::Time now = f.sim.now();
  const gruber::GridView& view = dp.engine().view();
  // An expired record is neither applied nor registered.
  EXPECT_FALSE(holds_key(dp, 5, 10));
  // Severity first: 30 CPUs replace 10 on site 0, 5 lose to 20 on site 1.
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 70);
  EXPECT_EQ(view.estimated_free(SiteId(1), now), 90 - 20 - 8);
  // Then epoch: of two equal twins the later one stays.
  for (const gruber::DispatchRecord& r : view.active_records(now)) {
    if (r.origin == DpId(5) && r.seq == 3) {
      EXPECT_EQ(r.when, at(30));
    }
  }
  // A double commit keeps both records and is counted.
  EXPECT_EQ(view.estimated_free(SiteId(2), now), 80 - 4 - 4);
  EXPECT_EQ(dp.counters().delta_conflicts, 3u);
  EXPECT_EQ(dp.counters().double_commits, 1u);
  // Applied: the two winning twins and the second origin's record,
  // counted under the pull's reason.
  EXPECT_EQ(GetParam() == PullReason::kCatchUp
                ? dp.counters().pull(PullReason::kCatchUp).applied
                : dp.counters().pull(PullReason::kDelta).applied,
            3u);
  dp.stop();
}

INSTANTIATE_TEST_SUITE_P(Reasons, PullRule,
                         ::testing::Values(PullReason::kCatchUp, PullReason::kDelta),
                         [](const ::testing::TestParamInfo<PullReason>& info) {
                           return info.param == PullReason::kCatchUp ? "CatchUp"
                                                                     : "Delta";
                         });

TEST(Pull, RefusedRequestsGetNoReplyAndMoveNoCounter) {
  Fixture f;
  // A plain mesh point: no membership table, no digests.
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());
  // A membership point that is still joining: its only seed is the plain
  // point, which never answers a join, so it never starts serving.
  DecisionPointOptions joining_options = f.options();
  joining_options.membership.enabled = true;
  DecisionPoint joiner(f.sim, f.transport, DpId(1), f.catalog, f.tree,
                       joining_options);
  joiner.join({dp.node()});

  int answered = 0;
  int refused = 0;
  auto pull = [&](NodeId target, PullReason reason) {
    PullRequest request;
    request.from = DpId(3);
    request.reason = reason;
    request.vos = {VoId(0), VoId(1)};
    f.rpc.call<PullRequest, PullReply>(target, kPull, request,
                                       sim::Duration::seconds(5),
                                       [&](Result<PullReply> result) {
                                         if (!result.ok()) {
                                           ++refused;
                                           return;
                                         }
                                         ++answered;
                                         // A view that never digests sends
                                         // no digest.
                                         EXPECT_TRUE(result.value().digest ==
                                                     gruber::ViewDigest{});
                                         EXPECT_EQ(result.value().digest.as_of,
                                                   sim::Time::zero());
                                       });
  };
  // Reasons past the last one, a join to a point without a membership
  // table and a join to a point that is not serving are dropped like an
  // undecodable body.
  pull(dp.node(), PullReason(kPullReasons));
  pull(dp.node(), PullReason(0xff));
  pull(dp.node(), PullReason::kJoin);
  pull(joiner.node(), PullReason::kJoin);
  f.sim.run_until(at(30));
  EXPECT_EQ(refused, 4);
  EXPECT_EQ(answered, 0);
  EXPECT_EQ(dp.counters().pull(PullReason::kCatchUp).served +
                dp.counters().pull(PullReason::kJoin).served +
                dp.counters().pull(PullReason::kDelta).served,
            0u);
  EXPECT_FALSE(joiner.serving());
  EXPECT_EQ(joiner.counters().pull(PullReason::kJoin).served, 0u);

  // A catch-up is served.
  pull(dp.node(), PullReason::kCatchUp);
  f.sim.run_until(at(40));
  EXPECT_EQ(answered, 1);
  EXPECT_EQ(dp.counters().pull(PullReason::kCatchUp).served, 1u);
  dp.stop();
  joiner.stop();
}

TEST(Pull, PulledRecordRelaysOnItsFirstExchangeCopy) {
  // A degree-1 line dp0 - dp1 - dp2. dp1 restarts before dp0's first round
  // and learns dp0's record from its catch-up; dp0's exchange copy must
  // still travel on to dp2, which only dp1 feeds. The record expires long
  // before it could enter the settled digest window, so no delta pull
  // would ever repair dp2.
  Fixture f;
  DecisionPointOptions options = f.options();
  options.overlay.kind = overlay::Kind::kTree;
  options.overlay.tree_degree = 1;
  DecisionPoint dp0(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint dp1(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  DecisionPoint dp2(f.sim, f.transport, DpId(2), f.catalog, f.tree, options);
  for (DecisionPoint* dp : {&dp0, &dp1, &dp2}) dp->bootstrap(f.snapshots());
  connect({&dp0, &dp1, &dp2});

  ReportSelectionRequest report;
  report.site = SiteId(0);
  report.vo = VoId(0);
  report.group = GroupId(0);
  report.user = UserId(0);
  report.cpus = 10;
  report.est_runtime = sim::Duration::minutes(4);
  f.sim.schedule_at(at(1), [&] {
    f.rpc.call<ReportSelectionRequest, Ack>(dp0.node(), kReportSelection, report,
                                            sim::Duration::seconds(30),
                                            [](Result<Ack>) {});
  });
  f.sim.schedule_at(at(2), [&] { dp1.crash(); });
  f.sim.schedule_at(at(3), [&] { dp1.restart(f.snapshots()); });
  f.sim.run_until(at(200));

  EXPECT_EQ(dp1.counters().pull(PullReason::kCatchUp).applied, 1u);
  EXPECT_TRUE(holds_key(dp2, 0, 1));
  EXPECT_EQ(dp2.engine().view().estimated_free(SiteId(0), f.sim.now()), 90);
  for (DecisionPoint* dp : {&dp0, &dp1, &dp2}) dp->stop();
}

TEST(Pull, PullToPartitionedPeerEndsItsSpan) {
  // A joiner whose first seed is partitioned away: the join pull to it
  // times out, the one to the second seed lands, and the catch-up that
  // follows pulls from both seeds again. Every pull span ends, the failed
  // ones with a0 = -1.
  Fixture f;
  trace::Tracer tracer;
  tracer.bind_clock(&f.sim);
  trace::TraceSession session(tracer);
  DecisionPointOptions options = f.options();
  options.exchange_interval = sim::Duration::seconds(10);
  options.membership.enabled = true;
  options.membership.join_snapshot_timeout = sim::Duration::seconds(5);
  options.membership.join_retry_backoff = sim::Duration::seconds(2);
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, options);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, options);
  DecisionPoint c(f.sim, f.transport, DpId(2), f.catalog, f.tree, options);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  const std::vector<MemberInfo> members{
      {a.id(), a.node().value(), MemberState::kAlive, 0},
      {b.id(), b.node().value(), MemberState::kAlive, 0}};
  a.seed_membership(members);
  b.seed_membership(members);

  f.sim.schedule_at(at(5), [&] {
    f.transport.set_island(a.node(), 1);
    f.transport.set_island(a.peer_node(), 1);
  });
  f.sim.schedule_at(at(10), [&] { c.join({a.node(), b.node()}); });
  f.sim.run_until(at(60));
  ASSERT_TRUE(c.serving());

  trace::Tracer::Filter filter;
  filter.category = trace::Category::kDp;
  filter.actor = c.id().value();
  filter.name = "dp.pull";
  std::vector<trace::TraceEvent> begins;
  std::vector<trace::TraceEvent> ends;
  for (const trace::TraceEvent& e : tracer.query(filter)) {
    (e.kind == trace::EventKind::kBegin ? begins : ends).push_back(e);
  }
  ASSERT_EQ(begins.size(), 4u);  // join a, join b, catch-up a and b
  ASSERT_EQ(ends.size(), begins.size());
  EXPECT_EQ(begins[0].a0, std::int64_t(a.node().value()));
  EXPECT_EQ(begins[0].a1, std::int64_t(PullReason::kJoin));
  EXPECT_EQ(ends[0].a0, -1);
  const auto failed = std::count_if(ends.begin(), ends.end(),
                                    [](const trace::TraceEvent& e) { return e.a0 == -1; });
  EXPECT_EQ(failed, 2);  // both pulls to the partitioned seed

  filter.actor = b.id().value();
  filter.name = "dp.pull_served";
  EXPECT_EQ(tracer.query(filter).size(), 2u);
  for (DecisionPoint* dp : {&a, &b, &c}) dp->stop();
}

}  // namespace
}  // namespace digruber::digruber
