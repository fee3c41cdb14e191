// Overload-control behavior across the stack: typed overload NACKs on the
// wire, deadline propagation in the v2 frame header, the client's adaptive
// retry (token budget, retry_after honoring), and power-of-two-choices
// routing away from a saturated decision point.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
#include "digruber/net/rpc.hpp"
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

/// One worker, `service_s` per request, a tiny queue, overload control on:
/// saturates (and starts NACKing) after two requests.
net::ContainerProfile saturated_profile(double service_s,
                                        std::size_t queue_limit = 1) {
  net::ContainerProfile p = fast_profile();
  p.workers = 1;
  p.queue_limit = queue_limit;
  p.base_overhead = sim::Duration::seconds(service_s);
  p.overload_control = true;
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

  DecisionPointOptions dp_options(net::ContainerProfile profile) {
    DecisionPointOptions o;
    o.profile = std::move(profile);
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

  GetSiteLoadsRequest query() {
    GetSiteLoadsRequest r;
    r.job = JobId(1);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = 1;
    return r;
  }

  std::unique_ptr<DiGruberClient> client(std::vector<NodeId> dps,
                                         ClientOptions options) {
    return std::make_unique<DiGruberClient>(
        sim, transport, ClientId(0), std::move(dps), sites(),
        gruber::make_selector("top-k", sim.rng().fork()), sim.rng().fork(),
        options);
  }
};

TEST(Overload, ErrorStringRoundtripsRetryAfter) {
  net::wire::OverloadNack nack;
  nack.reason = 1;
  nack.retry_after_us = 2500000;
  const std::string error = net::make_overload_error(nack);
  sim::Duration retry_after = sim::Duration::zero();
  std::uint8_t reason = 0;
  ASSERT_TRUE(net::parse_overload_error(error, retry_after, reason));
  EXPECT_EQ(retry_after, sim::Duration::micros(2500000));

  // Non-overload errors (including the legacy refusal) do not parse.
  EXPECT_FALSE(net::parse_overload_error("refused", retry_after, reason));
  EXPECT_FALSE(net::parse_overload_error("timeout", retry_after, reason));
  EXPECT_FALSE(net::parse_overload_error("", retry_after, reason));
}

TEST(Overload, QueueFullNackIsTypedWithRetryAfter) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                  f.dp_options(saturated_profile(10.0)));
  a.bootstrap(f.snapshots());

  net::RpcClient rpc(f.sim, f.transport);
  int served = 0, overloaded = 0, other = 0;
  sim::Duration last_retry_after = sim::Duration::zero();
  for (int i = 0; i < 4; ++i) {
    rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        a.node(), kGetSiteLoads, f.query(), sim::Duration::seconds(90),
        [&](Result<GetSiteLoadsReply> result) {
          if (result.ok()) {
            ++served;
            return;
          }
          sim::Duration retry_after = sim::Duration::zero();
          std::uint8_t reason = 0;
          if (net::parse_overload_error(result.error(), retry_after, reason)) {
            ++overloaded;
            last_retry_after = retry_after;
          } else {
            ++other;
          }
        });
  }
  f.sim.run_until(sim::Time::from_seconds(60));
  // 1 in service + 1 queued; the other two bounce with a typed NACK.
  EXPECT_EQ(served, 2);
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(rpc.calls_overloaded(), 2u);
  EXPECT_GT(last_retry_after, sim::Duration::zero());
  EXPECT_EQ(a.server().container().refused(), 2u);
  a.stop();
}

TEST(Overload, WireDeadlineShedsDoomedRequestAtAdmission) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                  f.dp_options(saturated_profile(10.0, /*queue_limit=*/64)));
  a.bootstrap(f.snapshots());

  net::RpcClient rpc(f.sim, f.transport);
  // First request seeds a ~10 s service estimate and occupies the worker.
  bool first_ok = false;
  rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
      a.node(), kGetSiteLoads, f.query(), sim::Duration::seconds(90),
      [&](Result<GetSiteLoadsReply> result) { first_ok = result.ok(); });

  // Issued one second later with a 2 s deadline: predicted sojourn (~10 s)
  // already overruns it, so admission sheds instead of queueing.
  bool doomed_overloaded = false;
  f.sim.schedule_at(sim::Time::from_seconds(1), [&] {
    net::RpcClient::CallOptions options;
    options.deadline = f.sim.now() + sim::Duration::seconds(2);
    rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        a.node(), kGetSiteLoads, f.query(), sim::Duration::seconds(90), options,
        [&](Result<GetSiteLoadsReply> result) {
          sim::Duration retry_after = sim::Duration::zero();
          std::uint8_t reason = 0;
          doomed_overloaded = !result.ok() && net::parse_overload_error(
                                                  result.error(), retry_after, reason);
        });
  });

  f.sim.run_until(sim::Time::from_seconds(60));
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(doomed_overloaded);
  EXPECT_EQ(a.server().container().shed_deadline(), 1u);
  EXPECT_EQ(a.counters().queries, 1u);
  a.stop();
}

TEST(Overload, EmptyRetryBudgetDegradesToFallbackWithoutTrippingBreaker) {
  Fixture f;
  // A point that answers every query with a typed queue-full NACK and no
  // retry_after hint, so each retry waits only the client's own backoff.
  net::RpcServer saturated(f.sim, f.transport, fast_profile());
  saturated.register_method(kGetSiteLoads, [](auto, NodeId) { return net::Served{}; });
  saturated.set_refusal_gate([](std::uint16_t, net::wire::OverloadNack& nack) {
    nack.reason = net::kNackQueueFull;
    return true;
  });

  ClientOptions options;
  options.overload_aware = true;
  options.attempt_timeout = sim::Duration::seconds(10);
  auto client = f.client({saturated.node()}, options);

  // Back-to-back queries: every retry spends a token, and each query
  // refills only kRetryBudgetRefill, so the bucket soon runs dry and the
  // queries after that degrade at their first NACK.
  constexpr int kQueries = 20;
  int issued = 0;
  std::function<void()> next = [&] {
    ++issued;
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      EXPECT_FALSE(outcome.handled_by_gruber);
      if (issued < kQueries) next();
    });
  };
  f.sim.schedule_at(sim::Time::from_seconds(1), [&] { next(); });
  f.sim.run_until(sim::Time::from_seconds(1000));

  const ClientCounters& c = client->counters();
  ASSERT_EQ(issued, kQueries);
  EXPECT_GE(c.retries_budget_denied, 1u);
  EXPECT_EQ(c.fallbacks, std::uint64_t(kQueries));
  // Every attempt was NACKed; retries never outran the bucket.
  EXPECT_EQ(c.overload_nacks, std::uint64_t(kQueries) + c.failovers);
  EXPECT_LE(double(c.failovers), kRetryBudgetCapacity + kRetryBudgetRefill * kQueries);
  // The NACKs prove the decision point is alive: no breaker trip.
  EXPECT_EQ(c.breaker_trips, 0u);
}

TEST(Overload, RetryAfterHintDelaysRetryUntilQueueDrains) {
  Fixture f;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                  f.dp_options(saturated_profile(10.0)));
  a.bootstrap(f.snapshots());

  // Two raw requests hold the worker + queue slot until t=20 s.
  net::RpcClient rpc(f.sim, f.transport);
  for (int i = 0; i < 2; ++i) {
    rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        a.node(), kGetSiteLoads, f.query(), sim::Duration::seconds(300),
        [](Result<GetSiteLoadsReply>) {});
  }

  ClientOptions options;
  options.overload_aware = true;
  options.attempt_timeout = sim::Duration::seconds(30);
  auto client = f.client({a.node()}, options);

  bool done = false;
  f.sim.schedule_at(sim::Time::from_seconds(1), [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      done = true;
      // The NACK's retry_after is the drain estimate: two ~10 s requests
      // ahead, so ~20 s. The retry lands after it, when the backlog has
      // drained, and is served normally.
      EXPECT_TRUE(outcome.handled_by_gruber);
      EXPECT_GT(outcome.response.to_seconds(), 20.0);
    });
  });
  f.sim.run_until(sim::Time::from_seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(client->counters().overload_nacks, 1u);
  EXPECT_EQ(client->counters().retry_after_honored, 1u);
  EXPECT_EQ(client->counters().fallbacks, 0u);
  a.stop();
}

TEST(Overload, PowerOfTwoChoicesRoutesAroundSaturatedDp) {
  Fixture f;
  // a is wedged for the whole test (200 s service, full queue); b is fast.
  // Overload control on both also makes them advertise their load.
  net::ContainerProfile fast = fast_profile();
  fast.overload_control = true;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                  f.dp_options(saturated_profile(200.0)));
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, f.dp_options(fast));
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b});

  net::RpcClient rpc(f.sim, f.transport);
  for (int i = 0; i < 2; ++i) {
    rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        a.node(), kGetSiteLoads, f.query(), sim::Duration::seconds(500),
        [](Result<GetSiteLoadsReply>) {});
  }

  ClientOptions options;
  options.overload_aware = true;
  options.attempt_timeout = sim::Duration::seconds(10);
  auto client = f.client({a.node(), b.node()}, options);

  int handled = 0;
  int issued = 0;
  std::function<void()> next = [&] {
    client->schedule(f.job(), [&](grid::Job, QueryOutcome outcome) {
      if (outcome.handled_by_gruber) ++handled;
      if (++issued < 5) next();
    });
  };
  f.sim.schedule_at(sim::Time::from_seconds(1), [&] { next(); });
  f.sim.run_until(sim::Time::from_seconds(150));

  // Every query lands: either p2c picked b outright, or a's NACK penalized
  // its score and the (budgeted) retry went to b.
  EXPECT_EQ(issued, 5);
  EXPECT_EQ(handled, 5);
  EXPECT_GE(client->counters().p2c_decisions, 5u);
  EXPECT_EQ(b.counters().queries, 5u);
  // a served only the wedge's own first raw request, none of the client's.
  EXPECT_EQ(a.counters().queries, 1u);
  EXPECT_EQ(client->counters().fallbacks, 0u);
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace digruber::digruber
