#include "digruber/net/container.hpp"

#include <gtest/gtest.h>

namespace digruber::net {
namespace {

ContainerProfile flat_profile(int workers, double service_ms,
                              std::size_t queue_limit = 4096) {
  ContainerProfile p;
  p.name = "flat";
  p.workers = workers;
  p.queue_limit = queue_limit;
  p.base_overhead = sim::Duration::millis(service_ms);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

Served noop() { return Served{}; }

TEST(Container, ServiceTimeComposition) {
  sim::Simulation sim;
  ContainerProfile p;
  p.base_overhead = sim::Duration::millis(10);
  p.auth_cost = sim::Duration::millis(100);
  p.parse_cost_per_kb = sim::Duration::millis(20);
  p.serialize_cost_per_kb = sim::Duration::millis(30);
  p.speed = 1.0;
  ServiceContainer c(sim, p);
  const double s =
      c.service_time(2048, 1024, sim::Duration::millis(40)).to_seconds();
  EXPECT_NEAR(s, 0.010 + 0.100 + 0.040 + 0.030 + 0.040, 1e-9);
}

TEST(Container, SpeedScalesServiceTime) {
  sim::Simulation sim;
  ContainerProfile p = flat_profile(1, 100);
  p.speed = 2.0;
  ServiceContainer c(sim, p);
  EXPECT_NEAR(c.service_time(0, 0, sim::Duration::zero()).to_seconds(), 0.05, 1e-9);
}

TEST(Container, SingleWorkerSerializesRequests) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 1000));
  std::vector<double> completed_at;
  for (int i = 0; i < 3; ++i) {
    c.submit(0, noop, [&](auto) { completed_at.push_back(sim.now().to_seconds()); });
  }
  sim.run();
  ASSERT_EQ(completed_at.size(), 3u);
  EXPECT_NEAR(completed_at[0], 1.0, 1e-6);
  EXPECT_NEAR(completed_at[1], 2.0, 1e-6);
  EXPECT_NEAR(completed_at[2], 3.0, 1e-6);
}

TEST(Container, WorkersRunInParallel) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(3, 1000));
  int done = 0;
  for (int i = 0; i < 3; ++i) c.submit(0, noop, [&](auto) { ++done; });
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-6);  // all three concurrently
}

TEST(Container, ThroughputBoundIsWorkersOverService) {
  // 2 workers x 0.5 s service = 4 requests/second sustained.
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(2, 500));
  int done = 0;
  for (int i = 0; i < 40; ++i) c.submit(0, noop, [&](auto) { ++done; });
  sim.run();
  EXPECT_EQ(done, 40);
  EXPECT_NEAR(sim.now().to_seconds(), 10.0, 1e-6);
}

TEST(Container, QueueLimitRefusesExcess) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 1000, /*queue_limit=*/2));
  int accepted = 0, completions = 0;
  for (int i = 0; i < 10; ++i) {
    if (c.submit(0, noop, [&](auto) { ++completions; })) ++accepted;
  }
  EXPECT_EQ(accepted, 3);  // 1 in service + 2 queued
  EXPECT_EQ(c.refused(), 7u);
  sim.run();
  EXPECT_EQ(completions, 3);
}

TEST(Container, SojournIncludesQueueWait) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 1000));
  c.submit(0, noop, [](auto) {});
  c.submit(0, noop, [](auto) {});
  sim.run();
  // First waits 0 + 1 s service; second waits 1 s + 1 s service.
  EXPECT_NEAR(c.sojourn_stats().mean(), 1.5, 1e-6);
  EXPECT_NEAR(c.sojourn_stats().max(), 2.0, 1e-6);
}

TEST(Container, HandlerReplyFedToCompletion) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 10));
  Buffer got;
  c.submit(
      100, [] { return Served{{9, 8, 7}, sim::Duration::millis(5)}; },
      [&](Buffer reply) { got = std::move(reply); });
  sim.run();
  EXPECT_EQ(got, Buffer({9, 8, 7}));
}

TEST(Container, HandlerCostExtendsService) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 100));
  c.submit(0, [] { return Served{{}, sim::Duration::millis(400)}; }, [](auto) {});
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 0.5, 1e-6);
}

TEST(Container, UtilizationTracksBusyFraction) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(2, 1000));
  for (int i = 0; i < 4; ++i) c.submit(0, noop, [](auto) {});
  sim.run();  // 4 x 1 s over 2 workers -> busy 2 s of wall, full utilization
  EXPECT_NEAR(c.utilization(sim.now()), 1.0, 1e-6);
  EXPECT_NEAR(c.utilization(sim::Time::from_seconds(4)), 0.5, 1e-6);
}

TEST(Container, GtProfilesOrdered) {
  // GT4 (the 3.9.4 prerelease) must be slower than GT3.2 per the paper.
  sim::Simulation sim;
  ServiceContainer gt3(sim, ContainerProfile::gt3());
  ServiceContainer gt4(sim, ContainerProfile::gt4());
  const auto cost3 = gt3.service_time(4096, 8192, sim::Duration::zero());
  const auto cost4 = gt4.service_time(4096, 8192, sim::Duration::zero());
  EXPECT_GT(cost4.to_seconds(), cost3.to_seconds() * 1.5);
}

/// Property sweep: completion count equals submissions for varying worker
/// pools, and makespan matches ceil(n/workers) * service.
class ContainerProperty : public ::testing::TestWithParam<int> {};

TEST_P(ContainerProperty, MakespanFormula) {
  const int workers = GetParam();
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(workers, 200));
  const int n = 17;
  int done = 0;
  for (int i = 0; i < n; ++i) c.submit(0, noop, [&](auto) { ++done; });
  sim.run();
  EXPECT_EQ(done, n);
  const double expected = std::ceil(double(n) / workers) * 0.2;
  EXPECT_NEAR(sim.now().to_seconds(), expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Workers, ContainerProperty, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Overload control (deadline-aware admission, typed rejections, priority
// classes, LIFO-under-overload). Overload control is opt-in; the first test
// pins the disabled path to the legacy semantics.

ContainerProfile overload_profile(int workers, double service_ms,
                                  std::size_t queue_limit) {
  ContainerProfile p = flat_profile(workers, service_ms, queue_limit);
  p.overload_control = true;
  return p;
}

TEST(ContainerOverload, DisabledSubmitExMatchesLegacy) {
  sim::Simulation sim;
  ServiceContainer c(sim, flat_profile(1, 1000, /*queue_limit=*/2));
  // An absurdly tight deadline and a shed callback: both must be ignored
  // with overload control off.
  bool shed_fired = false;
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    const Admission a = c.submit_ex(
        0, noop, [&](auto) { ++completions; }, Priority::kQuery,
        sim::Time::from_seconds(0.001),
        [&](sim::Duration) { shed_fired = true; });
    if (i < 3) {
      EXPECT_TRUE(a.accepted());
    } else {
      EXPECT_EQ(a.result, AdmitResult::kQueueFull);
      EXPECT_EQ(a.retry_after, sim::Duration::zero());  // no hint when legacy
    }
  }
  sim.run();
  EXPECT_EQ(completions, 3);  // doomed requests served anyway
  EXPECT_FALSE(shed_fired);
  EXPECT_EQ(c.refused(), 2u);
  EXPECT_EQ(c.shed_deadline(), 0u);
}

TEST(ContainerOverload, QueueFullRejectionIsTypedWithRetryAfter) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(1, 1000, /*queue_limit=*/2));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(c.submit_ex(0, noop, [](auto) {}, Priority::kQuery).accepted());
  }
  const Admission a = c.submit_ex(0, noop, [](auto) {}, Priority::kQuery);
  EXPECT_EQ(a.result, AdmitResult::kQueueFull);
  // The hint is the drain estimate clamped to [250 ms, 30 s]: 2 queued
  // + 1 arriving at 1 s each = 3 s.
  EXPECT_NEAR(a.retry_after.to_seconds(), 3.0, 1e-6);
  EXPECT_EQ(c.refused(), 1u);
  sim.run();
}

TEST(ContainerOverload, AdmissionShedsDoomedRequests) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(1, 1000, /*queue_limit=*/64));
  int completions = 0;
  // First request starts immediately and seeds the service-time EWMA (1 s);
  // three more stack up behind it.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kQuery)
            .accepted());
  }
  // Predicted sojourn is now ~4 s; a request due in 1 s is doomed.
  const Admission doomed =
      c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kQuery,
                  sim::Time::from_seconds(1));
  EXPECT_EQ(doomed.result, AdmitResult::kDeadline);
  EXPECT_GT(doomed.retry_after, sim::Duration::zero());
  // The same deadline is fine once it is actually reachable.
  const Admission viable =
      c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kQuery,
                  sim::Time::from_seconds(60));
  EXPECT_TRUE(viable.accepted());
  sim.run();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(c.shed_deadline(), 1u);
}

TEST(ContainerOverload, PickupShedFiresCallbackInsteadOfCompletion) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(1, 100, /*queue_limit=*/64));
  // A short first request seeds a 0.1 s EWMA, so admission predicts a 0.2 s
  // sojourn for the doomed request and lets it in...
  c.submit_ex(0, noop, [](auto) {}, Priority::kQuery);
  // ...but a 2 s handler sneaks in ahead of it, so by pickup time the
  // deadline has long passed.
  c.submit_ex(
      0, [] { return Served{{}, sim::Duration::seconds(2)}; }, [](auto) {},
      Priority::kQuery);
  bool completion_fired = false;
  sim::Duration retry_after = sim::Duration::zero();
  const Admission a = c.submit_ex(
      0, noop, [&](auto) { completion_fired = true; }, Priority::kQuery,
      sim::Time::from_seconds(0.5),
      [&](sim::Duration hint) { retry_after = hint; });
  ASSERT_TRUE(a.accepted());
  sim.run();
  EXPECT_FALSE(completion_fired);
  EXPECT_GT(retry_after, sim::Duration::zero());
  EXPECT_EQ(c.shed_deadline(), 1u);
  EXPECT_EQ(c.completed(), 2u);
}

TEST(ContainerOverload, LifoPickupAboveThresholdFifoBelow) {
  // queue_limit 8 x the 0.5 LIFO fraction = LIFO while depth >= 4.
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(1, 1000, /*queue_limit=*/8));
  std::vector<int> order;
  auto enqueue = [&](int id) {
    ASSERT_TRUE(c.submit_ex(0, noop, [&order, id](auto) { order.push_back(id); },
                            Priority::kQuery)
                    .accepted());
  };
  for (int i = 0; i < 6; ++i) enqueue(i);  // 0 in service, 1..5 queued
  sim.run();
  // Depth at each pickup: 5,4 -> LIFO (newest first), then 3,2,1 -> FIFO.
  EXPECT_EQ(order, (std::vector<int>{0, 5, 4, 1, 2, 3}));
  EXPECT_EQ(c.lifo_pickups(), 2u);
}

TEST(ContainerOverload, ControlClassBypassesLimitAndDrainsFirst) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(1, 1000, /*queue_limit=*/1));
  std::vector<std::string> order;
  auto tag = [&order](std::string label) {
    return [&order, label = std::move(label)](net::Buffer) {
      order.push_back(label);
    };
  };
  ASSERT_TRUE(c.submit_ex(0, noop, tag("q0"), Priority::kQuery).accepted());
  ASSERT_TRUE(c.submit_ex(0, noop, tag("q1"), Priority::kQuery).accepted());
  // Query queue is at its limit now — queries bounce, control does not.
  EXPECT_EQ(c.submit_ex(0, noop, tag("q2"), Priority::kQuery).result,
            AdmitResult::kQueueFull);
  ASSERT_TRUE(c.submit_ex(0, noop, tag("c0"), Priority::kControl).accepted());
  ASSERT_TRUE(c.submit_ex(0, noop, tag("c1"), Priority::kControl).accepted());
  sim.run();
  // Control drains before the queued query, in FIFO order.
  EXPECT_EQ(order, (std::vector<std::string>{"q0", "c0", "c1", "q1"}));
}

TEST(ContainerOverload, AbortAccountsQueuedControlAndBusy) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(2, 1000, /*queue_limit=*/16));
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kQuery);
  }
  c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kControl);
  // 2 busy + 3 queued queries + 1 queued control.
  c.abort_all();
  EXPECT_EQ(c.aborted(), 6u);
  EXPECT_EQ(c.queue_depth(), 0u);
  EXPECT_EQ(c.busy_workers(), 0);
  sim.run();
  EXPECT_EQ(completions, 0);  // orphaned work never completes
  // Conservation: submitted == completed + refused + shed + aborted.
  EXPECT_EQ(c.submitted(),
            c.completed() + c.refused() + c.shed_deadline() + c.aborted());
  // The container still serves post-crash work.
  c.submit_ex(0, noop, [&](auto) { ++completions; }, Priority::kQuery);
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(c.completed(), 1u);
}

TEST(ContainerOverload, EstSojournZeroWhileWorkerFree) {
  sim::Simulation sim;
  ServiceContainer c(sim, overload_profile(2, 1000, /*queue_limit=*/16));
  EXPECT_EQ(c.est_sojourn(), sim::Duration::zero());
  c.submit_ex(0, noop, [](auto) {}, Priority::kQuery);
  EXPECT_EQ(c.est_sojourn(), sim::Duration::zero());  // second worker free
  c.submit_ex(0, noop, [](auto) {}, Priority::kQuery);
  EXPECT_GT(c.est_sojourn(), sim::Duration::zero());  // pool saturated
  sim.run();
}

}  // namespace
}  // namespace digruber::net
