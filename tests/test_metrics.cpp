#include "digruber/metrics/metrics.hpp"

#include <gtest/gtest.h>

namespace digruber::metrics {
namespace {

RequestSample handled_sample(double response, double qtime, double accuracy,
                             double cpu_seconds) {
  RequestSample s;
  s.handled = true;
  s.response_s = response;
  s.dispatched = true;
  s.accuracy = accuracy;
  s.started = true;
  s.qtime_s = qtime;
  s.cpu_seconds_in_window = cpu_seconds;
  return s;
}

RequestSample fallback_sample(double response) {
  RequestSample s;
  s.handled = false;
  s.response_s = response;
  s.dispatched = true;
  s.accuracy = 0.1;
  s.started = true;
  s.qtime_s = 100.0;
  s.cpu_seconds_in_window = 50.0;
  return s;
}

TEST(Metrics, SlicesSeparateHandledFromFallback) {
  MetricsAccumulator acc(/*window_s=*/3600, /*total_cpus=*/1000);
  acc.add(handled_sample(5, 0, 1.0, 600));
  acc.add(handled_sample(7, 10, 0.9, 600));
  acc.add(fallback_sample(60));

  const MetricValues handled = acc.compute(Slice::kHandled);
  EXPECT_EQ(handled.requests, 2u);
  EXPECT_NEAR(handled.request_share, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(handled.response_s, 6.0);
  EXPECT_DOUBLE_EQ(handled.qtime_s, 5.0);
  EXPECT_DOUBLE_EQ(handled.norm_qtime_s, 2.5);
  EXPECT_NEAR(handled.accuracy, 0.95, 1e-9);
  EXPECT_NEAR(handled.utilization, 1200.0 / (3600.0 * 1000.0), 1e-12);

  const MetricValues fallback = acc.compute(Slice::kNotHandled);
  EXPECT_EQ(fallback.requests, 1u);
  EXPECT_DOUBLE_EQ(fallback.response_s, 60.0);
  EXPECT_DOUBLE_EQ(fallback.qtime_s, 100.0);

  const MetricValues all = acc.compute(Slice::kAll);
  EXPECT_EQ(all.requests, 3u);
  EXPECT_DOUBLE_EQ(all.request_share, 1.0);
  EXPECT_NEAR(all.response_s, 24.0, 1e-9);
  EXPECT_DOUBLE_EQ(all.throughput_qps, 3.0 / 3600.0);
}

TEST(Metrics, EmptySlicesAreZero) {
  MetricsAccumulator acc(3600, 1000);
  acc.add(handled_sample(5, 0, 1.0, 0));
  const MetricValues none = acc.compute(Slice::kNotHandled);
  EXPECT_EQ(none.requests, 0u);
  EXPECT_DOUBLE_EQ(none.response_s, 0.0);
  EXPECT_DOUBLE_EQ(none.accuracy, 0.0);
}

TEST(Metrics, UndispatchedExcludedFromAccuracyAndQtime) {
  MetricsAccumulator acc(100, 10);
  RequestSample s;
  s.handled = true;
  s.response_s = 2.0;
  s.dispatched = false;  // query answered but job never placed
  acc.add(s);
  acc.add(handled_sample(4.0, 6.0, 0.8, 10));
  const MetricValues handled = acc.compute(Slice::kHandled);
  EXPECT_EQ(handled.requests, 2u);
  EXPECT_DOUBLE_EQ(handled.response_s, 3.0);
  EXPECT_DOUBLE_EQ(handled.accuracy, 0.8);  // only the dispatched one
  EXPECT_DOUBLE_EQ(handled.qtime_s, 6.0);
}

TEST(CpuSecondsInWindow, OverlapCases) {
  // Fully inside.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(10, 20, 2, 100), 20.0);
  // Truncated by the window end.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(90, 120, 1, 100), 10.0);
  // Still running (completed < 0 means unknown).
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(50, -1, 3, 100), 150.0);
  // Started after the window.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(150, 200, 1, 100), 0.0);
  // Never started.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(-1, 10, 1, 100), 0.0);
  // Degenerate zero-length run.
  EXPECT_DOUBLE_EQ(cpu_seconds_in_window(30, 30, 4, 100), 0.0);
}

TEST(Metrics, NormQtimeDividesByRequests) {
  MetricsAccumulator acc(3600, 100);
  for (int i = 0; i < 10; ++i) acc.add(handled_sample(1, 50, 1.0, 0));
  const MetricValues v = acc.compute(Slice::kHandled);
  EXPECT_DOUBLE_EQ(v.qtime_s, 50.0);
  EXPECT_DOUBLE_EQ(v.norm_qtime_s, 5.0);
}

}  // namespace
}  // namespace digruber::metrics

namespace digruber::metrics {
namespace {

TEST(Fairness, JainIndexExtremes) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({3.0, 3.0, 3.0, 3.0}), 1.0);
  // One consumer takes everything among n=4 -> 1/4.
  EXPECT_DOUBLE_EQ(jain_index({8.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);  // nothing delivered
}

TEST(Fairness, JainIndexIsScaleInvariant) {
  const double a = jain_index({1.0, 2.0, 3.0});
  const double b = jain_index({10.0, 20.0, 30.0});
  EXPECT_NEAR(a, b, 1e-12);
  EXPECT_GT(a, 0.33);
  EXPECT_LT(a, 1.0);
}

TEST(Fairness, ReportSharesAndBounds) {
  const FairnessReport r = fairness({10.0, 30.0, 60.0});
  EXPECT_EQ(r.consumers, 3u);
  EXPECT_DOUBLE_EQ(r.min_share, 0.1);
  EXPECT_DOUBLE_EQ(r.max_share, 0.6);
  EXPECT_GT(r.jain, 1.0 / 3.0);
  EXPECT_LT(r.jain, 1.0);

  const FairnessReport empty = fairness({});
  EXPECT_DOUBLE_EQ(empty.jain, 1.0);
  EXPECT_EQ(empty.consumers, 0u);
}

}  // namespace
}  // namespace digruber::metrics
