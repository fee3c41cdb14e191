#include "digruber/metrics/metrics.hpp"

#include <algorithm>

namespace digruber::metrics {

MetricsAccumulator::MetricsAccumulator(double window_s, std::int64_t total_cpus)
    : window_s_(window_s), total_cpus_(total_cpus) {}

void MetricsAccumulator::add(const RequestSample& sample) {
  samples_.push_back(sample);
}

MetricValues MetricsAccumulator::compute(Slice slice) const {
  MetricValues out;
  double response_sum = 0.0;
  trace::LogHistogram response_hist;
  double qtime_sum = 0.0;
  std::uint64_t started = 0;
  double accuracy_sum = 0.0;
  std::uint64_t dispatched = 0;
  double cpu_seconds = 0.0;

  for (const RequestSample& s : samples_) {
    const bool in_slice = slice == Slice::kAll ||
                          (slice == Slice::kHandled && s.handled) ||
                          (slice == Slice::kNotHandled && !s.handled);
    if (!in_slice) continue;
    ++out.requests;
    response_sum += s.response_s;
    response_hist.record(std::int64_t(s.response_s * 1e6));  // µs resolution
    if (s.dispatched) {
      ++dispatched;
      accuracy_sum += s.accuracy;
    }
    if (s.started) {
      ++started;
      qtime_sum += s.qtime_s;
    }
    cpu_seconds += s.cpu_seconds_in_window;
  }

  if (out.requests == 0) return out;
  out.request_share = double(out.requests) / double(std::max<std::size_t>(1, samples_.size()));
  out.response_s = response_sum / double(out.requests);
  out.response_p50_s = double(response_hist.p50()) * 1e-6;
  out.response_p95_s = double(response_hist.p95()) * 1e-6;
  out.response_p99_s = double(response_hist.p99()) * 1e-6;
  out.throughput_qps = window_s_ > 0 ? double(out.requests) / window_s_ : 0.0;
  out.qtime_s = started ? qtime_sum / double(started) : 0.0;
  out.norm_qtime_s = out.qtime_s / double(out.requests);
  out.accuracy = dispatched ? accuracy_sum / double(dispatched) : 0.0;
  out.utilization = (window_s_ > 0 && total_cpus_ > 0)
                        ? cpu_seconds / (window_s_ * double(total_cpus_))
                        : 0.0;
  return out;
}

double jain_index(const std::vector<double>& allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (double(allocations.size()) * sum_sq);
}

FairnessReport fairness(const std::vector<double>& delivered) {
  FairnessReport report;
  report.consumers = delivered.size();
  report.jain = jain_index(delivered);
  double total = 0.0;
  for (const double x : delivered) total += x;
  if (total > 0.0 && !delivered.empty()) {
    double lo = delivered[0], hi = delivered[0];
    for (const double x : delivered) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    report.min_share = lo / total;
    report.max_share = hi / total;
  }
  return report;
}

double cpu_seconds_in_window(double started_s, double completed_s, int cpus,
                             double window_s) {
  if (started_s < 0 || started_s >= window_s) return 0.0;
  const double end = completed_s < 0 ? window_s : std::min(completed_s, window_s);
  if (end <= started_s) return 0.0;
  return (end - started_s) * double(cpus);
}

}  // namespace digruber::metrics
