#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "digruber/net/wire/stats.hpp"
#include "perf.hpp"

namespace perf {
namespace {

/// FNV-1a over the bytes of each field fed to it.
class Fnv {
 public:
  template <class T>
  Fnv& add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::int64_t to_us(double seconds) { return std::llround(seconds * 1e6); }

RunSummary summarize(const dg::experiments::ScenarioResult& r) {
  RunSummary s;
  const dg::experiments::ClientTotals& c = r.clients;
  s.queries = c.queries;
  s.handled = c.handled;
  s.fallbacks = c.fallbacks;
  s.sites_overcommitted = r.sites_overcommitted;
  s.entitlement_breaches = r.entitlement_breaches;
  s.window_s = r.config.duration.to_seconds();
  s.accuracy = r.all.accuracy;
  s.completed = r.samples.size();

  // Response times in integer microseconds, exactly as the client measured
  // them; a query that fell back counts at the client timeout.
  const std::int64_t timeout_us = r.config.client_timeout.us();
  s.responses.reserve(r.trace.size());
  s.handled_spans.reserve(r.trace.size());
  for (const dg::workload::QueryTrace& q : r.trace.entries()) {
    const std::int64_t response = to_us(q.response_s);
    s.responses.push_back(q.handled ? response : timeout_us);
    if (q.handled) s.handled_spans.emplace_back(q.issued.us(), q.issued.us() + response);
  }
  std::sort(s.handled_spans.begin(), s.handled_spans.end());
  s.p50_us = percentile(s.responses, 0.50);
  s.p99_us = percentile(s.responses, 0.99);

  s.sim_events = r.sim_events;
  s.total_cpus = r.total_cpus;
  s.grid_cpu_seconds = r.grid_cpu_seconds;
  double sojourn_weighted = 0.0;
  for (const dg::experiments::DpStats& d : r.dps) {
    s.dp_queries += d.queries;
    s.max_dp_queries = std::max(s.max_dp_queries, d.queries);
    s.max_dp_wal_appends = std::max(s.max_dp_wal_appends, d.wal_appends);
    s.selections += d.selections;
    s.records_applied += d.records_applied;
    s.records_duplicate += d.records_duplicate;
    s.exchanges_received += d.exchanges_received;
    s.container_utilization += d.container_utilization;
    sojourn_weighted += d.mean_sojourn_s * double(d.queries);
  }
  if (!r.dps.empty()) s.container_utilization /= double(r.dps.size());
  if (s.dp_queries) s.container_sojourn_s = sojourn_weighted / double(s.dp_queries);
  s.overlay_rounds = r.overlay.rounds;
  s.exchange_bytes = r.overlay.bytes_sent;
  s.mean_fanout = r.overlay.mean_fanout();
  s.wal_appends = r.durability.wal_appends;
  s.wal_bytes = r.durability.wal_bytes;
  s.fsyncs = r.durability.fsyncs;
  s.priced_dispatches = r.economy.priced_dispatches;
  s.degraded_refusals = r.partition.degraded_refusals;
  s.delta_pulls = r.partition.delta_pulls_sent;
  s.failovers = r.resilience.failovers;
  s.report_retries = c.report_retries;

  // Deterministic fields only: two runs of one seed hash equal, whatever
  // the host or tracing did.
  Fnv h;
  h.add(c.queries).add(c.handled).add(c.fallbacks).add(c.starvations);
  h.add(c.report_retries).add(c.dedup_replies);
  h.add(r.sites).add(r.total_cpus).add(r.jobs_completed).add(r.jobs_started);
  h.add(r.grid_cpu_seconds).add(r.sim_events).add(r.entitlement_breaches);
  h.add(r.overcommits_final).add(r.final_dps);
  for (const dg::experiments::DpStats& d : r.dps) {
    h.add(d.queries).add(d.selections).add(d.exchanges_sent).add(d.exchanges_received);
    h.add(d.records_applied).add(d.records_duplicate).add(d.refused);
    h.add(d.submitted).add(d.completed).add(d.mean_sojourn_s);
    h.add(d.wal_appends).add(d.wal_bytes).add(d.degraded_refusals);
  }
  for (const dg::metrics::RequestSample& q : r.samples) {
    h.add(q.issued_s).add(q.response_s).add(q.handled).add(q.accuracy);
    h.add(q.qtime_s).add(q.cpu_seconds_in_window);
  }
  s.digest = h.value();
  return s;
}

}  // namespace

std::int64_t percentile(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const std::size_t index = std::size_t(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

RunSummary timed_run(const dg::experiments::ScenarioConfig& config) {
  auto& wire = dg::net::wire::wire_stats();
  wire.reset();
  const auto t0 = std::chrono::steady_clock::now();
  const dg::experiments::ScenarioResult result = dg::experiments::run_scenario(config);
  const auto t1 = std::chrono::steady_clock::now();
  RunSummary s = summarize(result);
  s.wall_s = std::chrono::duration<double>(t1 - t0).count();
  s.frames_encoded = wire.total_encodes();
  s.frame_bytes = wire.total_bytes();
  s.exchange_frames = wire.encodes(dg::net::wire::MsgCategory::kStateExchange);
  return s;
}

}  // namespace perf
