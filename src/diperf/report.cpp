#include "digruber/diperf/report.hpp"

#include <algorithm>
#include <ostream>

#include "digruber/common/table.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::diperf {

void render_figure(std::ostream& os, const std::string& title,
                   const Collector& collector, double end_s, double bucket_s,
                   std::size_t max_rows) {
  os << "== " << title << " ==\n";

  const std::vector<Collector::Bucket> buckets = collector.series(bucket_s, end_s);
  Table series({"time (s)", "load (clients)", "response (s)", "throughput (q/s)"});
  const std::size_t stride = std::max<std::size_t>(1, buckets.size() / max_rows);
  for (std::size_t b = 0; b < buckets.size(); b += stride) {
    series.add_row({Table::num(buckets[b].t_s, 0), Table::num(buckets[b].load, 0),
                    Table::num(buckets[b].response_avg_s, 2),
                    Table::num(buckets[b].throughput_qps, 2)});
  }
  series.render(os);

  const Summary response = collector.response_summary();
  Table summary({"", "Minimum", "Median", "Average", "Maximum", "Std Dev"});
  summary.add_row({"Response Time (seconds)", Table::num(response.min, 2),
                   Table::num(response.median, 2), Table::num(response.average, 2),
                   Table::num(response.max, 2), Table::num(response.stddev, 2)});
  SampleSet tp;
  for (const Collector::Bucket& b : buckets) {
    if (b.completions > 0) tp.add(b.throughput_qps);
  }
  const Summary throughput = summarize(tp);
  summary.add_row({"Throughput (queries/second)", Table::num(throughput.min, 2),
                   Table::num(throughput.median, 2), Table::num(throughput.average, 2),
                   Table::num(throughput.max, 2), Table::num(throughput.stddev, 2)});
  summary.render(os);

  os << "peak throughput: " << Table::num(collector.peak_throughput(bucket_s, end_s), 2)
     << " q/s, plateau: " << Table::num(collector.plateau_throughput(bucket_s, end_s), 2)
     << " q/s, completions: " << collector.records().size()
     << ", failures: " << collector.failures() << "\n\n";
}

void render_latency_percentiles(std::ostream& os,
                                const metrics::MetricValues& handled,
                                const metrics::MetricValues& not_handled,
                                const metrics::MetricValues& all) {
  os << "== response-time percentiles ==\n";
  Table table({"", "# of Req", "Mean (s)", "p50 (s)", "p95 (s)", "p99 (s)"});
  auto row = [&](const char* label, const metrics::MetricValues& v) {
    if (v.requests == 0) {
      table.add_row({label, "0", "-", "-", "-", "-"});
      return;
    }
    table.add_row({label, std::to_string(v.requests), Table::num(v.response_s, 2),
                   Table::num(v.response_p50_s, 2), Table::num(v.response_p95_s, 2),
                   Table::num(v.response_p99_s, 2)});
  };
  row("Handled by GRUBER", handled);
  row("NOT handled (fallback)", not_handled);
  row("All requests", all);
  table.render(os);
  os << "\n";
}

void render_resilience(std::ostream& os,
                       const metrics::ResilienceCounters& counters) {
  os << "== resilience counters ==\n";
  Table table({"counter", "value"});
  table.add_row({"client failovers", Table::num(double(counters.failovers), 0)});
  table.add_row({"breaker trips", Table::num(double(counters.breaker_trips), 0)});
  table.add_row(
      {"all-DPs-down fallbacks", Table::num(double(counters.all_dps_down_fallbacks), 0)});
  table.add_row({"DP restarts", Table::num(double(counters.dp_restarts), 0)});
  table.add_row(
      {"re-sync records applied", Table::num(double(counters.resync_records), 0)});
  table.add_row(
      {"catch-ups served", Table::num(double(counters.catchups_served), 0)});
  table.add_row(
      {"round-gap re-syncs", Table::num(double(counters.gap_resyncs), 0)});
  table.add_row({"drops: loss", Table::num(double(counters.drops_loss), 0)});
  table.add_row(
      {"drops: partition", Table::num(double(counters.drops_partition), 0)});
  table.add_row({"drops: unknown destination",
                 Table::num(double(counters.drops_unknown_destination), 0)});
  table.add_row({"drops: total", Table::num(double(counters.drops_total()), 0)});
  table.render(os);
  os << "\n";
}

void render_overload(std::ostream& os, const metrics::OverloadCounters& counters) {
  os << "== overload counters ==\n";
  Table table({"counter", "value"});
  table.add_row({"requests submitted", Table::num(double(counters.submitted), 0)});
  table.add_row(
      {"shed: queue full", Table::num(double(counters.shed_queue_full), 0)});
  table.add_row(
      {"shed: deadline doomed", Table::num(double(counters.shed_deadline), 0)});
  table.add_row({"shed: total", Table::num(double(counters.shed_total()), 0)});
  table.add_row({"LIFO pickups", Table::num(double(counters.lifo_pickups), 0)});
  table.add_row({"aborted by crash", Table::num(double(counters.aborted), 0)});
  table.add_row(
      {"overload NACKs received", Table::num(double(counters.overload_nacks), 0)});
  table.add_row(
      {"retry_after honored", Table::num(double(counters.retry_after_honored), 0)});
  table.add_row({"retries denied (budget)",
                 Table::num(double(counters.retries_budget_denied), 0)});
  table.add_row(
      {"p2c routing decisions", Table::num(double(counters.p2c_decisions), 0)});
  table.render(os);
  os << "\n";
}

void render_membership(std::ostream& os,
                       const metrics::MembershipCounters& counters) {
  os << "== membership counters ==\n";
  Table table({"counter", "value"});
  table.add_row({"suspicions", Table::num(double(counters.suspicions), 0)});
  table.add_row(
      {"deaths declared", Table::num(double(counters.deaths_declared), 0)});
  table.add_row({"refutations", Table::num(double(counters.refutations), 0)});
  table.add_row(
      {"joins observed", Table::num(double(counters.joins_observed), 0)});
  table.add_row(
      {"leaves observed", Table::num(double(counters.leaves_observed), 0)});
  table.add_row(
      {"joins started", Table::num(double(counters.joins_started), 0)});
  table.add_row(
      {"joins completed", Table::num(double(counters.joins_completed), 0)});
  table.add_row({"join snapshot retries",
                 Table::num(double(counters.join_snapshot_retries), 0)});
  table.add_row({"join snapshot records",
                 Table::num(double(counters.join_snapshot_records), 0)});
  table.add_row(
      {"snapshots served", Table::num(double(counters.snapshots_served), 0)});
  table.add_row(
      {"drain NACKs sent", Table::num(double(counters.drain_nacks), 0)});
  table.add_row({"client updates applied",
                 Table::num(double(counters.client_updates_applied), 0)});
  table.add_row(
      {"client DPs added", Table::num(double(counters.client_dps_added), 0)});
  table.add_row({"client DPs quarantined",
                 Table::num(double(counters.client_dps_quarantined), 0)});
  table.add_row({"client drain redirects",
                 Table::num(double(counters.client_drain_redirects), 0)});
  table.render(os);
  os << "\n";
}

void render_economy(std::ostream& os, const metrics::EconomyCounters& counters) {
  os << "== economy counters ==\n";
  Table table({"counter", "value"});
  table.add_row(
      {"epochs settled", Table::num(double(counters.epochs_settled), 0)});
  table.add_row(
      {"credits endowed (cpu-s)", Table::num(counters.credits_initial, 0)});
  table.add_row(
      {"credits earned (cpu-s)", Table::num(counters.credits_earned, 0)});
  table.add_row(
      {"credits spent (cpu-s)", Table::num(counters.credits_spent, 0)});
  table.add_row({"credits expired: pool",
                 Table::num(counters.credits_expired_pool, 0)});
  table.add_row(
      {"credits expired: cap", Table::num(counters.credits_expired_cap, 0)});
  table.add_row(
      {"credit denials", Table::num(double(counters.credit_denials), 0)});
  table.add_row(
      {"grace admissions", Table::num(double(counters.grace_admissions), 0)});
  table.add_row(
      {"priced replies", Table::num(double(counters.priced_replies), 0)});
  table.add_row(
      {"priced selections", Table::num(double(counters.priced_selections), 0)});
  table.add_row(
      {"priced dispatches", Table::num(double(counters.priced_dispatches), 0)});
  table.add_row(
      {"budget rejections", Table::num(double(counters.budget_rejections), 0)});
  table.add_row(
      {"market fallbacks", Table::num(double(counters.market_fallbacks), 0)});
  table.render(os);
  os << "\n";
}

void render_overlay(std::ostream& os, const char* strategy,
                    const metrics::OverlayCounters& counters) {
  os << "== overlay counters (" << strategy << ") ==\n";
  Table table({"counter", "value"});
  table.add_row(
      {"exchanges sent", Table::num(double(counters.exchanges_sent), 0)});
  table.add_row({"exchange rounds", Table::num(double(counters.rounds), 0)});
  table.add_row({"mean fan-out", Table::num(counters.mean_fanout(), 2)});
  table.add_row(
      {"max relay depth", Table::num(double(counters.max_hops), 0)});
  table.add_row({"relays suppressed (TTL)",
                 Table::num(double(counters.relays_suppressed), 0)});
  table.add_row(
      {"strategy rebuilds", Table::num(double(counters.rebuilds), 0)});
  table.add_row(
      {"grave probes", Table::num(double(counters.grave_probes), 0)});
  table.add_row({"bytes sent", Table::num(double(counters.bytes_sent), 0)});
  table.add_row(
      {"bytes / round", Table::num(counters.bytes_per_round(), 0)});
  table.render(os);
  os << "\n";
}

void render_wire(std::ostream& os, const net::wire::WireStats& stats) {
  os << "== wire traffic by category ==\n";
  Table table({"category", "encodes", "bytes"});
  const auto row = [&](const char* name, std::uint64_t encodes,
                       std::uint64_t bytes) {
    table.add_row({name, Table::num(double(encodes), 0),
                   Table::num(double(bytes), 0)});
  };
  using net::wire::MsgCategory;
  const auto category_row = [&](const char* name, MsgCategory category) {
    row(name, stats.encodes(category), stats.bytes(category));
  };
  category_row("queries", MsgCategory::kQuery);
  category_row("state exchange", MsgCategory::kStateExchange);
  category_row("control", MsgCategory::kControl);
  category_row("other", MsgCategory::kOther);
  row("total", stats.total_encodes(), stats.total_bytes());
  table.render(os);
  os << "\n";
}

}  // namespace digruber::diperf
