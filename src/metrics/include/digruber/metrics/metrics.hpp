#pragma once

#include <cstdint>
#include <vector>

#include "digruber/common/stats.hpp"
#include "digruber/grid/job.hpp"
#include "digruber/trace/histogram.hpp"

namespace digruber::metrics {

/// The paper's five evaluation metrics (Section 4.2):
///   Response  — mean broker response time over queries,
///   Throughput — completed queries per second,
///   QTime     — mean site-queue wait (dispatch -> start),
///   Util      — consumed CPU time / available CPU time,
///   Accuracy  — mean per-job scheduling accuracy SA_i.
///
/// Accuracy note: the text defines SA_i as "free resources at the selected
/// site / total free resources over the entire grid"; read literally that
/// is bounded by 1/#sites-ish yet the paper plots accuracies near 100%, so
/// (like the original figures) we report a normalized SA_i, scored by
/// `experiments::oracle_accuracy` (DESIGN.md item 7). The literal
/// total-share reading is not kept: no figure, table or tool read it, and
/// it cost a walk over every site of the grid per query.
struct MetricValues {
  double response_s = 0.0;
  /// Response-time distribution tail, from an HDR-style log-bucketed
  /// histogram over the slice (<1% relative error). Mean response hides
  /// the deadline-bound worst case; the paper's 60 s client timeout makes
  /// the tail the interesting part.
  double response_p50_s = 0.0;
  double response_p95_s = 0.0;
  double response_p99_s = 0.0;
  double throughput_qps = 0.0;
  double qtime_s = 0.0;
  double norm_qtime_s = 0.0;  // QTime / #requests (paper Table 1 column)
  double utilization = 0.0;
  double accuracy = 0.0;
  std::uint64_t requests = 0;
  double request_share = 0.0;  // "% of Req" table column
};

/// One brokering request + job, accumulated by the harness.
struct RequestSample {
  /// When the query was issued, seconds from window start (lets the
  /// resilience bench bucket availability/accuracy over time).
  double issued_s = 0.0;
  bool handled = false;
  double response_s = 0.0;

  bool dispatched = false;  // some queries end without a runnable site
  double accuracy = 0.0;

  bool started = false;
  double qtime_s = 0.0;

  // Execution overlap with the measurement window, in CPU-seconds.
  double cpu_seconds_in_window = 0.0;
};

/// Splits the population the way the paper's Tables 1-2 do.
enum class Slice : std::uint8_t { kHandled = 0, kNotHandled, kAll };

class MetricsAccumulator {
 public:
  MetricsAccumulator(double window_s, std::int64_t total_cpus);

  void add(const RequestSample& sample);

  [[nodiscard]] MetricValues compute(Slice slice) const;

  [[nodiscard]] std::uint64_t total_requests() const {
    return std::uint64_t(samples_.size());
  }

 private:
  double window_s_;
  std::int64_t total_cpus_;
  std::vector<RequestSample> samples_;
};

/// Jain's fairness index over allocations x_i (optionally normalized by
/// entitlements): (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair,
/// 1/n = one consumer takes everything. Empty input yields 1.0.
double jain_index(const std::vector<double>& allocations);

/// Fairness of delivered CPU time across a set of consumers with equal
/// entitlements (the paper's Section 4.1 question: are CPU resources
/// allocated fairly across VOs, and across groups within a VO?).
struct FairnessReport {
  double jain = 1.0;
  double min_share = 0.0;  // smallest consumer's fraction of the total
  double max_share = 0.0;
  std::size_t consumers = 0;
};

FairnessReport fairness(const std::vector<double>& delivered);

/// Fault-tolerance counters aggregated across a scenario run (decision
/// points + client fleet + transport), surfaced through the DiPerF report
/// by the resilience bench.
struct ResilienceCounters {
  // Client fleet.
  std::uint64_t failovers = 0;          // retries on another decision point
  std::uint64_t breaker_trips = 0;      // circuit-breaker open transitions
  std::uint64_t all_dps_down_fallbacks = 0;

  // Decision points.
  std::uint64_t dp_restarts = 0;
  std::uint64_t resync_records = 0;     // records re-learned via catch-up
  std::uint64_t catchups_served = 0;
  std::uint64_t gap_resyncs = 0;        // catch-ups from flooding-round gaps

  // Transport (SimTransport drop accounting by cause).
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_partition = 0;
  std::uint64_t drops_unknown_destination = 0;

  [[nodiscard]] std::uint64_t drops_total() const {
    return drops_loss + drops_partition + drops_unknown_destination;
  }
};

/// Overload-control counters aggregated across a scenario run (container
/// admission + client retry layer), surfaced through the DiPerF report by
/// the overload-shedding bench and the chaos harness.
struct OverloadCounters {
  // Containers (decision-point servers).
  std::uint64_t submitted = 0;        // requests reaching admission
  std::uint64_t shed_queue_full = 0;  // typed rejections: queue at limit
  std::uint64_t shed_deadline = 0;    // typed rejections: deadline doomed
  std::uint64_t lifo_pickups = 0;     // query pickups served newest-first
  std::uint64_t aborted = 0;          // queued/in-flight work lost to crashes

  // Client fleet (adaptive retry).
  std::uint64_t overload_nacks = 0;        // typed NACKs received
  std::uint64_t retry_after_honored = 0;   // delays stretched to the hint
  std::uint64_t retries_budget_denied = 0; // retries suppressed, bucket empty
  std::uint64_t p2c_decisions = 0;         // power-of-two-choices routings

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_queue_full + shed_deadline;
  }
};

/// Dynamic-membership counters aggregated across a scenario run (decision-
/// point failure detectors + join/leave protocol + client-side routing),
/// surfaced through the DiPerF report by the resilience bench and the
/// churn soak.
struct MembershipCounters {
  // Failure detectors (summed over every decision point's table).
  std::uint64_t suspicions = 0;       // alive -> suspect verdicts
  std::uint64_t deaths_declared = 0;  // -> dead (detector or gossip)
  std::uint64_t refutations = 0;      // suspect/dead -> alive resurrections
  std::uint64_t joins_observed = 0;   // new members learned
  std::uint64_t leaves_observed = 0;  // graceful departures learned

  // Join/leave protocol.
  std::uint64_t joins_started = 0;        // join() bootstraps initiated
  std::uint64_t joins_completed = 0;      // joiners that reached serving
  std::uint64_t join_snapshot_retries = 0;  // failed transfers, seed rotated
  std::uint64_t join_snapshot_records = 0;  // records bootstrapped (no replay)
  std::uint64_t snapshots_served = 0;     // bootstrap snapshots handed out
  std::uint64_t drain_nacks = 0;          // query refusals while not serving

  // Client fleet (membership-aware routing).
  std::uint64_t client_updates_applied = 0;  // epoch-gated updates folded in
  std::uint64_t client_dps_added = 0;        // joiners added as targets
  std::uint64_t client_dps_quarantined = 0;  // dead/left points quarantined
  std::uint64_t client_drain_redirects = 0;  // draining NACKs redirected
};

/// Partition-tolerance counters aggregated across a scenario run (digest
/// piggyback + delta anti-entropy at every decision point, staleness-
/// guarded admission, client rerouting, and the transport/wire corruption
/// accounting), surfaced by the partition-divergence bench and the
/// partition soak. All zero with partition tolerance off.
struct PartitionCounters {
  // Split-brain detection and delta anti-entropy (decision points).
  std::uint64_t digest_mismatches = 0;     // exchange digests that disagreed
  std::uint64_t delta_pulls_sent = 0;      // targeted pulls issued
  std::uint64_t delta_pulls_served = 0;    // targeted pulls answered
  std::uint64_t delta_records_applied = 0; // records learned via pulls
  std::uint64_t delta_conflicts = 0;       // (origin, seq) twins resolved
  std::uint64_t double_commits = 0;        // split-brain double admissions
  std::uint64_t delta_converged = 0;       // pulls that fully reconciled

  // Staleness-guarded admission.
  std::uint64_t degraded_refusals = 0;  // queries NACKed: quorum stale
  std::uint64_t degraded_replies = 0;   // replies carrying a degraded hint

  // Client fleet.
  std::uint64_t client_degraded_redirects = 0;  // degraded NACKs rerouted
  std::uint64_t client_degraded_hints = 0;      // degraded hints absorbed

  // Transport / wire (corruption injection + checksum verification).
  std::uint64_t packets_corrupted = 0;    // bit flips injected in flight
  std::uint64_t frames_bad_checksum = 0;  // frames dropped by CRC mismatch
};

/// Economic-brokering counters aggregated across a scenario run (credit
/// banks at every decision point + market-placement clients), surfaced
/// through the DiPerF report by the economy bench and the chaos harness.
/// All zero with the economy off. Credit amounts are CPU-seconds.
struct EconomyCounters {
  // Credit banks (karma allocator, summed over decision points).
  std::uint64_t epochs_settled = 0;
  double credits_initial = 0.0;       // endowments at bank creation/reset
  double credits_earned = 0.0;        // transferred to under-share VOs
  double credits_spent = 0.0;         // surrendered by over-share VOs
  double credits_expired_pool = 0.0;  // spent but unabsorbed (no deficit)
  double credits_expired_cap = 0.0;   // clipped by the balance cap
  std::uint64_t credit_denials = 0;     // queries refused: allowance spent
  std::uint64_t grace_admissions = 0;   // over-allowance admits, idle grid

  // Market placement (decision points).
  std::uint64_t priced_replies = 0;     // replies carrying price quotes
  std::uint64_t priced_selections = 0;  // selection reports carrying a bid

  // Client fleet (market placement).
  std::uint64_t priced_dispatches = 0;  // dispatches won by a price offer
  std::uint64_t budget_rejections = 0;  // cheapest offer still over budget
  std::uint64_t market_fallbacks = 0;   // no usable offer, fell back to p2c
};

/// Durability counters aggregated across a scenario run (simulated disks,
/// write-ahead logs, checkpoint/replay recovery, and the exactly-once
/// dispatch dedup window), surfaced by the recovery bench and the chaos
/// harness. All zero with durability off.
struct DurabilityCounters {
  // Device (summed over every decision point's SimDisk).
  std::uint64_t wal_appends = 0;          // frames written
  std::uint64_t wal_bytes = 0;            // framed bytes written
  std::uint64_t fsyncs = 0;               // durability barriers
  std::uint64_t checkpoints_written = 0;  // checkpoint images replaced
  std::uint64_t log_truncations = 0;      // WAL resets after a checkpoint
  std::uint64_t torn_tails = 0;           // injected torn-write faults
  std::uint64_t bit_flips = 0;            // injected bit-rot faults

  // Recovery (checkpoint restore + WAL replay at restart).
  std::uint64_t recoveries = 0;            // durable restarts replayed
  std::uint64_t replay_frames = 0;         // WAL frames scanned
  std::uint64_t replay_records = 0;        // dispatch records restored
  std::uint64_t replay_dedup_entries = 0;  // dedup entries restored
  std::uint64_t replay_truncations = 0;    // scans stopped at a torn tail
  std::uint64_t checkpoint_fallbacks = 0;  // corrupt images discarded
  std::uint64_t replay_mismatches = 0;     // I11 violations: committed-but-lost

  // Exactly-once dispatch.
  std::uint64_t dedup_hits = 0;            // retries answered from the window
  std::uint64_t duplicate_dispatches = 0;  // I12 violations: one id, 2+ commits
};

/// Dissemination-overlay counters aggregated across a scenario run (the
/// per-round push sets each decision point's strategy selected, the relay
/// depth observed on hops extensions, TTL relay suppressions, and structure
/// repairs under churn), surfaced through the DiPerF report by the
/// overlay ablation benches and the chaos overlay soak. Under the default
/// full mesh only `exchanges_sent` / `rounds` / `bytes_sent` move.
struct OverlayCounters {
  std::uint64_t exchanges_sent = 0;      // sum of per-round push-set sizes
  std::uint64_t rounds = 0;              // exchange rounds that pushed
  std::uint64_t max_hops = 0;            // deepest relay depth observed
  std::uint64_t relays_suppressed = 0;   // fresh records stopped by the TTL
  std::uint64_t rebuilds = 0;            // tree/super-peer structure repairs
  std::uint64_t grave_probes = 0;        // frames copied to believed-dead peers
  std::uint64_t bytes_sent = 0;          // exchange body bytes put on the wire

  [[nodiscard]] double mean_fanout() const {
    return rounds > 0 ? double(exchanges_sent) / double(rounds) : 0.0;
  }
  /// Transmitted exchange bytes per round — counts every copy a strategy
  /// actually sends (the wire-stats encode counter sees a mesh broadcast
  /// as one encode), so sparse-vs-mesh cost comparisons are honest.
  [[nodiscard]] double bytes_per_round() const {
    return rounds > 0 ? double(bytes_sent) / double(rounds) : 0.0;
  }
};

/// CPU-seconds a job consumed inside the window [0, window_s], given the
/// job's start/completion times in seconds (completion may exceed the
/// window or be unset/-1 for still-running jobs).
double cpu_seconds_in_window(double started_s, double completed_s, int cpus,
                             double window_s);

}  // namespace digruber::metrics
