#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "digruber/digruber/protocol.hpp"
#include "digruber/gruber/selectors.hpp"
#include "digruber/net/rpc.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::digruber {

/// Circuit breaker: consecutive failures that open a decision point's
/// breaker, and how long it stays open before a half-open probe.
inline constexpr std::uint32_t kBreakerThreshold = 3;
inline constexpr sim::Duration kBreakerCooldown = sim::Duration::seconds(30);

/// Overload-aware retry budget: a token bucket of this capacity, refilled
/// by this much per scheduled query and debited one token per retry. At
/// ~10% refill a client can retry every query occasionally or a few
/// queries hard, but cannot multiply offered load when the whole mesh is
/// saturated.
inline constexpr double kRetryBudgetCapacity = 10.0;
inline constexpr double kRetryBudgetRefill = 0.1;

struct ClientOptions {
  /// Per-query deadline; on expiry the client's site selector picks a
  /// random site without considering USLAs (paper Section 4.3).
  sim::Duration timeout = sim::Duration::seconds(60);

  /// Failover (all within the `timeout` budget above; the paper's 60 s
  /// total-deadline semantics are unchanged). Zero disables per-attempt
  /// deadlines: with a single decision point that reproduces the original
  /// one-shot client byte for byte.
  sim::Duration attempt_timeout = sim::Duration::zero();

  /// Overload-aware mode (off by default; enabling changes rng consumption
  /// and wire bytes, so default runs stay byte-identical):
  ///  - attaches the query's absolute deadline to each RPC so containers
  ///    can shed doomed work,
  ///  - honors the retry_after hint in typed overload NACKs,
  ///  - spends retries from a per-client token bucket (adaptive retry:
  ///    bounded amplification under overload),
  ///  - picks failover targets by power-of-two-choices over the DP load
  ///    hints piggybacked on query replies.
  bool overload_aware = false;

  /// Membership-aware routing (off by default; enabling changes wire
  /// bytes, so default runs stay byte-identical):
  ///  - attaches the client's membership epoch to each query so a
  ///    decision point with a newer view piggybacks it on the reply,
  ///  - folds those updates into the DP list: newly joined points become
  ///    failover targets, dead/left points are quarantined — removed from
  ///    p2c and failover order with NO half-open re-probing (membership,
  ///    not per-call timeouts, decides when a point is gone),
  ///  - treats a typed draining NACK as a redirect, not a failure.
  bool membership_aware = false;

  /// Emit CRC-32C frame-checksum trailers (v3 frames) on every request
  /// this client sends. Off by default: legacy bytes.
  bool frame_checksums = false;

  /// Market placement (off by default; enabling changes rng consumption
  /// and wire bytes, so default runs stay byte-identical):
  ///  - jobs carrying a budget or deadline attach a bid to their
  ///    selection-report frames,
  ///  - decision-point choice minimizes quoted cost (price * cpus *
  ///    runtime) over the deadline-feasible quoted set instead of p2c,
  ///  - jobs without economic fields — or when no quotes have arrived —
  ///    fall back to the load-based path unchanged.
  bool market_placement = false;

  /// Exactly-once dispatch (off by default; enabling widens the
  /// selection-report frame, so default runs stay byte-identical):
  ///  - stamps every selection report with a durable (client, seq)
  ///    request id, assigned once per job,
  ///  - retries a failed report to the SAME decision point after a fixed
  ///    backoff (deterministic: zero rng draws), bounded by the query
  ///    deadline; the point's persisted dedup window collapses the
  ///    retries to one dispatch and returns the original decision.
  bool request_ids = false;
};

struct QueryOutcome {
  SiteId site;
  bool handled_by_gruber = false;  // true: site came from the decision point
  bool starved = false;            // reply arrived but no admissible site
  sim::Duration response = sim::Duration::zero();
  /// The decision point's free-CPU estimate for the chosen site (-1 for
  /// the random fallback, which picks blind). Scheduling accuracy compares
  /// this belief against ground truth.
  std::int32_t believed_free = -1;
  /// Which decision point answered (invalid for the random fallback).
  NodeId served_by;
};

/// Everything a client counts. Each scheduled query resolves exactly once,
/// so queries == handled + fallbacks. Optional-mode counters stay zero
/// while their mode is off.
struct ClientCounters {
  std::uint64_t queries = 0;
  std::uint64_t handled = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t starvations = 0;
  /// Attempts retried on another (or the same, after backoff) decision
  /// point because an earlier attempt failed.
  std::uint64_t failovers = 0;
  /// Circuit-breaker transitions to open (including failed half-open probes).
  std::uint64_t breaker_trips = 0;
  /// Random-site fallbacks taken because no decision point was eligible.
  std::uint64_t all_dps_down_fallbacks = 0;

  // Overload-aware mode.
  std::uint64_t overload_nacks = 0;  // typed overload rejections received
  /// Retries whose delay was stretched to honor a server retry_after hint.
  std::uint64_t retry_after_honored = 0;
  /// Retries suppressed because the token bucket was empty.
  std::uint64_t retries_budget_denied = 0;
  /// Attempts routed by power-of-two-choices over DP load hints.
  std::uint64_t p2c_decisions = 0;

  // Market placement.
  /// Attempts routed by minimizing quoted cost subject to the deadline.
  std::uint64_t priced_dispatches = 0;
  /// Market picks declined because the cheapest feasible quote exceeded
  /// the job's budget (the job was placed by the load-based path instead).
  std::uint64_t budget_rejections = 0;
  /// Economic jobs routed by the load-based path because no decision
  /// point had a usable (quoted, deadline-feasible) offer.
  std::uint64_t market_fallbacks = 0;

  // Membership-aware routing.
  std::uint64_t membership_updates_applied = 0;
  /// Decision points learned (joined mid-run) via membership updates.
  std::uint64_t dps_added = 0;
  /// Decision points quarantined because membership declared them dead or
  /// left. Quarantined points get no probes — not even half-open ones.
  std::uint64_t dps_quarantined = 0;
  /// Attempts answered with a typed draining NACK and redirected.
  std::uint64_t drain_redirects = 0;
  /// Attempts answered with a typed degraded NACK (partition tolerance)
  /// and rerouted. Unlike dead/left points, a degraded point is alive and
  /// is NEVER quarantined — it recovers as soon as its partition heals.
  std::uint64_t degraded_redirects = 0;
  /// Replies that carried a degraded-mode hint (level >= 1).
  std::uint64_t degraded_hints_seen = 0;

  // Exactly-once dispatch.
  /// Selection reports re-sent after a failed or timed-out attempt.
  std::uint64_t report_retries = 0;
  /// Report acks that returned the original decision from the decision
  /// point's dedup window (the retry hit an already-committed dispatch).
  std::uint64_t dedup_replies = 0;
};

/// A DI-GRUBER client: a submission host bound to a decision point — or,
/// with failover enabled, to an ordered list of them. Runs the
/// two-round-trip brokering query (fetch loads, report selection) with
/// client-side site-selector logic. On decision-point failure it retries
/// across the list with exponential backoff and a per-point circuit
/// breaker, degrading to random site selection only when the deadline
/// expires or every decision point is down.
class DiGruberClient {
 public:
  using Done = std::function<void(grid::Job job, QueryOutcome outcome)>;

  DiGruberClient(sim::Simulation& sim, net::Transport& transport, ClientId id,
                 NodeId decision_point, std::vector<SiteId> all_sites,
                 std::unique_ptr<gruber::SiteSelector> selector, Rng rng,
                 ClientOptions options = {});

  /// Failover form: `decision_points[0]` is the primary, the rest are
  /// backups tried in order when earlier entries fail or trip the breaker.
  DiGruberClient(sim::Simulation& sim, net::Transport& transport, ClientId id,
                 std::vector<NodeId> decision_points, std::vector<SiteId> all_sites,
                 std::unique_ptr<gruber::SiteSelector> selector, Rng rng,
                 ClientOptions options = {});

  /// Schedule one job; `done` fires exactly once with the chosen site.
  void schedule(grid::Job job, Done done);

  [[nodiscard]] ClientId id() const { return id_; }
  /// This client's own transport address (needed when a partition plan
  /// splits the client fleet across islands).
  [[nodiscard]] NodeId node() const { return rpc_.node(); }
  [[nodiscard]] NodeId decision_point() const { return targets_.front().node; }
  /// Every routing target's address, in failover order.
  [[nodiscard]] std::vector<NodeId> decision_points() const;
  [[nodiscard]] const ClientCounters& counters() const { return counters_; }
  /// Last membership epoch folded in (membership-aware routing).
  [[nodiscard]] std::uint64_t membership_epoch() const { return epoch_; }
  [[nodiscard]] bool is_quarantined(std::size_t idx) const {
    return idx < targets_.size() && targets_[idx].health.quarantined;
  }

  /// Rebind the primary to a different decision point (dynamic
  /// rebalancing, Section 5). Backups are kept; the new primary starts
  /// with a closed breaker.
  void rebind(NodeId decision_point);

 private:
  /// Per-decision-point circuit-breaker state.
  struct DpHealth {
    std::uint32_t consecutive_failures = 0;
    bool open = false;
    bool half_open = false;  // probe in flight
    /// Membership declared this point dead or left: excluded from every
    /// scan, including the half-open probe loop. Cleared only by a
    /// membership update that reports the point alive again (restart).
    bool quarantined = false;
    sim::Time open_until;
  };

  /// One decision point this client can route to. A fresh record (only
  /// `node` set) is a closed breaker with no load or price heard yet.
  struct Target {
    explicit Target(NodeId n) : node(n) {}
    NodeId node;
    DpHealth health;
    /// Load score (estimated wait + queue-depth tiebreak) fed by
    /// piggybacked hints; lower is better. Only used in overload-aware mode.
    double score = 0.0;
    /// Price quote and raw estimated wait (market placement only; price
    /// 0 = no quote heard yet, so the point is not market-eligible).
    double price = 0.0;
    double wait_s = 0.0;
  };

  [[nodiscard]] bool failover_active() const {
    return targets_.size() > 1 || options_.attempt_timeout > sim::Duration::zero();
  }
  /// First decision point with a closed breaker; failing that, the first
  /// open one whose cooldown expired (marked half-open). -1 if all down.
  /// With market placement on, a job carrying economic fields is routed
  /// to the cheapest deadline-feasible quoted point first.
  [[nodiscard]] int pick_dp(const grid::Job& job);
  void on_dp_failure(std::size_t idx);
  void on_dp_success(std::size_t idx);
  /// Fold the DP load hints piggybacked on a query reply into the
  /// power-of-two-choices scores (overload-aware mode) and the per-DP
  /// wait/price books (market placement). Prices, when present, align
  /// index-wise with the hints.
  void apply_load_hints(const GetSiteLoadsReply& reply);
  /// The first round trip's request for `job`.
  [[nodiscard]] GetSiteLoadsRequest site_loads_request(const grid::Job& job) const;
  /// Fold a piggybacked membership update into the DP list (add joiners,
  /// quarantine dead/left, un-quarantine resurrected). Epoch-gated.
  void apply_membership(const MembershipUpdate& update);
  void quarantine(std::size_t idx);

  void attempt(grid::Job job, Done done, sim::Time t0, std::uint32_t attempt_n,
               double prev_delay_s, trace::SpanContext qctx);
  /// Shared second round trip: run the selector over `reply` and report
  /// the selection to `dp` (the decision point that answered).
  void complete_with_reply(grid::Job job, Done done, sim::Time t0, NodeId dp,
                           const GetSiteLoadsReply& reply, trace::SpanContext qctx);
  /// Send (or re-send) a selection report. With request_ids on, a failed
  /// attempt is retried to the same decision point after a fixed backoff.
  void send_report(ReportSelectionRequest report, grid::Job job, Done done,
                   sim::Time t0, NodeId dp, SiteId site,
                   std::int32_t believed_free, trace::SpanContext qctx,
                   trace::SpanContext rctx, std::uint32_t attempt_n);
  void finish_with_fallback(grid::Job job, Done done, sim::Time t0, bool starved,
                            trace::SpanContext qctx);

  sim::Simulation& sim_;
  net::RpcClient rpc_;
  ClientId id_;
  std::vector<Target> targets_;  // [0] is the primary
  std::vector<SiteId> all_sites_;
  std::unique_ptr<gruber::SiteSelector> selector_;
  Rng rng_;
  ClientOptions options_;

  ClientCounters counters_;
  /// Retry token bucket (overload-aware mode): refilled on schedule(),
  /// debited one token per retry attempt.
  double retry_tokens_ = kRetryBudgetCapacity;
  /// Membership-aware routing state: last applied epoch.
  std::uint64_t epoch_ = 0;
  /// Exactly-once dispatch state: next request id (assigned once per job,
  /// stable across that job's report retries).
  std::uint64_t next_request_seq_ = 1;
};

}  // namespace digruber::digruber
