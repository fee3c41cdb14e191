#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "digruber/common/stats.hpp"
#include "digruber/net/wire/buffer.hpp"
#include "digruber/sim/simulation.hpp"

namespace digruber::net {

/// Request class for admission and drain ordering under overload. Control
/// traffic (state exchange, anti-entropy catch-up, saturation signals) keeps
/// the mesh converging and must never be shed behind query traffic.
enum class Priority : std::uint8_t { kControl = 0, kQuery = 1 };

/// Queueing model of a Globus-Toolkit-style Web-service container: a small
/// worker pool behind an admission queue, with per-request CPU charges for
/// the security handshake and XML (de)serialization proportional to
/// message size. This is the smallest model that reproduces the paper's
/// Figure-1 behaviour (throughput plateau at workers/service-time, response
/// time ramping with queue depth) and the GT3-vs-GT4 ordering.
struct ContainerProfile {
  std::string name = "generic";
  int workers = 2;
  std::size_t queue_limit = 4096;
  sim::Duration base_overhead = sim::Duration::millis(20);
  sim::Duration auth_cost = sim::Duration::millis(100);
  sim::Duration parse_cost_per_kb = sim::Duration::millis(10);      // request
  sim::Duration serialize_cost_per_kb = sim::Duration::millis(10);  // reply
  double speed = 1.0;  // host speed multiplier (>1 is faster)
  /// Overload control. Off by default: the container then behaves exactly
  /// like the legacy model (single FIFO queue, silent refusal at
  /// queue_limit), so existing runs are byte-identical. On, the container
  /// becomes deadline-aware: requests doomed to miss their deadline are
  /// shed at admission (and again at pickup), queue-full drops become typed
  /// rejections with a retry_after hint, and the query queue drains
  /// newest-first once it is deep enough that FIFO order would serve only
  /// already-expired work.
  bool overload_control = false;

  /// GT3.2 Java WS container (the paper's faster implementation).
  static ContainerProfile gt3();
  /// GT4 (GT3.9.4 prerelease) container — functionally equivalent but
  /// slower, as reported in the paper's Section 4.5.
  static ContainerProfile gt4();
  /// The C-based WS core the paper's conclusions point to as future work
  /// ("DI-GRUBER performance can be improved further by porting it to a
  /// C-based Web services core, such as is supported in GT4"): the same
  /// container model with native-code security and XML handling.
  static ContainerProfile gt4_c();
};

/// Result of running a service handler: the encoded reply payload (empty
/// for one-way messages) plus the handler's own declared compute cost.
/// The reply is shared immutable storage, so parking it in the container's
/// drain queue and handing it to the completion costs refcounts, not copies.
struct Served {
  Buffer reply;
  sim::Duration handler_cost = sim::Duration::zero();
};

/// Why a request was not admitted (or was later shed from the queue).
enum class AdmitResult : std::uint8_t {
  kAccepted = 0,
  kQueueFull,  // accept queue at queue_limit
  kDeadline,   // estimated sojourn already exceeds the request's deadline
};

/// Typed admission outcome: rejected requests carry a retry_after hint
/// (estimated queue-drain time) so callers can back off intelligently
/// instead of hammering a saturated container.
struct Admission {
  AdmitResult result = AdmitResult::kAccepted;
  sim::Duration retry_after = sim::Duration::zero();
  [[nodiscard]] bool accepted() const { return result == AdmitResult::kAccepted; }
};

class ServiceContainer {
 public:
  using Handler = std::function<Served()>;
  using Completion = std::function<void(Buffer reply)>;
  /// Fires when a queued request is shed at pickup (its deadline passed
  /// while it waited); the completion never runs for a shed request.
  using Shed = std::function<void(sim::Duration retry_after)>;

  ServiceContainer(sim::Simulation& sim, ContainerProfile profile);

  /// Admit a request. Returns false when the accept queue is full (the
  /// request is refused and never runs). `run` executes when a worker
  /// picks the request up; `done` fires when its service time elapses.
  bool submit(std::size_t request_bytes, Handler run, Completion done);

  /// Deadline- and priority-aware admission (overload-control path). With
  /// overload control off this is exactly `submit` — priority, deadline,
  /// and the shed callback are ignored. A zero `deadline` means none.
  Admission submit_ex(std::size_t request_bytes, Handler run, Completion done,
                      Priority priority, sim::Time deadline = sim::Time::zero(),
                      Shed on_shed = nullptr);

  /// Crash semantics: drop every queued request and orphan in-flight work
  /// (its completion never fires and it is not counted as completed). The
  /// container keeps serving requests submitted afterwards.
  void abort_all();

  /// Service time charged for a request of the given sizes and handler cost.
  [[nodiscard]] sim::Duration service_time(std::size_t request_bytes,
                                           std::size_t reply_bytes,
                                           sim::Duration handler_cost) const;

  /// Predicted queue sojourn for a newly-arriving query-class request:
  /// zero while a worker is free, else the EWMA service estimate scaled by
  /// the work queued ahead of it.
  [[nodiscard]] sim::Duration est_sojourn() const;
  /// Suggested retry_after for a rejected request: the estimated time for
  /// the current backlog to drain, clamped to [250 ms, 30 s].
  [[nodiscard]] sim::Duration retry_after_hint() const;

  [[nodiscard]] const ContainerProfile& profile() const { return profile_; }
  [[nodiscard]] int busy_workers() const { return busy_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + control_.size();
  }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }
  [[nodiscard]] std::uint64_t aborted() const { return aborted_; }
  /// Requests shed because they could not (admission) or did not (pickup)
  /// make their deadline.
  [[nodiscard]] std::uint64_t shed_deadline() const { return shed_deadline_; }
  /// Query-class pickups served newest-first under overload.
  [[nodiscard]] std::uint64_t lifo_pickups() const { return lifo_pickups_; }
  /// Fraction of elapsed time the worker pool spent busy, up to `now`.
  [[nodiscard]] double utilization(sim::Time now) const;
  [[nodiscard]] const StreamingStats& sojourn_stats() const { return sojourn_; }

 private:
  struct Request {
    sim::Time arrived;
    std::size_t bytes;
    Handler run;
    Completion done;
    sim::Time deadline;  // zero = none
    Shed on_shed;
  };

  void start(Request request);
  void finish();
  /// Overload-mode pickup: control FIFO first, then query (LIFO when deep),
  /// shedding queued query requests whose deadline already passed.
  bool start_next_overload();

  sim::Simulation& sim_;
  ContainerProfile profile_;
  int busy_ = 0;
  std::deque<Request> queue_;    // query class (the only queue when disabled)
  std::deque<Request> control_;  // control class (overload mode only)
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t lifo_pickups_ = 0;
  /// Bumped by abort_all(); completion events from an older epoch are
  /// orphaned work from before a crash and must not touch state.
  std::uint64_t epoch_ = 0;
  sim::Duration busy_time_ = sim::Duration::zero();
  double ewma_service_s_ = 0.0;
  StreamingStats sojourn_;  // queue wait + service, seconds
};

}  // namespace digruber::net
