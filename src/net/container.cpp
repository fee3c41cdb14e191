#include "digruber/net/container.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace digruber::net {
namespace {

/// Query-queue depth, as a fraction of queue_limit, above which pickup
/// flips to LIFO for the query class (control stays FIFO).
constexpr double kLifoFraction = 0.5;
/// EWMA smoothing for the per-request service-time estimate that feeds the
/// queue-sojourn prediction.
constexpr double kEwmaAlpha = 0.2;
/// Bounds on the retry_after hint attached to typed rejections.
constexpr sim::Duration kMinRetryAfter = sim::Duration::millis(250);
constexpr sim::Duration kMaxRetryAfter = sim::Duration::seconds(30);

}  // namespace

ContainerProfile ContainerProfile::gt3() {
  ContainerProfile p;
  p.name = "GT3.2";
  p.workers = 2;
  p.queue_limit = 4096;
  p.base_overhead = sim::Duration::millis(25);
  p.auth_cost = sim::Duration::millis(180);
  p.parse_cost_per_kb = sim::Duration::millis(18);
  p.serialize_cost_per_kb = sim::Duration::millis(18);
  p.speed = 1.0;
  return p;
}

ContainerProfile ContainerProfile::gt4() {
  // The GT 3.9.4 prerelease the paper used is functionality-equivalent to
  // GT4 but roughly half the speed of GT3.2 on the same hardware.
  ContainerProfile p = gt3();
  p.name = "GT4(3.9.4)";
  p.auth_cost = sim::Duration::millis(380);
  p.parse_cost_per_kb = sim::Duration::millis(36);
  p.serialize_cost_per_kb = sim::Duration::millis(36);
  return p;
}

ContainerProfile ContainerProfile::gt4_c() {
  ContainerProfile p = gt3();
  p.name = "GT4-C";
  p.base_overhead = sim::Duration::millis(8);
  p.auth_cost = sim::Duration::millis(45);
  p.parse_cost_per_kb = sim::Duration::millis(3);
  p.serialize_cost_per_kb = sim::Duration::millis(3);
  return p;
}

ServiceContainer::ServiceContainer(sim::Simulation& sim, ContainerProfile profile)
    : sim_(sim), profile_(std::move(profile)) {
  assert(profile_.workers > 0);
}

sim::Duration ServiceContainer::service_time(std::size_t request_bytes,
                                             std::size_t reply_bytes,
                                             sim::Duration handler_cost) const {
  const double req_kb = double(request_bytes) / 1024.0;
  const double rep_kb = double(reply_bytes) / 1024.0;
  const sim::Duration raw = profile_.base_overhead + profile_.auth_cost +
                            profile_.parse_cost_per_kb * req_kb +
                            profile_.serialize_cost_per_kb * rep_kb + handler_cost;
  return raw * (1.0 / profile_.speed);
}

sim::Duration ServiceContainer::est_sojourn() const {
  if (busy_ < profile_.workers) return sim::Duration::zero();
  const double ahead = double(queue_depth()) + 1.0;
  return sim::Duration::seconds(ewma_service_s_ * ahead /
                                double(profile_.workers));
}

sim::Duration ServiceContainer::retry_after_hint() const {
  const sim::Duration drain = sim::Duration::seconds(
      ewma_service_s_ * double(queue_depth() + 1) / double(profile_.workers));
  return std::clamp(drain, kMinRetryAfter, kMaxRetryAfter);
}

bool ServiceContainer::submit(std::size_t request_bytes, Handler run, Completion done) {
  return submit_ex(request_bytes, std::move(run), std::move(done),
                   Priority::kQuery)
      .accepted();
}

Admission ServiceContainer::submit_ex(std::size_t request_bytes, Handler run,
                                      Completion done, Priority priority,
                                      sim::Time deadline, Shed on_shed) {
  ++submitted_;
  Request request{sim_.now(), request_bytes, std::move(run), std::move(done),
                  deadline,   std::move(on_shed)};
  if (busy_ < profile_.workers) {
    start(std::move(request));
    return {};
  }
  if (!profile_.overload_control) {
    // Legacy model: one FIFO queue, silent refusal at the limit, priority
    // and deadline ignored.
    if (queue_.size() >= profile_.queue_limit) {
      ++refused_;
      return {AdmitResult::kQueueFull, sim::Duration::zero()};
    }
    queue_.push_back(std::move(request));
    return {};
  }

  // Overload control. Control traffic is always admitted: shedding the
  // state-exchange/anti-entropy plane behind query traffic would stop the
  // mesh from converging exactly when it is needed most.
  if (priority == Priority::kControl) {
    control_.push_back(std::move(request));
    return {};
  }
  if (queue_depth() >= profile_.queue_limit) {
    ++refused_;
    return {AdmitResult::kQueueFull, retry_after_hint()};
  }
  // Deadline-aware admission: a request whose predicted sojourn already
  // overruns its deadline is doomed — serving it would waste a worker on
  // work the client has given up on.
  if (deadline > sim::Time::zero() && sim_.now() + est_sojourn() > deadline) {
    ++shed_deadline_;
    return {AdmitResult::kDeadline, retry_after_hint()};
  }
  queue_.push_back(std::move(request));
  return {};
}

void ServiceContainer::start(Request request) {
  ++busy_;
  Served served = request.run();
  const sim::Duration service =
      service_time(request.bytes, served.reply.size(), served.handler_cost);
  busy_time_ = busy_time_ + service;
  ewma_service_s_ = ewma_service_s_ > 0.0
                        ? kEwmaAlpha * service.to_seconds() +
                              (1.0 - kEwmaAlpha) * ewma_service_s_
                        : service.to_seconds();
  const sim::Time arrived = request.arrived;
  sim_.schedule_after(
      service, [this, arrived, epoch = epoch_, done = std::move(request.done),
                reply = std::move(served.reply)]() mutable {
        if (epoch != epoch_) return;  // aborted by a crash: orphaned work
        ++completed_;
        sojourn_.add((sim_.now() - arrived).to_seconds());
        done(std::move(reply));
        finish();
      });
}

void ServiceContainer::abort_all() {
  aborted_ += queue_.size() + control_.size() + std::uint64_t(busy_);
  queue_.clear();
  control_.clear();
  busy_ = 0;
  ++epoch_;
}

bool ServiceContainer::start_next_overload() {
  // Control first, FIFO: exchange and catch-up traffic keeps its ordering
  // guarantees and is never starved by the query backlog.
  if (!control_.empty()) {
    Request next = std::move(control_.front());
    control_.pop_front();
    start(std::move(next));
    return true;
  }
  const std::size_t lifo_threshold =
      std::size_t(kLifoFraction * double(profile_.queue_limit));
  while (!queue_.empty()) {
    const bool lifo = queue_.size() >= std::max<std::size_t>(lifo_threshold, 1);
    Request next = lifo ? std::move(queue_.back()) : std::move(queue_.front());
    if (lifo) {
      queue_.pop_back();
    } else {
      queue_.pop_front();
    }
    // Pickup-time shed: the deadline passed while this request queued.
    // Under overload, FIFO would make the container a machine that serves
    // only expired work; LIFO + shedding keeps fresh requests inside their
    // deadline at the cost of the stale tail (which already timed out
    // client-side).
    if (next.deadline > sim::Time::zero() && sim_.now() > next.deadline) {
      ++shed_deadline_;
      if (next.on_shed) next.on_shed(retry_after_hint());
      continue;
    }
    if (lifo) ++lifo_pickups_;
    start(std::move(next));
    return true;
  }
  return false;
}

void ServiceContainer::finish() {
  --busy_;
  if (busy_ >= profile_.workers) return;
  if (profile_.overload_control) {
    start_next_overload();
    return;
  }
  if (!queue_.empty()) {
    Request next = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(next));
  }
}

double ServiceContainer::utilization(sim::Time now) const {
  const double elapsed = now.to_seconds();
  if (elapsed <= 0) return 0.0;
  return busy_time_.to_seconds() / (elapsed * profile_.workers);
}

}  // namespace digruber::net
