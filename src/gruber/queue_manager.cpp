#include "digruber/gruber/queue_manager.hpp"

#include <utility>

namespace digruber::gruber {

QueueManager::QueueManager(sim::Simulation& sim, GruberEngine& engine,
                           std::unique_ptr<SiteSelector> selector,
                           Dispatch dispatch, Options options)
    : sim_(sim),
      engine_(engine),
      selector_(std::move(selector)),
      dispatch_(std::move(dispatch)),
      options_(options),
      // First pump after one interval: enqueue/pump never race at t=0.
      timer_(sim, options.interval, [this] { pump(); }, options.interval) {}

void QueueManager::enqueue(grid::Job job) {
  job.created = sim_.now();
  pending_.push_back(std::move(job));
}

void QueueManager::pump() {
  int started = 0;
  bool blocked = false;
  while (started < options_.burst && !pending_.empty() &&
         in_flight_ < options_.max_in_flight) {
    grid::Job job = pending_.front();
    const std::vector<SiteLoad> candidates = engine_.candidates(job, sim_.now());
    const std::optional<SiteId> site = selector_->select(candidates, job);
    if (!site) {
      // VO-level USLA enforcement: nothing admissible right now; hold the
      // queue rather than over-dispatching.
      blocked = true;
      break;
    }
    pending_.pop_front();
    DispatchRecord record;
    record.site = *site;
    record.vo = job.vo;
    record.group = job.group;
    record.user = job.user;
    record.cpus = job.cpus;
    record.when = sim_.now();
    record.est_runtime = job.runtime;
    engine_.record(record, sim_.now());

    ++in_flight_;
    ++dispatched_;
    ++started;
    dispatch_(std::move(job), *site, [this](const grid::Job&) {
      --in_flight_;
      ++completed_;
    });
  }
  if (blocked && !pending_.empty()) ++starved_;
}

}  // namespace digruber::gruber
