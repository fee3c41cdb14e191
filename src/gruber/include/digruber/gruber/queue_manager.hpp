#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "digruber/gruber/engine.hpp"
#include "digruber/gruber/selectors.hpp"
#include "digruber/sim/simulation.hpp"

namespace digruber::gruber {

/// The GRUBER queue manager (paper Section 3.2): lives on a submission
/// host, monitors VO policies, and decides how many jobs to start and
/// when, consulting the engine for site recommendations. The DI-GRUBER
/// experiments, benches and examples bypass it (GRUBER acts as a pure site
/// recommender); only its unit tests drive it.
class QueueManager {
 public:
  struct Options {
    /// Dispatch pacing: at most `burst` starts every `interval`.
    int burst = 5;
    sim::Duration interval = sim::Duration::seconds(10);
    /// Upper bound on jobs in flight chosen by the VO planner.
    int max_in_flight = 1000;
  };

  /// `dispatch` performs the actual submission and must eventually invoke
  /// the completion callback it is given.
  using Dispatch = std::function<void(grid::Job job, SiteId site,
                                      std::function<void(const grid::Job&)> done)>;

  QueueManager(sim::Simulation& sim, GruberEngine& engine,
               std::unique_ptr<SiteSelector> selector, Dispatch dispatch,
               Options options);
  QueueManager(sim::Simulation& sim, GruberEngine& engine,
               std::unique_ptr<SiteSelector> selector, Dispatch dispatch)
      : QueueManager(sim, engine, std::move(selector), std::move(dispatch),
                     Options{}) {}

  /// Enqueue a job submitted by a user of this host's VO.
  void enqueue(grid::Job job);

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] int in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t starved() const { return starved_; }

  void stop() { timer_.stop(); }

 private:
  void pump();

  sim::Simulation& sim_;
  GruberEngine& engine_;
  std::unique_ptr<SiteSelector> selector_;
  Dispatch dispatch_;
  Options options_;

  std::deque<grid::Job> pending_;
  int in_flight_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t starved_ = 0;  // pump passes with work but no admissible site
  sim::PeriodicTimer timer_;
};

}  // namespace digruber::gruber
