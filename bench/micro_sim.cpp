// Micro-benchmarks for the discrete-event kernel (sim::Simulation):
// schedule_at, cancel and dispatch at a given queue depth. The depths
// bracket the ones digruber-perf sizes its `sim` probe from (one event per
// running job, plus a timer per client and per decision point), which at
// seed 7 are about 1,400 (osg-100x), 3,000 (many-tasks) and 4,600
// (paper-10x, all-on).
// Every event carries a closure sized like the transport's packet-delivery
// one, so std::function allocates as it does for most events of a run.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/sim/simulation.hpp"

using namespace digruber;

namespace {

struct Closure {
  std::array<std::uint64_t, 5> pad{};
};

/// Hold model: `depth` pending events at random offsets of up to about
/// twice the depth in microseconds, each scheduling a successor the same
/// way when it fires, so dispatch runs at a constant queue depth.
class HoldModel {
 public:
  explicit HoldModel(std::size_t depth) : spread_us_(2 * depth + 1) {
    for (std::size_t i = 0; i < depth; ++i) arm();
  }

  sim::Simulation& sim() { return sim_; }

  /// Dispatch `events` events, each scheduling its successor.
  void dispatch(std::uint64_t events) {
    budget_ = events;
    sim_.run();
  }

  /// Schedule one event that does nothing but hold its closure.
  sim::EventId schedule_idle() {
    return sim_.schedule_at(sim_.now() + random_delay(),
                            [c = Closure{}] { benchmark::DoNotOptimize(c); });
  }

 private:
  sim::Duration random_delay() {
    return sim::Duration::micros(1 + std::int64_t(rng_.uniform_index(spread_us_)));
  }
  void arm() {
    sim_.schedule_at(sim_.now() + random_delay(), [this, c = Closure{}] {
      benchmark::DoNotOptimize(c);
      if (--budget_ == 0) sim_.stop();
      arm();
    });
  }

  sim::Simulation sim_{1};
  Rng rng_{53};
  std::uint64_t spread_us_;
  std::uint64_t budget_ = 0;
};

// One dispatch per iteration: pop the earliest event, run it, and schedule
// its successor, at a constant queue depth.
void BM_SimDispatch(benchmark::State& state) {
  HoldModel hold(std::size_t(state.range(0)));
  for (auto _ : state) hold.dispatch(1);
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = double(state.range(0));
}

// schedule_at of `depth` events into a queue already holding `depth`, so
// the queue grows from one to two times the depth over an iteration.
void BM_SimSchedule(benchmark::State& state) {
  const auto depth = std::size_t(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto hold = std::make_unique<HoldModel>(depth);
    state.ResumeTiming();
    for (std::size_t i = 0; i < depth; ++i) {
      benchmark::DoNotOptimize(hold->schedule_idle());
    }
    state.PauseTiming();
    hold.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(depth));
  state.counters["depth"] = double(depth);
}

// cancel of `depth` pending events, in the order they were scheduled, in a
// queue that also holds `depth` others.
void BM_SimCancel(benchmark::State& state) {
  const auto depth = std::size_t(state.range(0));
  std::vector<sim::EventId> ids(depth);
  for (auto _ : state) {
    state.PauseTiming();
    auto hold = std::make_unique<HoldModel>(depth);
    for (sim::EventId& id : ids) id = hold->schedule_idle();
    state.ResumeTiming();
    for (const sim::EventId id : ids) hold->sim().cancel(id);
    state.PauseTiming();
    hold.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(depth));
  state.counters["depth"] = double(depth);
}

BENCHMARK(BM_SimDispatch)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);
BENCHMARK(BM_SimSchedule)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);
BENCHMARK(BM_SimCancel)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

}  // namespace

BENCHMARK_MAIN();
