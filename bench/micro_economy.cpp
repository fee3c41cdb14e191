// Micro-benchmarks for the economy hot paths: the karma gate runs
// charge + admit on EVERY brokered query, settlement walks all ledgers
// once per epoch, arbitration sorts the contenders whenever demand
// exceeds capacity, and the price quote is computed per site-loads
// reply — so their costs bound how cheap "economy enabled" can be.
#include <benchmark/benchmark.h>

#include "digruber/economy/economy.hpp"

using namespace digruber;

namespace {

economy::EconomyOptions make_options(double epoch_s) {
  economy::EconomyOptions options;
  options.enabled = true;
  options.allocator = economy::Allocator::kKarma;
  options.epoch = sim::Duration::seconds(epoch_s);
  options.capacity_cpus = 1000;
  return options;
}

std::vector<std::pair<VoId, double>> equal_shares(std::size_t n_vos) {
  std::vector<std::pair<VoId, double>> shares;
  shares.reserve(n_vos);
  for (std::size_t i = 0; i < n_vos; ++i) {
    shares.emplace_back(VoId(i), 1.0 / double(n_vos));
  }
  return shares;
}

// The per-query path: meter the dispatch and run the admission gate.
// A long epoch keeps settlement out of the loop; half the VOs are driven
// over allowance so admit() pays the arbitration scan it does in steady
// state under contention.
void BM_BankChargeAdmit(benchmark::State& state) {
  const std::size_t n_vos = std::size_t(state.range(0));
  const economy::EconomyOptions options = make_options(1e9);
  economy::CreditBank bank(options, equal_shares(n_vos));
  const sim::Time now = sim::Time::from_seconds(1.0);
  for (std::size_t i = 0; i < n_vos / 2; ++i) {
    bank.charge(VoId(i), 10.0 * options.capacity_cpus, now);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const VoId vo(next);
    next = (next + 1) % n_vos;
    bank.charge(vo, 100.0, now);
    benchmark::DoNotOptimize(bank.admit(vo, now, 0.5));
  }
  state.counters["vos"] = double(n_vos);
}
BENCHMARK(BM_BankChargeAdmit)->Arg(5)->Arg(50);

// One settlement epoch: charge every ledger (half over, half under
// share), then roll across the boundary so the zero-sum transfer and
// cap clamp run over all VOs.
void BM_BankSettleEpoch(benchmark::State& state) {
  const std::size_t n_vos = std::size_t(state.range(0));
  const double epoch_s = 120.0;
  economy::CreditBank bank(make_options(epoch_s), equal_shares(n_vos));
  std::int64_t epoch = 1;
  for (auto _ : state) {
    const sim::Time in_epoch =
        sim::Time::from_seconds(double(epoch - 1) * epoch_s + 1.0);
    const double fair = 120.0 * 1000.0 / double(n_vos);
    for (std::size_t i = 0; i < n_vos; ++i) {
      bank.charge(VoId(i), i % 2 ? 2.0 * fair : 0.5 * fair, in_epoch);
    }
    bank.roll_to(sim::Time::from_seconds(double(epoch) * epoch_s + 1.0));
    ++epoch;
  }
  state.counters["vos"] = double(n_vos);
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n_vos));
}
BENCHMARK(BM_BankSettleEpoch)->Arg(5)->Arg(50)->Arg(500);

// Batch arbitration: severity-then-credit sort plus the capacity walk.
void BM_Arbitrate(benchmark::State& state) {
  const std::size_t n_vos = std::size_t(state.range(0));
  economy::CreditBank bank(make_options(1e9), equal_shares(n_vos));
  const sim::Time now = sim::Time::from_seconds(1.0);
  std::vector<std::pair<VoId, double>> demands;
  demands.reserve(n_vos);
  for (std::size_t i = 0; i < n_vos; ++i) {
    bank.charge(VoId(i), double(1 + (i * 7) % 50) * 100.0, now);
    demands.emplace_back(VoId(i), double(1 + (i * 13) % 40) * 60.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.arbitrate(demands, 50'000.0, now));
  }
  state.counters["vos"] = double(n_vos);
}
BENCHMARK(BM_Arbitrate)->Arg(5)->Arg(50)->Arg(500);

// The congestion price attached to every site-loads reply.
void BM_QuotePrice(benchmark::State& state) {
  double u = 0.0;
  for (auto _ : state) {
    u += 0.001;
    if (u > 1.0) u = 0.0;
    benchmark::DoNotOptimize(economy::quote_price(u, u * 40.0));
  }
}
BENCHMARK(BM_QuotePrice);

}  // namespace

BENCHMARK_MAIN();
