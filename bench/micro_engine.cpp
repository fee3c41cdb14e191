// Micro-benchmarks for the GRUBER engine: candidate generation (the USLA
// evaluation every GetSiteLoads query performs) and the client-side site
// selectors, across grid sizes — the real-CPU analogue of the modelled
// `eval_cost_per_site` handler cost.
#include <benchmark/benchmark.h>

#include <cmath>

#include "digruber/experiments/scenario.hpp"
#include "digruber/gruber/selectors.hpp"

using namespace digruber;

namespace {

struct EngineFixture {
  grid::VoCatalog catalog;
  usla::AllocationTree tree;
  gruber::GruberEngine engine;
  grid::Job job;

  explicit EngineFixture(std::size_t n_sites)
      : catalog(grid::VoCatalog::uniform(10, 10)),
        tree(usla::AllocationTree::build(experiments::default_agreements(catalog),
                                         catalog)
                 .value()),
        engine(catalog, tree) {
    Rng rng(31);
    std::vector<grid::SiteSnapshot> snapshots;
    for (std::size_t i = 0; i < n_sites; ++i) {
      grid::SiteSnapshot s;
      s.site = SiteId(i);
      s.total_cpus = std::int32_t(16 + rng.uniform_index(2000));
      s.free_cpus = std::int32_t(rng.uniform_index(std::uint64_t(s.total_cpus)));
      snapshots.push_back(s);
    }
    engine.view().bootstrap(snapshots);
    job.id = JobId(1);
    job.vo = VoId(3);
    job.group = GroupId(31);
    job.user = UserId(31);
    job.cpus = 1;
    job.runtime = sim::Duration::seconds(450);
  }
};

void BM_EngineCandidates(benchmark::State& state) {
  EngineFixture fixture{std::size_t(state.range(0))};
  for (auto _ : state) {
    const auto candidates = fixture.engine.candidates(fixture.job, sim::Time::zero());
    benchmark::DoNotOptimize(candidates.data());
  }
  state.counters["sites"] = double(state.range(0));
}
BENCHMARK(BM_EngineCandidates)->Arg(30)->Arg(300)->Arg(3000);

void BM_EngineCandidatesWithActiveRecords(benchmark::State& state) {
  EngineFixture fixture{300};
  Rng rng(37);
  for (int i = 0; i < int(state.range(0)); ++i) {
    gruber::DispatchRecord r;
    r.origin = DpId(0);
    r.seq = std::uint64_t(i);
    r.site = SiteId(rng.uniform_index(300));
    r.vo = VoId(rng.uniform_index(10));
    r.group = GroupId(rng.uniform_index(100));
    r.user = UserId(rng.uniform_index(100));
    r.cpus = 1;
    r.when = sim::Time::zero();
    r.est_runtime = sim::Duration::hours(10);  // stays active
    fixture.engine.record(r);
  }
  for (auto _ : state) {
    const auto candidates = fixture.engine.candidates(fixture.job, sim::Time::zero());
    benchmark::DoNotOptimize(candidates.data());
  }
  state.counters["active_records"] = double(state.range(0));
}
BENCHMARK(BM_EngineCandidatesWithActiveRecords)->Arg(100)->Arg(1000)->Arg(5000);

// A view of `sites` sites in steady state: each call is one simulated
// second, records a tenth of the population with runtimes of 5-15 s, and
// reads candidates, so about `range(0)` records stay held and some expire
// between any two calls (the prune work the case above, whose records
// never expire, leaves out).
void BM_EngineCandidatesExpiring(benchmark::State& state, std::size_t sites) {
  EngineFixture fixture{sites};
  const int per_call = std::max(1, int(state.range(0)) / 10);
  Rng rng(43);
  sim::Time now = sim::Time::zero();
  std::uint64_t seq = 0;
  const auto record_batch = [&] {
    for (int i = 0; i < per_call; ++i) {
      gruber::DispatchRecord r;
      r.origin = DpId(0);
      r.seq = ++seq;
      r.site = SiteId(rng.uniform_index(sites));
      r.vo = VoId(rng.uniform_index(10));
      r.group = GroupId(rng.uniform_index(100));
      r.user = UserId(rng.uniform_index(100));
      r.cpus = 1;
      r.when = now;
      r.est_runtime = sim::Duration::seconds(rng.uniform(5.0, 15.0));
      fixture.engine.record(r, now);
    }
  };
  for (int warm = 0; warm < 20; ++warm) {
    record_batch();
    now = now + sim::Duration::seconds(1);
  }
  for (auto _ : state) {
    record_batch();
    const auto candidates = fixture.engine.candidates(fixture.job, now);
    benchmark::DoNotOptimize(candidates.data());
    now = now + sim::Duration::seconds(1);
  }
  state.counters["active_records"] = double(state.range(0));
  state.counters["sites"] = double(sites);
}
void BM_EngineCandidatesExpiring(benchmark::State& state) {
  BM_EngineCandidatesExpiring(state, 300);
}
BENCHMARK(BM_EngineCandidatesExpiring)->Arg(100)->Arg(1000)->Arg(5000);
// osg-100x's shape: 3,000 sites holding 0.4 records each, so most of a
// call is the per-site cost of sites that hold none.
BENCHMARK_CAPTURE(BM_EngineCandidatesExpiring, sites3000, 3000)->Arg(1200);

// paper-10x's measured shape: the top-k selector keeps sending work to a
// few sites, so ten of 300 sites hold about 1,000 live records each and
// the rest a handful. Each call is one simulated second: eleven records
// land, ten on the hot sites (one each on average), with runtimes of 5 s
// to 2 h (log-uniform), so expiries interleave out of arrival order and
// some records expire between any two calls.
void BM_EngineCandidatesSkewed(benchmark::State& state) {
  constexpr std::size_t kSites = 300;
  constexpr std::size_t kHot = 10;
  EngineFixture fixture{kSites};
  Rng rng(47);
  sim::Time now = sim::Time::zero();
  std::uint64_t seq = 0;
  const auto record_second = [&] {
    for (int i = 0; i < 11; ++i) {
      gruber::DispatchRecord r;
      r.origin = DpId(0);
      r.seq = ++seq;
      r.site = SiteId(i < 10 ? 7 + 29 * rng.uniform_index(kHot)
                             : rng.uniform_index(kSites));
      // As the workload draws a job: a VO, one of its ten groups, and
      // that group's one user.
      r.vo = VoId(rng.uniform_index(10));
      r.group = GroupId(10 * r.vo.value() + rng.uniform_index(10));
      r.user = UserId(r.group.value());
      r.cpus = 1;
      r.when = now;
      r.est_runtime = sim::Duration::seconds(
          std::exp(rng.uniform(std::log(5.0), std::log(7200.0))));
      fixture.engine.record(r, now);
    }
  };
  // Two hours, the longest runtime: the hot sites reach their steady state.
  for (int warm = 0; warm < 7200; ++warm) {
    record_second();
    now = now + sim::Duration::seconds(1);
  }
  for (auto _ : state) {
    record_second();
    const auto candidates = fixture.engine.candidates(fixture.job, now);
    benchmark::DoNotOptimize(candidates.data());
    now = now + sim::Duration::seconds(1);
  }
  state.counters["active_records"] =
      double(fixture.engine.view().active_records(now).size());
}
BENCHMARK(BM_EngineCandidatesSkewed);

void BM_Selector(benchmark::State& state, const char* name) {
  EngineFixture fixture{300};
  const auto candidates = fixture.engine.candidates(fixture.job, sim::Time::zero());
  const auto selector = gruber::make_selector(name, Rng(41));
  for (auto _ : state) {
    auto site = selector->select(candidates, fixture.job);
    benchmark::DoNotOptimize(site);
  }
}
BENCHMARK_CAPTURE(BM_Selector, least_used, "least-used");
BENCHMARK_CAPTURE(BM_Selector, top_k, "top-k");
BENCHMARK_CAPTURE(BM_Selector, round_robin, "round-robin");
BENCHMARK_CAPTURE(BM_Selector, random, "random");
BENCHMARK_CAPTURE(BM_Selector, weighted, "weighted");

}  // namespace

BENCHMARK_MAIN();
