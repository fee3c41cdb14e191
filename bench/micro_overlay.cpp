// Micro-benchmarks for the dissemination overlay: per-round target
// selection and topology rebuilds run inside every decision point's
// exchange tick, and must stay negligible next to the serialization work
// they surround.
#include <benchmark/benchmark.h>

#include <vector>

#include "digruber/overlay/overlay.hpp"

using namespace digruber;

namespace {

constexpr std::size_t kPoints = 100;

overlay::View make_view(std::size_t n, DpId self) {
  overlay::View view;
  view.self = self;
  for (std::size_t i = 0; i < n; ++i) {
    if (DpId(i) == self) continue;
    view.peers.push_back({DpId(i), NodeId(1000 + i)});
  }
  return view;
}

std::vector<NodeId> make_candidates(std::size_t n, DpId self) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (DpId(i) == self) continue;
    out.push_back(NodeId(1000 + i));
  }
  return out;
}

void bm_select(benchmark::State& state, overlay::Kind kind) {
  overlay::Options options;
  options.kind = kind;
  options.seed = 42;
  const DpId self(17);
  const auto strategy = overlay::make_strategy(options, self);
  strategy->rebuild(make_view(kPoints, self));
  const std::vector<NodeId> candidates = make_candidates(kPoints, self);
  std::vector<NodeId> out;
  std::uint64_t round = 0;
  for (auto _ : state) {
    out.clear();
    strategy->select(round++, candidates, out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_SelectMesh(benchmark::State& state) {
  bm_select(state, overlay::Kind::kMesh);
}
void BM_SelectTree(benchmark::State& state) {
  bm_select(state, overlay::Kind::kTree);
}
void BM_SelectGossip(benchmark::State& state) {
  bm_select(state, overlay::Kind::kGossip);
}
void BM_SelectSuperPeer(benchmark::State& state) {
  bm_select(state, overlay::Kind::kSuperPeer);
}
BENCHMARK(BM_SelectMesh);
BENCHMARK(BM_SelectTree);
BENCHMARK(BM_SelectGossip);
BENCHMARK(BM_SelectSuperPeer);

// Structure repair: the full roster-walk a tree point pays when the live
// view changes under churn (the no-change path is the common case and is
// mostly the same walk plus an equality compare).
void BM_RebuildTree(benchmark::State& state) {
  overlay::Options options;
  options.kind = overlay::Kind::kTree;
  const DpId self(17);
  const auto strategy = overlay::make_strategy(options, self);
  const overlay::View view = make_view(kPoints, self);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->rebuild(view));
  }
}
BENCHMARK(BM_RebuildTree);

}  // namespace

BENCHMARK_MAIN();
