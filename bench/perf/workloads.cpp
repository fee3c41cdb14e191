#include <stdexcept>

#include "digruber/experiments/config.hpp"
#include "perf.hpp"

namespace perf {

// All four are the DiPerF closed loop of the paper: 120 testers start
// staggered over the first half of the window, each with a 60 s timeout
// and random-site fallback, then a think time before the next job. Every
// workload runs one simulated hour; the set is chosen so each hot layer is
// exercised by one workload and bypassed by another.
//
// Each tester is bound to one decision point at random, and the slowest
// queries come from the point that draws the most testers, so the tail
// moves with the seed. Workloads whose hour fits twice in a run pool two
// seeds; all-on, whose hour takes most of a run, uses one.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-10x",
       "The paper's PlanetLab deployment: each query scans about 14 active "
       "records per site over 300 sites, so GRUBER view and USLA "
       "evaluation dominate host time.",
       {{"dps", "10"}, {"clients", "120"}, {"grid_scale", "10"}},
       2},
      {"osg-100x",
       "Same engine used differently: 3,000 sites with under one active "
       "record each, so per-site overhead dominates; set-up is largest and "
       "a query's service takes 7.5 simulated seconds.",
       // Three times the points and a 30 s think time keep every seed's
       // queries inside the 60 s timeout; at 10 points and 9 s the points
       // saturate and some seeds time queries out.
       {{"dps", "30"}, {"clients", "120"}, {"grid_scale", "100"}, {"think_s", "30"}},
       2},
      {"many-tasks",
       "Short jobs on a 30-site grid behind 40 tree-linked decision points: "
       "the engine does little per query, so the event kernel, transport, "
       "exchange relay and per-point dedup sets carry the run.",
       {{"dps", "40"},
        {"overlay", "tree"},
        {"clients", "120"},
        {"grid_scale", "1"},
        {"runtime_mean_s", "60"},
        {"think_s", "1"}},
       2},
      {"all-on",
       "Every optional subsystem on: a WAL append and fsync per record, a "
       "view digest and CRC-32C on every reply. None of this runs in the "
       "other three, which are its no-change controls.",
       // staleness_s is raised above the 3-minute exchange interval: the
       // 2-minute default makes partition tolerance refuse a large share
       // of queries in a fault-free run.
       {{"dps", "10"},
        {"clients", "120"},
        {"grid_scale", "10"},
        {"membership", "true"},
        {"partition_tolerance", "true"},
        {"staleness_s", "360"},
        {"checksums", "true"},
        {"durability", "true"},
        {"request_ids", "true"},
        {"allocator", "karma"},
        {"placement", "market"},
        {"budget_mean", "50"},
        {"deadline_slack", "3"},
        {"overload", "true"}}},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t pooled_seed(std::uint64_t seed, int index) {
  if (index == 0) return seed;
  // splitmix64 of (seed, index): distinct, well-mixed seeds per index.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * std::uint64_t(index);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

dg::experiments::ScenarioConfig make_config(const Workload& workload,
                                            std::uint64_t seed,
                                            dg::sim::Duration window) {
  dg::Config flat;
  for (const auto& [key, value] : workload.keys) flat.set(key, value);
  flat.set("name", std::string(workload.name));
  const auto parsed = dg::experiments::scenario_from_config(flat);
  if (!parsed.ok()) {
    throw std::runtime_error("workload " + std::string(workload.name) + ": " +
                             parsed.error());
  }
  dg::experiments::ScenarioConfig config = parsed.value();
  config.seed = seed;  // set here, so every 64-bit seed is accepted
  // Testers start at t = 1 s, spaced over the first half of the window,
  // and stop at its end. One that starts after its stop event runs its
  // closed loop forever, so a window shorter than kMinWindow never returns.
  if (window < kMinWindow) {
    throw std::invalid_argument("measurement window must be >= 2 s");
  }
  config.duration = window;
  return config;
}

}  // namespace perf
