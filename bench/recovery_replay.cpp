// Recovery-replay bench: what does a decision-point restart cost the mesh?
//
// Same seed, same workload, same crash/restart schedule, three recovery
// strategies:
//
//   * catchup  — no disk (the baseline broker): the restarted point comes
//     back empty and pulls every neighbor's FULL VO range (catch-up),
//   * wal      — durable WAL + checkpoints, flooding anti-entropy: local
//     replay restores the pre-crash committed state, then the legacy full
//     catch-up still runs (mostly shipping records replay already has),
//   * wal+delta — durable replay plus digest-driven delta anti-entropy:
//     replay restores local state and the piggybacked digests trigger
//     targeted pulls for only the records committed elsewhere DURING the
//     outage — the gap, not the world.
//
// Reported per strategy: records replayed locally from disk, anti-entropy
// records shipped over the network to the restarted point (catch-up
// snapshots + delta pulls), accounted replay time, and the WAL/checkpoint
// device traffic the durability paid for it. The headline is the network
// column: local replay should shrink the transfer to the outage gap.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace digruber;

namespace {

struct Strategy {
  std::string name;
  bool durable = false;
  bool delta = false;
};

struct Row {
  std::string name;
  std::uint64_t replayed = 0;        // records restored from checkpoint+WAL
  std::uint64_t catchup_records = 0; // full-snapshot records shipped to it
  std::uint64_t delta_records = 0;   // targeted delta records applied
  double recovery_s = 0.0;           // accounted local replay time
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t queries = 0;
};

Row run_strategy(const Strategy& strategy, const bench::BenchArgs& args,
                 trace::Tracer* tracer) {
  const double horizon_s = args.quick ? 360.0 : 900.0;
  // One mid-run crash with a one-minute outage: long enough for the
  // surviving points to commit a real gap, short enough that the restarted
  // point's pre-crash state still dominates — the regime where replaying
  // locally beats re-shipping the world.
  const double crash_s = horizon_s * 0.4;
  const double restart_s = crash_s + 60.0;

  experiments::ScenarioConfig config;
  config.name = "recovery-" + strategy.name;
  config.seed = args.seed;
  config.n_dps = 3;
  config.grid_scale = 4;
  config.n_clients = args.quick ? 24 : 48;
  config.duration = sim::Duration::seconds(horizon_s);
  config.exchange_interval = sim::Duration::seconds(15);
  config.enable_failover = true;
  config.attempt_timeout = sim::Duration::seconds(5);
  config.fault_plan.add({.at = sim::Time::from_seconds(crash_s),
                         .kind = sim::FaultKind::kDpCrash,
                         .dp = 1});
  config.fault_plan.add({.at = sim::Time::from_seconds(restart_s),
                         .kind = sim::FaultKind::kDpRestart,
                         .dp = 1});
  if (strategy.durable) {
    config.durability = true;
    config.durability_options.checkpoint_interval = sim::Duration::minutes(2);
  }
  if (strategy.delta) {
    config.partition_tolerance = true;
    config.frame_checksums = true;
    config.partition_options.delta_pull_min_gap = sim::Duration::seconds(10);
  }

  // Only the durable+delta run is traced: one strategy's recovery
  // lifecycle per file keeps `trace-inspect --recovery` output readable.
  if (strategy.durable && strategy.delta) config.tracer = tracer;

  const experiments::ScenarioResult result = experiments::run_scenario(config);

  Row row;
  row.name = strategy.name;
  row.queries = result.clients.queries;
  const experiments::DpStats& dp = result.dps[1];
  row.replayed = dp.replay_records;
  using ::digruber::digruber::PullReason;
  row.catchup_records = dp.pull(PullReason::kCatchUp).received;
  row.delta_records = dp.pull(PullReason::kDelta).applied;
  row.recovery_s = dp.last_recovery_s;
  row.wal_appends = dp.wal_appends;
  row.wal_bytes = dp.wal_bytes;
  row.checkpoints = dp.checkpoints_written;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::unique_ptr<trace::Tracer> tracer = bench::make_tracer(args);

  const std::vector<Strategy> strategies = {
      {"catchup", false, false},
      {"wal", true, false},
      {"wal+delta", true, true},
  };

  Table table({"strategy", "queries", "replayed", "net catchup", "net delta",
               "net total", "recovery s", "wal appends", "wal KiB", "ckpts"});
  std::uint64_t baseline_net = 0;
  std::uint64_t durable_net = 0;
  for (const Strategy& strategy : strategies) {
    const Row row = run_strategy(strategy, args, tracer.get());
    const std::uint64_t net = row.catchup_records + row.delta_records;
    if (strategy.name == "catchup") baseline_net = net;
    if (strategy.name == "wal+delta") durable_net = net;
    char recovery[32];
    std::snprintf(recovery, sizeof recovery, "%.3f", row.recovery_s);
    table.add_row({row.name, std::to_string(row.queries),
                   std::to_string(row.replayed), std::to_string(row.catchup_records),
                   std::to_string(row.delta_records), std::to_string(net),
                   recovery, std::to_string(row.wal_appends),
                   std::to_string(row.wal_bytes / 1024),
                   std::to_string(row.checkpoints)});
  }
  table.render(std::cout);
  bench::save_trace(args, tracer.get(), std::cout);

  if (baseline_net == 0) {
    std::cout << "\nrecovery_replay: baseline shipped no catch-up records — "
                 "schedule too quiet to compare\n";
    return 1;
  }
  const double ratio = double(durable_net) / double(baseline_net);
  std::cout << "\nrecovery_replay: durable+delta restart shipped " << durable_net
            << " anti-entropy records vs " << baseline_net
            << " for the full catch-up baseline ("
            << int(100.0 * (1.0 - ratio) + 0.5) << "% fewer)\n";
  // The acceptance bar: local replay must measurably shrink the transfer.
  return durable_net < baseline_net ? 0 : 1;
}
