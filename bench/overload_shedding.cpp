// Overload-shedding bench: drives a single GT3 decision point across its
// saturation knee with increasing client fleets and contrasts the legacy
// container (FIFO queue, silent refusals, clients retrying blind) against
// the overload-control stack (deadline-aware admission, typed NACKs with
// retry_after, LIFO-under-overload, retry budgets, p2c failover).
//
// Past the knee the FIFO container degenerates into a machine that serves
// only already-expired work: every queued request waits longer than the
// 60 s client deadline, so the worker pool burns at 100% utilization
// producing replies nobody is waiting for. Shedding doomed work at
// admission (and at pickup) spends the same worker-seconds on requests
// that can still make their deadline — goodput holds and the tail
// collapses instead of the service.
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"

using namespace digruber;

namespace {

struct ArmResult {
  double goodput_qps = 0.0;  // queries handled by GRUBER per second
  double p99_s = 0.0;
  double handled_pct = 0.0;
  metrics::OverloadCounters overload;
};

ArmResult run_arm(const bench::BenchArgs& args, int n_clients, bool shed) {
  experiments::ScenarioConfig cfg =
      bench::paper_config(args, net::ContainerProfile::gt3(), 1);
  cfg.name = shed ? "overload-shed" : "overload-noshed";
  cfg.n_clients = n_clients;
  // A bounded accept queue keeps the comparison honest: the legacy arm
  // refuses silently at the limit, the shedding arm NACKs with a hint.
  cfg.profile.queue_limit = 512;
  // The no-shed arm is the pre-overload-control system: one blocking
  // attempt per query spending the whole 60 s budget against a FIFO
  // container that serves stale work long after the client hung up. The
  // shed arm is the full stack from this change: 10 s attempt deadlines on
  // the wire, deadline-aware admission + pickup shed, typed NACKs with
  // retry_after, and token-budgeted retries.
  if (shed) {
    cfg.enable_failover = true;
    cfg.failover_backups = 0;  // one DP: retries land on the same container
    cfg.attempt_timeout = sim::Duration::seconds(10);
    cfg.overload_control = true;
  }

  const experiments::ScenarioResult r = experiments::run_scenario(cfg);
  ArmResult out;
  out.goodput_qps = double(r.clients.handled) / cfg.duration.to_seconds();
  // Tail over SERVED responses. Queries that exhaust their retry budget and
  // fall back are give-ups, not responses — their "latency" is whatever the
  // client's 60 s budget allowed, which says nothing about service quality.
  out.p99_s = r.handled.response_p99_s;
  out.handled_pct = r.handled.request_share;
  out.overload = r.overload;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  // A closed-loop fleet self-limits at n_clients outstanding requests, so
  // the FIFO knee sits where the fleet's standing queue crosses the 60 s
  // client budget (~200 clients for one quick-mode GT3 DP; earlier in full
  // mode, where the 10x grid doubles per-query cost).
  const std::vector<int> sweep = args.quick
                                     ? std::vector<int>{60, 120, 240, 300}
                                     : std::vector<int>{60, 120, 180, 240};

  std::cout << "== Overload shedding: 1 GT3 decision point across the "
               "saturation knee ==\n";
  Table table({"clients", "goodput shed (q/s)", "goodput no-shed (q/s)",
               "p99 shed (s)", "p99 no-shed (s)", "handled shed",
               "handled no-shed", "shed", "NACKs"});

  ArmResult knee_shed, knee_noshed;
  // The process-wide wire counters, as the last shed arm alone left them.
  std::ostringstream knee_wire;
  for (const int n : sweep) {
    const bool last = n == sweep.back();
    if (last) net::wire::wire_stats().reset();
    const ArmResult with_shed = run_arm(args, n, true);
    if (last) diperf::render_wire(knee_wire, net::wire::wire_stats());
    const ArmResult without = run_arm(args, n, false);
    table.add_row({std::to_string(n), Table::num(with_shed.goodput_qps, 2),
                   Table::num(without.goodput_qps, 2),
                   Table::num(with_shed.p99_s, 1), Table::num(without.p99_s, 1),
                   Table::pct(with_shed.handled_pct),
                   Table::pct(without.handled_pct),
                   std::to_string(with_shed.overload.shed_total()),
                   std::to_string(with_shed.overload.overload_nacks)});
    knee_shed = with_shed;
    knee_noshed = without;
  }
  table.render(std::cout);
  std::cout << "\n";

  diperf::render_overload(std::cout, knee_shed.overload);
  std::cout << knee_wire.str();

  // Verdict at the deepest point past the knee (the largest fleet).
  const bool goodput_up = knee_shed.goodput_qps >= knee_noshed.goodput_qps;
  const bool tail_down = knee_shed.p99_s <= knee_noshed.p99_s;
  std::cout << "past the knee (" << sweep.back() << " clients): goodput "
            << (goodput_up ? "HELD" : "NOT held") << " ("
            << Table::num(knee_shed.goodput_qps, 2) << " vs "
            << Table::num(knee_noshed.goodput_qps, 2) << " q/s), p99 "
            << (tail_down ? "LOWER" : "NOT lower") << " ("
            << Table::num(knee_shed.p99_s, 1) << " vs "
            << Table::num(knee_noshed.p99_s, 1) << " s)\n";
  return goodput_up && tail_down ? 0 : 1;
}
