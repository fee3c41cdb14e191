// Resilience bench: kills one of three decision points mid-run, restarts
// it, then partitions the overlay mesh and heals it — and reports
// availability (fraction of queries handled by GRUBER), the scheduling
// accuracy dip and its recovery after the anti-entropy catch-up, and the
// fault-tolerance counters (failovers, breaker trips, re-sync records,
// drops by cause).
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace digruber;

namespace {

struct PhaseStats {
  std::uint64_t total = 0;
  std::uint64_t handled = 0;
  double accuracy_sum = 0.0;

  [[nodiscard]] double handled_fraction() const {
    return total ? double(handled) / double(total) : 0.0;
  }
  [[nodiscard]] double mean_accuracy() const {
    return total ? accuracy_sum / double(total) : 0.0;
  }
};

PhaseStats phase_stats(const std::vector<metrics::RequestSample>& samples,
                       double lo_s, double hi_s) {
  PhaseStats out;
  for (const auto& sample : samples) {
    if (sample.issued_s < lo_s || sample.issued_s >= hi_s) continue;
    ++out.total;
    if (sample.handled) ++out.handled;
    out.accuracy_sum += sample.accuracy;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  experiments::ScenarioConfig cfg =
      bench::paper_config(args, net::ContainerProfile::gt3(), 3);
  cfg.name = "resilience";
  // Size the load for the SURVIVING mesh, not the full one: the fig05
  // ramp is calibrated to saturate 3 decision points, so with one dead
  // the other two collapse (and failover retries amplify request load
  // ~3x against saturated containers, which never drain). A failover
  // experiment needs n-1 headroom.
  cfg.n_clients = args.quick ? 40 : 60;

  const double T = cfg.duration.to_seconds();
  const double crash_s = 0.20 * T;
  const double restart_s = 0.45 * T;
  const double partition_s = 0.60 * T;
  const double heal_s = 0.75 * T;
  // A fault-free control run of the identical configuration: scheduling
  // accuracy degrades with plain load (views drift more between flooding
  // rounds as query rate rises), so fault effects are only meaningful
  // against the same time window of an unfaulted run.
  const experiments::ScenarioResult control = experiments::run_scenario(cfg);

  // Island order matters: clients live on island 0, so the majority pair
  // {1,2} is listed first to keep it client-reachable and isolate dp0.
  using sim::FaultKind;
  using sim::Time;
  cfg.fault_plan.add(
      {.at = Time::from_seconds(crash_s), .kind = FaultKind::kDpCrash, .dp = 0});
  cfg.fault_plan.add(
      {.at = Time::from_seconds(restart_s), .kind = FaultKind::kDpRestart, .dp = 0});
  cfg.fault_plan.add({.at = Time::from_seconds(partition_s),
                      .kind = FaultKind::kPartition,
                      .islands = {{1, 2}, {0}}});
  cfg.fault_plan.add({.at = Time::from_seconds(heal_s), .kind = FaultKind::kHeal});
  // A non-empty plan implies client failover (primary + 2 backups,
  // 10 s per-attempt deadline inside the paper's 60 s budget).

  // With --trace, the faulted run (not the control) records an event
  // trace: the crash/heal fault markers, every query's attempt/failover
  // tree, and the packet hops between them, for Perfetto or trace_inspect.
  const std::unique_ptr<trace::Tracer> tracer = bench::make_tracer(args);
  cfg.tracer = tracer.get();
  const experiments::ScenarioResult r = experiments::run_scenario(cfg);
  cfg.tracer = nullptr;

  bench::print_run_banner(std::cout, r);
  std::cout << "fault plan:\n" << cfg.fault_plan.describe() << "\n";

  diperf::render_figure(
      std::cout,
      "Resilience: GT3, 3 decision points — dp0 crash/restart, then a "
      "partition isolating dp0, and heal",
      r.collector, T);

  // Availability / accuracy timeline over query-issue time, faulted run
  // against the fault-free control of the same window.
  const double bucket_s = args.quick ? 60.0 : 120.0;
  Table timeline({"time (s)", "queries", "handled", "accuracy",
                  "control acc", "phase"});
  for (double t = 0.0; t < T; t += bucket_s) {
    const PhaseStats b = phase_stats(r.samples, t, t + bucket_s);
    const PhaseStats c = phase_stats(control.samples, t, t + bucket_s);
    std::string phase;
    if (t < crash_s) {
      phase = "nominal";
    } else if (t < restart_s) {
      phase = "dp0 down";
    } else if (t < partition_s) {
      phase = "dp0 restarted";
    } else if (t < heal_s) {
      phase = "partition isolates dp0";
    } else {
      phase = "healed";
    }
    timeline.add_row({Table::num(t, 0), std::to_string(b.total),
                      Table::pct(b.handled_fraction()),
                      b.total ? Table::pct(b.mean_accuracy()) : std::string("-"),
                      c.total ? Table::pct(c.mean_accuracy()) : std::string("-"),
                      phase});
  }
  timeline.render(std::cout);
  std::cout << "\n";

  // Recovery summary: each phase of the faulted run against the same time
  // window of the control run.
  struct Phase {
    const char* name;
    double lo, hi;
  };
  const Phase windows[] = {
      {"nominal (pre-crash)", 0.10 * T, crash_s},
      {"dp0 down", crash_s, restart_s},
      {"dp0 restarted", restart_s, partition_s},
      {"partition isolates dp0", partition_s, heal_s},
      {"healed", heal_s, T},
  };
  Table phases({"phase", "queries", "handled", "accuracy", "control acc",
                "fault cost"});
  for (const Phase& w : windows) {
    const PhaseStats s = phase_stats(r.samples, w.lo, w.hi);
    const PhaseStats c = phase_stats(control.samples, w.lo, w.hi);
    phases.add_row({w.name, std::to_string(s.total),
                    Table::pct(s.handled_fraction()),
                    s.total ? Table::pct(s.mean_accuracy()) : std::string("-"),
                    c.total ? Table::pct(c.mean_accuracy()) : std::string("-"),
                    Table::pct(c.mean_accuracy() - s.mean_accuracy())});
  }
  phases.render(std::cout);
  std::cout << "\n";

  const PhaseStats outage = phase_stats(r.samples, crash_s, restart_s);
  const PhaseStats recovered = phase_stats(r.samples, restart_s, partition_s);
  const PhaseStats healed = phase_stats(r.samples, heal_s, T);
  const PhaseStats control_outage = phase_stats(control.samples, crash_s, restart_s);
  const PhaseStats control_recovered =
      phase_stats(control.samples, restart_s, partition_s);
  const PhaseStats control_healed = phase_stats(control.samples, heal_s, T);

  const bool handled_recovered =
      recovered.handled_fraction() >=
      0.95 * control_recovered.handled_fraction();
  // The post-restart window carries the expected accuracy dip (dp0 is
  // stale until catch-up plus one flooding round complete); convergence
  // is judged once the mesh is whole again, against the control's same
  // window — plain load already costs accuracy with no faults at all.
  const bool accuracy_recovered =
      healed.mean_accuracy() >= control_healed.mean_accuracy() - 0.02;
  std::cout << "handled-by-GRUBER recovered after dp0 restart: "
            << (handled_recovered ? "yes" : "NO") << " ("
            << Table::pct(outage.handled_fraction()) << " during outage vs "
            << Table::pct(control_outage.handled_fraction()) << " control, "
            << Table::pct(recovered.handled_fraction()) << " after restart vs "
            << Table::pct(control_recovered.handled_fraction()) << " control)\n";
  std::cout << "accuracy re-converged after catch-up: "
            << (accuracy_recovered ? "yes" : "NO") << " ("
            << Table::pct(recovered.mean_accuracy()) << " post-restart dip vs "
            << Table::pct(control_recovered.mean_accuracy()) << " control, "
            << Table::pct(healed.mean_accuracy()) << " healed vs "
            << Table::pct(control_healed.mean_accuracy()) << " control)\n\n";

  diperf::render_latency_percentiles(std::cout, r.handled, r.not_handled, r.all);

  diperf::render_resilience(std::cout, r.resilience);

  bench::save_trace(args, tracer.get(), std::cout);

  // --- Dynamic membership: time-to-detect and time-to-rebalance. ----------
  // A separate run with the failure detector on: dp0 crashes for good
  // (no restart), and a brand-new decision point joins later via snapshot
  // bootstrap. Reported: how long the mesh takes to declare dp0 dead, and
  // how long the joiner takes to reach serving state and a fair share of
  // the query flow.
  experiments::ScenarioConfig mcfg =
      bench::paper_config(args, net::ContainerProfile::gt3(), 3);
  mcfg.name = "membership";
  mcfg.seed = args.seed;
  mcfg.n_clients = args.quick ? 40 : 60;
  mcfg.membership = true;
  // p2c routing over piggybacked load hints is what actually shifts query
  // flow onto the joiner once clients learn it.
  mcfg.overload_control = true;
  // Heartbeats ride the exchange rounds, so the exchange interval is the
  // detection clock; 30 s keeps the dead verdict well inside the window.
  mcfg.exchange_interval = sim::Duration::seconds(30);
  const double MT = mcfg.duration.to_seconds();
  const double mcrash_s = 0.25 * MT;
  const double mjoin_s = 0.55 * MT;
  mcfg.fault_plan.add(
      {.at = Time::from_seconds(mcrash_s), .kind = FaultKind::kDpCrash, .dp = 0});
  mcfg.fault_plan.add({.at = Time::from_seconds(mjoin_s), .kind = FaultKind::kDpJoin});
  const experiments::ScenarioResult m = experiments::run_scenario(mcfg);

  std::cout << "== dynamic membership: crash detection + join rebalance ==\n";
  std::cout << "fault plan:\n" << mcfg.fault_plan.describe() << "\n";

  // Time-to-detect: crash -> the LAST surviving initial peer's table logs
  // the dead transition for dp0.
  double last_dead_s = -1.0;
  bool all_detected = true;
  for (std::size_t d = 1; d < 3 && d < m.dps.size(); ++d) {
    double dead_s = -1.0;
    for (const auto& tr : m.dps[d].membership_transitions) {
      if (tr.peer == DpId(0) && tr.to == ::digruber::digruber::MemberState::kDead) {
        dead_s = tr.at.to_seconds();
        break;
      }
    }
    if (dead_s < 0) {
      all_detected = false;
      continue;
    }
    last_dead_s = std::max(last_dead_s, dead_s);
  }
  // The soak's bound: two suspicion intervals (2 * suspect_after exchange
  // intervals) cover the dead threshold plus one sweep of granularity.
  const double budget_s = 2.0 * mcfg.membership_options.suspect_after *
                          mcfg.exchange_interval.to_seconds();

  // Time-to-rebalance: join -> the first minute bucket in which the joiner
  // handles at least half its fair share (1/3) of the brokered queries.
  const bool joined = m.dps.size() == 4 && m.dps.back().serving_since_s >= 0.0;
  double rebalance_s = -1.0;
  if (joined) {
    const double bucket = 60.0;
    for (double t = mjoin_s; t + bucket <= MT; t += bucket) {
      std::uint64_t total = 0, to_joiner = 0;
      for (const auto& e : m.trace.entries()) {
        const double ts = e.issued.to_seconds();
        if (ts < t || ts >= t + bucket || !e.handled) continue;
        ++total;
        if (e.dp_index == 3) ++to_joiner;
      }
      if (total >= 10 && double(to_joiner) >= double(total) / 3.0 * 0.5) {
        rebalance_s = (t + bucket) - mjoin_s;  // conservative: bucket end
        break;
      }
    }
  }

  Table membership_table({"metric", "value"});
  membership_table.add_row({"dp0 crash at (s)", Table::num(mcrash_s, 0)});
  membership_table.add_row(
      {"last surviving peer declared dp0 dead (s)",
       all_detected ? Table::num(last_dead_s, 0) : std::string("NEVER")});
  membership_table.add_row(
      {"time-to-detect (s)",
       all_detected ? Table::num(last_dead_s - mcrash_s, 0) : std::string("-")});
  membership_table.add_row(
      {"detection budget: 2 suspicion intervals (s)", Table::num(budget_s, 0)});
  membership_table.add_row({"join at (s)", Table::num(mjoin_s, 0)});
  membership_table.add_row(
      {"joiner serving at (s)",
       joined ? Table::num(m.dps.back().serving_since_s, 0) : std::string("NEVER")});
  membership_table.add_row(
      {"time-to-serving (s)",
       joined ? Table::num(m.dps.back().serving_since_s - mjoin_s, 1)
              : std::string("-")});
  membership_table.add_row(
      {"snapshot records bootstrapped (no replay)",
       Table::num(double(m.membership.join_snapshot_records), 0)});
  membership_table.add_row(
      {"time-to-rebalance: half fair share (s)",
       rebalance_s >= 0 ? Table::num(rebalance_s, 0) : std::string("-")});
  membership_table.render(std::cout);
  std::cout << "\n";

  const bool detect_ok = all_detected && last_dead_s - mcrash_s <= budget_s;
  std::cout << "dp0 death detected by every surviving peer within budget: "
            << (detect_ok ? "yes" : "NO") << "\n";
  std::cout << "joiner reached serving via snapshot bootstrap: "
            << (joined ? "yes" : "NO") << ", rebalanced to fair query share: "
            << (rebalance_s >= 0 ? "yes" : "NO") << "\n\n";

  diperf::render_membership(std::cout, m.membership);

  std::cout << "Expected shape: with failover, availability stays at the\n"
               "fault-free control level through the dp0 outage (backups\n"
               "absorb the load); accuracy dips below the control while dp0\n"
               "is blind after restart and re-converges once the catch-up\n"
               "exchange replays active dispatch records; the partition\n"
               "drops cross-island exchange traffic (counted by cause)\n"
               "until the heal, and the round-gap it leaves triggers a\n"
               "second catch-up at the first post-heal exchange. In the\n"
               "membership run, the surviving peers declare the crashed\n"
               "point dead within two suspicion intervals and gossip the\n"
               "verdict to clients (quarantine, no half-open probes), and\n"
               "the late joiner reaches serving from one snapshot plus a\n"
               "catch-up delta — never a full history replay.\n";
  return 0;
}
