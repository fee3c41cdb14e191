// Partition-divergence bench: splits the mesh into two live islands WITH
// clients on both sides — true split brain, where both halves keep
// admitting work against the capacity they believe is free — then heals,
// and compares partition tolerance ON vs OFF (same seed, same plan):
//
//   * over-commit during the split: how over-optimistic the brokered
//     placements were against ground truth (scheduling accuracy) and how
//     deep the site queues grew (queue time) while the halves double-spent
//     the same believed-free capacity,
//   * degraded-mode admission: capacity discounting, typed degraded NACKs,
//     and the client reroutes they caused (ON only),
//   * post-heal reconciliation: how fast scheduling accuracy re-converges
//     to the fault-free control, digest-mismatch detection and targeted
//     delta pulls versus the full-range catch-up pulls the OFF run leans on,
//     and the records shipped by each path.
#include <algorithm>
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
  double handled_accuracy_sum = 0.0;
  double qtime_sum = 0.0;
  std::uint64_t started = 0;

  [[nodiscard]] double handled_fraction() const {
    return total ? double(handled) / double(total) : 0.0;
  }
  [[nodiscard]] double mean_accuracy() const {
    return total ? accuracy_sum / double(total) : 0.0;
  }
  /// Accuracy of BROKERED placements only. For a handled query the oracle
  /// scores min(1, actual/believed) — pure over-belief — so 1 minus this
  /// is the fraction of believed-in capacity that did not exist: the
  /// over-commit a split brain causes. Blind fallbacks are excluded (they
  /// are an availability cost, scored against best-room instead).
  [[nodiscard]] double mean_handled_accuracy() const {
    return handled ? handled_accuracy_sum / double(handled) : 0.0;
  }
  [[nodiscard]] double mean_qtime() const {
    return started ? qtime_sum / double(started) : 0.0;
  }
};

PhaseStats phase_stats(const std::vector<metrics::RequestSample>& samples,
                       double lo_s, double hi_s) {
  PhaseStats out;
  for (const auto& sample : samples) {
    if (sample.issued_s < lo_s || sample.issued_s >= hi_s) continue;
    ++out.total;
    if (sample.handled) {
      ++out.handled;
      out.handled_accuracy_sum += sample.accuracy;
    }
    out.accuracy_sum += sample.accuracy;
    if (sample.started) {
      ++out.started;
      out.qtime_sum += sample.qtime_s;
    }
  }
  return out;
}

/// First bucket end after `from_s` whose mean accuracy is within `eps` of
/// the control's same bucket (-1 = never inside the window).
double accuracy_recovery_s(const std::vector<metrics::RequestSample>& run,
                           const std::vector<metrics::RequestSample>& control,
                           double from_s, double end_s, double bucket_s,
                           double eps) {
  for (double t = from_s; t + bucket_s <= end_s; t += bucket_s) {
    const PhaseStats b = phase_stats(run, t, t + bucket_s);
    const PhaseStats c = phase_stats(control, t, t + bucket_s);
    if (b.total < 5 || c.total < 5) continue;
    if (b.mean_accuracy() >= c.mean_accuracy() - eps) return t + bucket_s;
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  experiments::ScenarioConfig cfg =
      bench::paper_config(args, net::ContainerProfile::gt3(), 3);
  cfg.name = "partition-divergence";
  // Load sized for the minority island: with the mesh split {1,2} | {0},
  // one third of the fleet hammers a single decision point.
  cfg.n_clients = args.quick ? 40 : 60;
  // Fig08-class sync interval: fast enough that exchange rounds (and the
  // digests riding them) happen many times inside the split and the heal
  // tail, so divergence detection latency is measurable in rounds.
  cfg.exchange_interval = sim::Duration::minutes(1);
  cfg.overload_control = true;

  const double T = cfg.duration.to_seconds();
  const double split_s = 0.35 * T;
  const double heal_s = 0.65 * T;

  // Fault-free control (partition tolerance off): accuracy and queue time
  // degrade with plain load, so split effects are only meaningful against
  // the same windows of an unfaulted run.
  const experiments::ScenarioResult control = experiments::run_scenario(cfg);

  // The split: majority island {1,2} listed first, dp0 isolated — and the
  // client fleet divided across the islands, so BOTH sides keep admitting
  // (the off-run halves double-spend the same believed-free capacity).
  cfg.fault_plan.add({.at = sim::Time::from_seconds(split_s),
                      .kind = sim::FaultKind::kPartition,
                      .split_clients = true,
                      .islands = {{1, 2}, {0}}});
  cfg.fault_plan.add(
      {.at = sim::Time::from_seconds(heal_s), .kind = sim::FaultKind::kHeal});

  experiments::ScenarioConfig off_cfg = cfg;
  off_cfg.name = "split-pt-off";
  const experiments::ScenarioResult off = experiments::run_scenario(off_cfg);

  experiments::ScenarioConfig on_cfg = cfg;
  on_cfg.name = "split-pt-on";
  on_cfg.partition_tolerance = true;
  on_cfg.frame_checksums = true;
  // Staleness threshold under the split duration so degraded-mode
  // admission engages well inside it; digest windows follow the 60 s
  // exchange interval automatically.
  on_cfg.partition_options.staleness_threshold = sim::Duration::minutes(3);
  on_cfg.partition_options.delta_pull_min_gap = sim::Duration::seconds(30);
  const std::unique_ptr<trace::Tracer> tracer = bench::make_tracer(args);
  trace::Tracer mismatch_tracer;  // always on: I6-style convergence timing
  on_cfg.tracer = tracer ? tracer.get() : &mismatch_tracer;
  const experiments::ScenarioResult on = experiments::run_scenario(on_cfg);
  const trace::Tracer& on_trace = tracer ? *tracer : mismatch_tracer;

  bench::print_run_banner(std::cout, on);
  std::cout << "fault plan:\n" << cfg.fault_plan.describe() << "\n";

  // --- Phase comparison: control vs off vs on. ---------------------------
  struct Phase {
    const char* name;
    double lo, hi;
  };
  const Phase windows[] = {
      {"nominal (pre-split)", 0.10 * T, split_s},
      {"split brain", split_s, heal_s},
      {"healed", heal_s, T},
  };
  Table phases({"phase", "run", "queries", "handled", "accuracy",
                "brokered acc", "qtime (s)"});
  for (const Phase& w : windows) {
    const struct {
      const char* label;
      const experiments::ScenarioResult* r;
    } runs[] = {{"control", &control}, {"pt off", &off}, {"pt on", &on}};
    for (const auto& run : runs) {
      const PhaseStats s = phase_stats(run.r->samples, w.lo, w.hi);
      phases.add_row({w.name, run.label, std::to_string(s.total),
                      Table::pct(s.handled_fraction()),
                      s.total ? Table::pct(s.mean_accuracy()) : std::string("-"),
                      s.handled ? Table::pct(s.mean_handled_accuracy())
                                : std::string("-"),
                      Table::num(s.mean_qtime(), 1)});
    }
  }
  phases.render(std::cout);
  std::cout << "\n";

  // --- Over-commit during the split. -------------------------------------
  const PhaseStats split_off = phase_stats(off.samples, split_s, heal_s);
  const PhaseStats split_on = phase_stats(on.samples, split_s, heal_s);
  const PhaseStats split_control = phase_stats(control.samples, split_s, heal_s);
  // Over-commit: the share of believed-in capacity behind each brokered
  // placement that did not actually exist (1 - brokered accuracy).
  const double overcommit_off = 1.0 - split_off.mean_handled_accuracy();
  const double overcommit_on = 1.0 - split_on.mean_handled_accuracy();
  const double overcommit_control = 1.0 - split_control.mean_handled_accuracy();

  Table overcommit({"metric", "pt off", "pt on"});
  overcommit.add_row({"brokered placements in the split",
                      std::to_string(split_off.handled),
                      std::to_string(split_on.handled)});
  overcommit.add_row({"over-committed share of brokered capacity",
                      Table::pct(overcommit_off), Table::pct(overcommit_on)});
  overcommit.add_row({"  (fault-free control over the same window)",
                      Table::pct(overcommit_control),
                      Table::pct(overcommit_control)});
  overcommit.add_row({"availability (handled fraction)",
                      Table::pct(split_off.handled_fraction()),
                      Table::pct(split_on.handled_fraction())});
  overcommit.add_row({"split-window queue time (s)",
                      Table::num(split_off.mean_qtime(), 1),
                      Table::num(split_on.mean_qtime(), 1)});
  overcommit.add_row(
      {"degraded replies (capacity discounted)", "0",
       std::to_string(on.partition.degraded_replies)});
  overcommit.add_row({"degraded refusals (quorum stale)", "0",
                      std::to_string(on.partition.degraded_refusals)});
  overcommit.add_row({"client degraded reroutes", "0",
                      std::to_string(on.partition.client_degraded_redirects)});
  overcommit.add_row({"double commits detected", "-",
                      std::to_string(on.partition.double_commits)});
  // Ground truth, not belief: brokered placements that pushed a VO past
  // its USLA cap at the selected site, judged against actual occupancy at
  // dispatch time (the split-brain entitlement breach the digests exist
  // to prevent). The fault-free control pins the no-split noise floor.
  overcommit.add_row({"entitlement breaches (past VO cap, whole run)",
                      std::to_string(off.entitlement_breaches),
                      std::to_string(on.entitlement_breaches)});
  overcommit.add_row({"  (fault-free control)",
                      std::to_string(control.entitlement_breaches),
                      std::to_string(control.entitlement_breaches)});
  overcommit.add_row({"worst single breach (CPUs past cap)",
                      std::to_string(off.entitlement_worst_excess),
                      std::to_string(on.entitlement_worst_excess)});
  overcommit.render(std::cout);
  std::cout << "\n";

  // --- Post-heal reconciliation. -----------------------------------------
  const double bucket_s = args.quick ? 60.0 : 120.0;
  const double recover_off =
      accuracy_recovery_s(off.samples, control.samples, heal_s, T, bucket_s, 0.02);
  const double recover_on =
      accuracy_recovery_s(on.samples, control.samples, heal_s, T, bucket_s, 0.02);

  // Last digest mismatch the ON mesh traced: heal -> quiet measures how
  // long divergence stayed detectable before anti-entropy dried it up.
  trace::Tracer::Filter filter;
  filter.category = trace::Category::kDp;
  filter.name = "dp.digest_mismatch";
  double last_mismatch_s = -1.0;
  for (const auto& event : on_trace.query(filter)) {
    last_mismatch_s = std::max(last_mismatch_s, event.ts.to_seconds());
  }

  using ::digruber::digruber::PullReason;
  std::uint64_t catchup_records_off = 0, catchup_records_on = 0;
  for (const auto& dp : off.dps) {
    catchup_records_off += dp.pull(PullReason::kCatchUp).applied;
  }
  for (const auto& dp : on.dps) {
    catchup_records_on += dp.pull(PullReason::kCatchUp).applied;
  }

  Table heal({"metric", "pt off", "pt on"});
  heal.add_row(
      {"accuracy back at control level (s after heal)",
       recover_off >= 0 ? Table::num(recover_off - heal_s, 0) : std::string("never"),
       recover_on >= 0 ? Table::num(recover_on - heal_s, 0) : std::string("never")});
  heal.add_row({"digest mismatches detected", "-",
                std::to_string(on.partition.digest_mismatches)});
  heal.add_row(
      {"last mismatch after heal (s)", "-",
       last_mismatch_s >= heal_s ? Table::num(last_mismatch_s - heal_s, 0)
                                 : std::string("0")});
  heal.add_row({"targeted delta pulls", "-",
                std::to_string(on.partition.delta_pulls_sent)});
  heal.add_row({"records applied via delta pulls", "-",
                std::to_string(on.partition.delta_records_applied)});
  heal.add_row({"records shipped by full catch-up snapshots",
                std::to_string(catchup_records_off),
                std::to_string(catchup_records_on)});
  heal.render(std::cout);
  std::cout << "\n";

  const bool overcommit_better = overcommit_on <= overcommit_off + 1e-9;
  const bool converge_better =
      recover_on >= 0 && (recover_off < 0 || recover_on <= recover_off);
  // Gate on TOTAL reconciliation traffic (snapshot + targeted records):
  // the round-gap catch-up still fires post-heal and can legitimately win
  // the race against the digest-driven pulls, but with partition tolerance
  // on the split sides created far fewer divergent records (degraded-mode
  // shedding), so the heal moves less state either way.
  const bool delta_cheaper =
      catchup_records_on + on.partition.delta_records_applied <=
      catchup_records_off;
  std::cout << "over-commit lower with partition tolerance: "
            << (overcommit_better ? "yes" : "NO") << " ("
            << Table::pct(overcommit_off) << " of brokered capacity off vs "
            << Table::pct(overcommit_on) << " on)\n";
  std::cout << "post-heal convergence no slower with partition tolerance: "
            << (converge_better ? "yes" : "NO") << "\n";
  std::cout << "reconciliation traffic lower with partition tolerance: "
            << (delta_cheaper ? "yes" : "NO") << " ("
            << catchup_records_on << " catch-up + "
            << on.partition.delta_records_applied << " targeted records on vs "
            << catchup_records_off << " off)\n\n";

  diperf::render_latency_percentiles(std::cout, on.handled, on.not_handled,
                                     on.all);
  bench::save_trace(args, tracer.get(), std::cout);

  std::cout << "Expected shape: during the split both halves of the OFF run\n"
               "admit against the same believed-free capacity, so a growing\n"
               "share of each brokered placement's believed capacity does\n"
               "not exist (over-commit). The ON run discounts believed-free\n"
               "capacity while peers are stale and sheds placement work once\n"
               "a quorum is lost: its brokered placements stay near ground\n"
               "truth, at the price of degraded NACKs (lower availability\n"
               "on the minority island, where no reroute target exists).\n"
               "After the heal the ON mesh detects divergence from the\n"
               "piggybacked digests within an exchange round and pulls only\n"
               "the diverged VO ranges; mismatches dry up within a few\n"
               "rounds and accuracy snaps back to the control no later than\n"
               "the OFF run's full catch-up path manages. The entitlement\n"
               "rows are the ground-truth USLA audit: zero means the split's\n"
               "damage stayed in believed capacity (stale placements, queue\n"
               "risk) without ever pushing a VO past its hard cap at any\n"
               "site — the placement spread of an OSG-scale grid absorbs it.\n";
  return 0;
}
