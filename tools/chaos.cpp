// chaos: seeded random fault-injection soak for the DI-GRUBER mesh.
//
//   chaos [--seeds N | --seed K] [--quick] [--verbose] [--churn]
//         [--partition] [--economy] [--recovery] [--overlay]
//
// Each seed deterministically generates a random fault schedule (crashes,
// partitions, link degradations) via FaultPlan::random, runs a small
// overload-controlled scenario under it, and checks conservation
// invariants the architecture must uphold no matter what the schedule did:
//
//   I1  every scheduled query resolves exactly once
//       (queries == handled + fallbacks per fleet),
//   I2  container admission conserves requests
//       (submitted == completed + refused + shed_deadline + aborted
//        + residue, and residue == 0 after the drain),
//   I3  no site's free-CPU accounting goes negative (USLA allocation
//       bookkeeping never over-commits).
//
// `--churn` turns on dynamic membership and adds runtime join/leave events
// to the random schedules, plus two membership invariants:
//
//   I4  every decision point that stays crashed for at least the
//       detection budget (two suspicion intervals) is declared dead by
//       every surviving initial peer within that budget,
//   I5  a joiner that never completed its snapshot bootstrap answered
//       zero queries (no partial-state decision point serves) — this
//       covers schedules that crash or partition the seed mid-transfer.
//
// `--partition` turns on partition tolerance plus frame checksums and adds
// asymmetric (one-way) partitions, client-splitting island partitions, and
// bit-flip corruption to the random schedules, plus four more invariants:
//
//   I6  reconciliation converges: after the last disruptive episode ends,
//       no decision point reports a digest mismatch once K exchange
//       rounds have elapsed (split brains heal bounded-fast),
//   I7  divergence triggers repair: any digest mismatch is answered by at
//       least one targeted delta pull (detection is never silent),
//   I8  checksum soundness: frames dropped for a bad CRC never exceed the
//       bit flips actually injected (no false-positive drops), and the
//       conservation invariants I1-I3 still hold with corruption live
//       (no corrupted frame poisons broker state),
//   I9  degraded points are not quarantined: a decision point that NACKs
//       degraded during a partition stays routable — without membership
//       the client fleet performs zero quarantines.
//
// `--partition --churn` composes both schedules and both invariant sets.
//
// `--economy` runs the same schedules with the karma allocator, market
// placement, and a strategic budget/deadline workload live, and adds one
// invariant:
//
//   I10 ledger conservation: at every decision point the credit bank is
//       zero-sum up to recorded expiry — credits spent equal credits
//       earned plus the unabsorbed pool, and total balance equals the
//       initial endowment plus net transfers minus cap expiry — no
//       crash, partition, or churn schedule may mint or leak credit.
//
// `--recovery` turns on durable decision points (WAL + checkpoints) and
// client request ids, adds disk faults (torn tails, bit rot, stalls) to the
// random schedules, and adds two more invariants, each gated per point on a
// clean disk — a schedule that tore or rotted a point's log is ALLOWED to
// lose committed suffix state, that is the fault model working:
//
//   I11 replay fidelity: a decision point whose disk survived intact
//       recovers exactly its pre-crash committed state — zero replay
//       mismatches across every crash/restart in the schedule,
//   I12 exactly-once dispatch: a decision point whose disk survived intact
//       never commits the same client request id twice, no matter how the
//       schedule interleaved retries with crashes and recoveries.
//
// `--recovery` composes with every other mode.
//
// `--overlay` runs each seed under a sparse dissemination overlay (the
// strategy rotates with the seed: tree, gossip, super-peer) on a larger
// deployment, with dynamic membership on — sparse overlays need the
// failure detector to repair around dead relays, so the mode forces it —
// and appends a settle tail to the run past the fault horizon. It adds
// one invariant:
//
//   I13 overlay completeness: every record accepted by any decision point
//       inside the post-fault quiet window reaches every point that is
//       alive and serving at harvest, within a strategy-specific round
//       bound. Sparse relaying (TTL suppression, gossip's random targets,
//       churn-rebuilt trees) may slow the flood, but must never lose a
//       record — residual convergence rides the anti-entropy paths.
//
// `--overlay` composes with `--churn` (join/leave events stress topology
// repair), `--partition`, and the rest.
//
// Exit status 0 iff every seed passes; failing seeds are printed so a
// failure reproduces with `chaos --seed K`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "digruber/common/table.hpp"
#include "digruber/experiments/scenario.hpp"
#include "digruber/sim/fault_plan.hpp"
#include "digruber/trace/trace.hpp"

using namespace digruber;

namespace {

struct SeedReport {
  std::uint64_t seed = 0;
  bool pass = true;
  std::size_t faults = 0;
  std::uint64_t queries = 0;
  std::uint64_t shed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t joins = 0;
  std::uint64_t deaths = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t pulls = 0;
  std::uint64_t double_commits = 0;
  std::uint64_t epochs = 0;
  std::uint64_t denials = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t replayed = 0;
  std::uint64_t retries = 0;
  std::uint64_t dedup_hits = 0;
  std::string strategy;
  std::uint64_t audited = 0;
  std::uint64_t suppressed = 0;
  std::vector<std::string> violations;
};

SeedReport run_seed(std::uint64_t seed, bool quick, bool verbose, bool churn,
                    bool partition, bool economy, bool recovery,
                    bool overlay_mode) {
  sim::RandomFaultOptions fault_options;
  fault_options.n_dps = overlay_mode ? 5 : 3;
  fault_options.horizon = quick ? sim::Duration::minutes(6) : sim::Duration::minutes(15);
  fault_options.episodes = quick ? 3 : 5;
  if (churn) {
    fault_options.allow_joins = true;
    fault_options.allow_leaves = true;
    fault_options.episodes += 2;  // keep crash/partition pressure alongside churn
  }
  if (partition) {
    fault_options.allow_oneway_partitions = true;
    fault_options.allow_corruption = true;
    fault_options.split_clients_in_partitions = true;
    fault_options.episodes += 2;  // dedicated one-way / corruption pressure
  }
  if (recovery) {
    // Disk faults ride along with crash episodes (a tear strikes right
    // before the crash, rot while the point is down, stalls bracket the
    // window), so extra episodes keep the crash/recovery pressure up.
    fault_options.allow_disk_faults = true;
    fault_options.episodes += 2;
  }
  const sim::FaultPlan plan = sim::FaultPlan::random(seed, fault_options);

  experiments::ScenarioConfig config;
  config.name = "chaos-" + std::to_string(seed);
  config.seed = seed;
  config.n_dps = int(fault_options.n_dps);
  config.grid_scale = 2;
  config.n_clients = quick ? 16 : 32;
  config.duration = fault_options.horizon;
  config.exchange_interval = sim::Duration::seconds(30);
  config.fault_plan = plan;
  config.enable_failover = true;
  config.attempt_timeout = sim::Duration::seconds(5);
  config.overload_control = true;
  // A tight queue keeps the shedding machinery exercised even at this
  // small scale.
  config.profile.queue_limit = 64;
  if (churn || overlay_mode) {
    config.membership = true;
    // Tighten the detector so dead verdicts land inside the random crash
    // windows (5%-25% of the horizon): 15 s heartbeats, dead after 30 s of
    // silence, detection budget = 2 suspicion intervals = 45 s. Overlay
    // mode forces membership even without churn: a sparse topology must
    // repair around permanently-crashed relays or I13 cannot hold.
    config.exchange_interval = sim::Duration::seconds(15);
    config.membership_options.suspect_after = 1.5;
    config.membership_options.dead_after = 2.0;
    config.membership_options.join_snapshot_timeout = sim::Duration::seconds(5);
    config.membership_options.join_retry_backoff = sim::Duration::seconds(5);
  }
  if (economy) {
    // Karma + market + a strategic bidder, all live under the fault
    // schedule: a short epoch lands several settlements inside even the
    // quick horizon, and DP crashes reset banks mid-epoch — exactly the
    // lifecycle I10 must stay zero-sum across.
    config.economy_options.enabled = true;
    config.economy_options.allocator = economy::Allocator::kKarma;
    config.economy_options.epoch = sim::Duration::seconds(30);
    config.economy_options.scarce_free_fraction = 0.5;
    config.economy_options.initial_credit_epochs = 0.5;
    // Ration the brokered capacity well under the grid so the gate binds
    // and settlements move real credit (not just zeros).
    config.economy_options.capacity_cpus = 60;
    config.market_placement = true;
    config.workload.n_vos = 4;
    config.workload.strategic_vo = 0;
    config.workload.strategic_factor = 10.0;
    config.workload.budget_mean = 50.0;
    config.workload.deadline_slack = 3.0;
  }
  if (recovery) {
    // Durable points + stamped reports. A short checkpoint interval lands
    // several checkpoint/truncate cycles inside even the quick horizon, so
    // recoveries exercise the checkpoint-restore path, not just raw WAL
    // replay; a small dedup window keeps eviction live under load.
    config.durability = true;
    config.durability_options.checkpoint_interval = sim::Duration::minutes(2);
    config.durability_options.dedup_window = 256;
    config.request_ids = true;
  }
  trace::Tracer tracer;
  if (partition) {
    config.partition_tolerance = true;
    config.frame_checksums = true;
    // Frequent rounds so digests disagree, pulls fire, and convergence is
    // observable inside the random partition windows (5%-25% of horizon).
    config.exchange_interval = sim::Duration::seconds(15);
    config.partition_options.staleness_threshold = sim::Duration::seconds(45);
    config.partition_options.delta_pull_min_gap = sim::Duration::seconds(10);
    // I6 needs mismatch timestamps, not just counts: trace the run.
    config.tracer = &tracer;
  }

  std::uint32_t i13_bound_rounds = 0;
  overlay::Kind overlay_kind = overlay::Kind::kMesh;
  if (overlay_mode) {
    // The strategy rotates with the seed so a 20-seed soak covers all
    // three sparse overlays. Round bounds are deliberately generous: they
    // cover the topology's worst relay path plus the gap-triggered
    // catch-up fallback (gossip) and a post-repair re-flood (tree).
    switch (seed % 3) {
      case 0:
        overlay_kind = overlay::Kind::kTree;
        i13_bound_rounds = 8;
        break;
      case 1:
        overlay_kind = overlay::Kind::kGossip;
        i13_bound_rounds = 10;
        break;
      default:
        overlay_kind = overlay::Kind::kSuperPeer;
        i13_bound_rounds = 6;
        break;
    }
    config.overlay_options.kind = overlay_kind;
    config.overlay_audit = true;
    // Settle tail past the fault horizon: the audited records need the
    // full round bound (plus membership-repair margin) to flood before
    // harvest, and the quiet window must stay non-empty even when the
    // last scheduled fault lands at the horizon itself (the window opens
    // 4 intervals after it; the cutoff sits bound+2 intervals before
    // harvest; the tail covers both with margin to spare).
    config.duration =
        fault_options.horizon +
        sim::Duration::seconds(double(i13_bound_rounds + 8) *
                               config.exchange_interval.to_seconds());
  }

  if (verbose) {
    std::cout << "seed " << seed << " plan:\n"
              << (plan.empty() ? std::string("  (no faults)\n") : plan.describe());
  }

  const experiments::ScenarioResult result = experiments::run_scenario(config);

  SeedReport report;
  report.seed = seed;
  report.faults = plan.size();
  report.queries = result.clients.queries;
  report.shed = result.overload.shed_total();

  auto violate = [&report](std::string what) {
    report.pass = false;
    report.violations.push_back(std::move(what));
  };

  // I1: exactly-once query resolution across the fleet.
  if (result.clients.queries != result.clients.handled + result.clients.fallbacks) {
    std::ostringstream os;
    os << "I1 queries=" << result.clients.queries
       << " != handled=" << result.clients.handled
       << " + fallbacks=" << result.clients.fallbacks;
    violate(os.str());
  }

  // I2: per-container request conservation, with an empty queue after the
  // post-window drain.
  for (std::size_t d = 0; d < result.dps.size(); ++d) {
    const experiments::DpStats& dp = result.dps[d];
    report.restarts += dp.restarts;
    const std::uint64_t accounted =
        dp.completed + dp.refused + dp.shed_deadline + dp.aborted + dp.queue_residue;
    if (dp.submitted != accounted) {
      std::ostringstream os;
      os << "I2 dp" << d << " submitted=" << dp.submitted
         << " != completed=" << dp.completed << " + refused=" << dp.refused
         << " + shed_deadline=" << dp.shed_deadline << " + aborted=" << dp.aborted
         << " + residue=" << dp.queue_residue;
      violate(os.str());
    }
    if (dp.queue_residue != 0) {
      std::ostringstream os;
      os << "I2 dp" << d << " residue=" << dp.queue_residue << " after drain";
      violate(os.str());
    }
  }

  // I3: allocation bookkeeping never over-commits a site.
  if (result.sites_overcommitted != 0) {
    std::ostringstream os;
    os << "I3 sites_overcommitted=" << result.sites_overcommitted;
    violate(os.str());
  }

  if (churn) {
    report.joins = plan.join_count();
    report.deaths = result.membership.deaths_declared;

    // Reconstruct each initial DP's downtime from the plan: crash->restart
    // spans plus permanent leaves (a left DP stays silent to the horizon).
    struct DownSpan {
      double start, end;
      bool crash;
    };
    const double horizon_s = fault_options.horizon.to_seconds();
    std::vector<std::vector<DownSpan>> down(fault_options.n_dps);
    for (const auto& e : plan.events()) {
      if (e.dp >= fault_options.n_dps) continue;
      if (e.kind == sim::FaultKind::kDpCrash) {
        down[e.dp].push_back({e.at.to_seconds(), horizon_s, true});
      } else if (e.kind == sim::FaultKind::kDpRestart) {
        if (!down[e.dp].empty()) down[e.dp].back().end = e.at.to_seconds();
      } else if (e.kind == sim::FaultKind::kDpLeave) {
        down[e.dp].push_back({e.at.to_seconds(), horizon_s, false});
      }
    }
    auto down_in = [&](std::size_t p, double lo, double hi) {
      for (const DownSpan& s : down[p]) {
        if (s.start < hi && lo < s.end) return true;
      }
      return false;
    };

    // I4: every crash that outlasts the detection budget is declared dead
    // by every initial peer that was itself up (and hearing heartbeats)
    // through the whole detection window. The observer's verdict for the
    // crashed point at the deadline must be kDead — partition-induced
    // earlier verdicts count too, since nothing can refute them while the
    // target is actually down.
    const double interval_s = config.exchange_interval.to_seconds();
    double budget_s =
        2.0 * config.membership_options.suspect_after * interval_s;
    if (overlay_mode && overlay_kind != overlay::Kind::kMesh) {
      // Sparse overlays detect deaths at the overlay neighbors and gossip
      // the verdict outward, so distant peers learn it a few rounds later;
      // gossip additionally stretches its detector clocks by the expected
      // contact period (~2(n-1)/fanout). Budget both effects.
      const double stretch =
          overlay_kind == overlay::Kind::kGossip ? 3.0 : 1.0;
      budget_s = budget_s * stretch + double(i13_bound_rounds) * interval_s;
    }
    for (std::size_t d = 0; d < down.size(); ++d) {
      for (const DownSpan& span : down[d]) {
        if (!span.crash) continue;
        if (span.end - span.start < budget_s + 1.0) continue;  // too brief
        const double deadline = span.start + budget_s + 1e-6;
        for (std::size_t p = 0; p < std::size_t(fault_options.n_dps); ++p) {
          if (p == d) continue;
          if (down_in(p, span.start - interval_s, deadline)) continue;
          bool dead_at_deadline = false;
          for (const auto& tr : result.dps[p].membership_transitions) {
            if (tr.peer != DpId(d) || tr.at.to_seconds() > deadline) continue;
            dead_at_deadline = tr.to == ::digruber::digruber::MemberState::kDead;
          }
          if (!dead_at_deadline) {
            std::ostringstream os;
            os << "I4 dp" << p << " did not declare dp" << d
               << " dead within " << budget_s << "s of the crash at "
               << span.start << "s";
            violate(os.str());
          }
        }
      }
    }

    // I5: a joiner that never reached serving answered zero queries.
    for (std::size_t d = std::size_t(fault_options.n_dps); d < result.dps.size();
         ++d) {
      const experiments::DpStats& dp = result.dps[d];
      if (dp.serving_since_s < 0.0 && dp.queries > 0) {
        std::ostringstream os;
        os << "I5 joiner dp" << d << " answered " << dp.queries
           << " queries without completing its bootstrap";
        violate(os.str());
      }
    }
  }

  if (partition) {
    report.mismatches = result.partition.digest_mismatches;
    report.pulls = result.partition.delta_pulls_sent;
    report.double_commits = result.partition.double_commits;

    // I6: bounded convergence. Find when the last disruptive condition
    // ended (heal / restore / restart / corruption off); K exchange rounds
    // later every pairwise digest must agree again, so no mismatch instant
    // may be traced after that deadline. Vacuous when the schedule leaves
    // no quiet tail to observe.
    const double horizon_s = fault_options.horizon.to_seconds();
    double last_heal_s = 0.0;
    bool disrupted = false;
    for (const auto& e : plan.events()) {
      switch (e.kind) {
        case sim::FaultKind::kPartition:
        case sim::FaultKind::kOneWayPartition:
        case sim::FaultKind::kLinkDegrade:
        case sim::FaultKind::kDpCrash:
          disrupted = true;
          break;
        case sim::FaultKind::kCorrupt:
          if (e.corrupt_rate > 0.0) {
            disrupted = true;
          } else {
            last_heal_s = std::max(last_heal_s, e.at.to_seconds());
          }
          break;
        case sim::FaultKind::kHeal:
        case sim::FaultKind::kOneWayHeal:
        case sim::FaultKind::kLinkRestore:
        case sim::FaultKind::kDpRestart:
          last_heal_s = std::max(last_heal_s, e.at.to_seconds());
          break;
        default:
          break;
      }
    }
    // Budget: ~1.3 rounds for the digest settle window (interval + slack),
    // one round to receive a divergent digest, the pull round trip, and a
    // second detect+pull hop for cascades through peers that were
    // themselves partially diverged (churn joiners make these real).
    constexpr double kConvergenceRounds = 6.0;
    const double deadline_s =
        last_heal_s + kConvergenceRounds * config.exchange_interval.to_seconds();
    if (disrupted && deadline_s < horizon_s) {
      trace::Tracer::Filter filter;
      filter.category = trace::Category::kDp;
      filter.name = "dp.digest_mismatch";
      filter.from = sim::Time::from_seconds(deadline_s);
      const auto late = tracer.query(filter);
      if (!late.empty()) {
        std::ostringstream os;
        os << "I6 " << late.size() << " digest mismatch(es) after the "
           << "convergence deadline at " << deadline_s << "s (last heal "
           << last_heal_s << "s + " << kConvergenceRounds
           << " exchange rounds); first at " << late.front().ts.to_seconds()
           << "s on dp" << late.front().actor;
        violate(os.str());
      }
    }

    // I7: detection is never silent — any digest mismatch triggers at
    // least one targeted delta pull.
    if (result.partition.digest_mismatches > 0 &&
        result.partition.delta_pulls_sent == 0) {
      std::ostringstream os;
      os << "I7 " << result.partition.digest_mismatches
         << " digest mismatches but zero delta pulls";
      violate(os.str());
    }

    // I8: checksum soundness — every CRC drop maps to an injected flip
    // (conservation under the surviving corruption is covered by I1-I3).
    if (result.partition.frames_bad_checksum > result.partition.packets_corrupted) {
      std::ostringstream os;
      os << "I8 frames_bad_checksum=" << result.partition.frames_bad_checksum
         << " > packets_corrupted=" << result.partition.packets_corrupted;
      violate(os.str());
    }

    // I9: degraded NACKs never quarantine. Quarantine is reserved for
    // membership-declared dead/left points, so without membership (which
    // --churn and --overlay turn on) the client fleet must perform zero
    // quarantines no matter how many degraded redirects the partitions
    // caused.
    if (!config.membership && result.membership.client_dps_quarantined != 0) {
      std::ostringstream os;
      os << "I9 " << result.membership.client_dps_quarantined
         << " client quarantine(s) without membership (degraded "
         << "points must stay routable)";
      violate(os.str());
    }
  }

  if (economy) {
    report.epochs = result.economy.epochs_settled;
    report.denials = result.economy.credit_denials;

    // I10: per-DP credit conservation, whatever the schedule did. A
    // crashed DP's bank resets with its other volatile state, so the
    // identities hold over the final lifetime's stats.
    for (std::size_t d = 0; d < result.dps.size(); ++d) {
      const economy::BankStats& bank = result.dps[d].economy;
      auto eps = [](double scale) { return 1e-6 * std::max(1.0, scale); };
      const double transfer_gap =
          bank.spent - (bank.earned + bank.expired_pool);
      if (std::abs(transfer_gap) > eps(bank.spent)) {
        std::ostringstream os;
        os << "I10 dp" << d << " spent=" << bank.spent
           << " != earned=" << bank.earned
           << " + expired_pool=" << bank.expired_pool;
        violate(os.str());
      }
      double total_balance = 0;
      for (const auto& ledger : bank.ledgers) total_balance += ledger.balance;
      const double expected =
          bank.initial_total + bank.earned - bank.spent - bank.expired_cap;
      if (std::abs(total_balance - expected) > eps(expected)) {
        std::ostringstream os;
        os << "I10 dp" << d << " total balance=" << total_balance
           << " != initial=" << bank.initial_total << " + earned=" << bank.earned
           << " - spent=" << bank.spent << " - expired_cap=" << bank.expired_cap;
        violate(os.str());
      }
    }
  }

  if (recovery) {
    report.recoveries = result.durability.recoveries;
    report.replayed = result.durability.replay_records;
    report.retries = result.clients.report_retries;
    report.dedup_hits = result.durability.dedup_hits;

    // I11/I12 are gated per decision point on a clean disk: a schedule
    // that tore this point's WAL tail or flipped a stored bit is allowed
    // to lose the committed suffix (and with it a dedup entry) — the
    // recovery machinery's promise only covers media that survived. A
    // point the schedule never touched must recover perfectly.
    for (std::size_t d = 0; d < result.dps.size(); ++d) {
      const experiments::DpStats& dp = result.dps[d];
      const bool clean_disk = dp.disk_torn_tails == 0 && dp.disk_bit_flips == 0;
      if (!clean_disk) continue;

      // I11: replay restored exactly the pre-crash committed state.
      if (dp.replay_mismatches != 0) {
        std::ostringstream os;
        os << "I11 dp" << d << " lost " << dp.replay_mismatches
           << " committed record(s) across " << dp.recoveries
           << " recover(ies) with an intact disk";
        violate(os.str());
      }
      // I12: one request id, at most one committed dispatch at this point.
      if (dp.duplicate_dispatches != 0) {
        std::ostringstream os;
        os << "I12 dp" << d << " committed " << dp.duplicate_dispatches
           << " duplicate dispatch(es) for retried request id(s) with an "
           << "intact disk (dedup_hits=" << dp.dedup_hits << ")";
        violate(os.str());
      }
    }
  }

  if (overlay_mode) {
    report.strategy = overlay::kind_name(overlay_kind);
    report.suppressed = result.overlay.relays_suppressed;

    // I13: quiet-window completeness. Audit only records accepted after
    // the last scheduled fault (plus membership-repair margin: dead
    // verdicts land within 3 intervals, then the strategy rebuilds) and
    // early enough that the full round bound fits before harvest. Every
    // point alive and serving at harvest must hold each audited
    // (origin, seq) key — sparse relaying may be slow, never lossy.
    const double interval_s = config.exchange_interval.to_seconds();
    double last_event_s = 0.0;
    for (const auto& e : plan.events()) {
      last_event_s = std::max(last_event_s, e.at.to_seconds());
    }
    const double window_lo = last_event_s + 4.0 * interval_s;
    const double cutoff_s = config.duration.to_seconds() -
                            double(i13_bound_rounds + 2) * interval_s;
    if (verbose) {
      std::cout << "I13 window (" << window_lo << ", " << cutoff_s
                << "), duration " << config.duration.to_seconds() << "\n";
      for (std::size_t r = 0; r < result.dps.size(); ++r) {
        for (const auto& tr : result.dps[r].membership_transitions) {
          std::cout << "dp" << r << " t=" << tr.at.to_seconds() << " dp"
                    << tr.peer.value() << " -> "
                    << ::digruber::digruber::member_state_name(tr.to)
                    << " inc=" << tr.incarnation << "\n";
        }
      }
      for (std::size_t r = 0; r < result.dps.size(); ++r) {
        const experiments::DpStats& dp = result.dps[r];
        std::cout << "dp" << r << " running=" << dp.running
                  << " serving=" << dp.serving << " left=" << dp.left
                  << " applied=" << dp.applied_keys.size()
                  << " own=" << dp.own_records.size() << " max-seq:";
        std::map<std::uint64_t, std::uint64_t> max_seq;
        for (const auto& [orig, seq] : dp.applied_keys)
          max_seq[orig] = std::max(max_seq[orig], seq);
        for (const auto& [orig, seq] : max_seq)
          std::cout << " " << orig << ":" << seq;
        std::cout << "\n";
      }
    }
    for (std::size_t o = 0; o < result.dps.size(); ++o) {
      for (const auto& [seq, when] : result.dps[o].own_records) {
        if (when <= window_lo || when >= cutoff_s) continue;
        ++report.audited;
        const std::pair<std::uint64_t, std::uint64_t> key{o, seq};
        for (std::size_t r = 0; r < result.dps.size(); ++r) {
          if (r == o) continue;
          const experiments::DpStats& dp = result.dps[r];
          if (!dp.running || !dp.serving || dp.left) continue;
          if (!std::binary_search(dp.applied_keys.begin(),
                                  dp.applied_keys.end(), key)) {
            std::ostringstream os;
            os << "I13 record (origin dp" << o << ", seq " << seq
               << ") accepted at " << when << "s never reached dp" << r
               << " (" << report.strategy << ", bound " << i13_bound_rounds
               << " rounds)";
            violate(os.str());
          }
        }
      }
    }
  }

  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n_seeds = 20;
  bool single = false;
  std::uint64_t single_seed = 0;
  bool quick = false;
  bool verbose = false;
  bool churn = false;
  bool partition = false;
  bool economy = false;
  bool recovery = false;
  bool overlay_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return std::stoull(argv[++i]);
    };
    if (arg == "--seeds") {
      n_seeds = next("--seeds");
    } else if (arg == "--seed") {
      single = true;
      single_seed = next("--seed");
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg == "--partition") {
      partition = true;
    } else if (arg == "--economy") {
      economy = true;
    } else if (arg == "--recovery") {
      recovery = true;
    } else if (arg == "--overlay") {
      overlay_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--seeds N | --seed K] [--quick] [--verbose] [--churn]"
                << " [--partition] [--economy] [--recovery] [--overlay]\n";
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  std::vector<std::uint64_t> seeds;
  if (single) {
    seeds.push_back(single_seed);
  } else {
    for (std::uint64_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
  }

  std::vector<std::string> header{"seed", "faults", "queries", "shed", "restarts"};
  if (churn) {
    header.push_back("joins");
    header.push_back("deaths");
  }
  if (partition) {
    header.push_back("mismatch");
    header.push_back("pulls");
    header.push_back("dblcommit");
  }
  if (economy) {
    header.push_back("epochs");
    header.push_back("denials");
  }
  if (recovery) {
    header.push_back("recover");
    header.push_back("replayed");
    header.push_back("retries");
    header.push_back("dedup");
  }
  if (overlay_mode) {
    header.push_back("strategy");
    header.push_back("audited");
    header.push_back("ttl-drops");
  }
  header.push_back("verdict");
  Table table(header);
  std::vector<std::uint64_t> failing;
  for (const std::uint64_t seed : seeds) {
    const SeedReport report = run_seed(seed, quick, verbose, churn, partition,
                                       economy, recovery, overlay_mode);
    std::vector<std::string> row{
        std::to_string(report.seed), std::to_string(report.faults),
        std::to_string(report.queries), std::to_string(report.shed),
        std::to_string(report.restarts)};
    if (churn) {
      row.push_back(std::to_string(report.joins));
      row.push_back(std::to_string(report.deaths));
    }
    if (partition) {
      row.push_back(std::to_string(report.mismatches));
      row.push_back(std::to_string(report.pulls));
      row.push_back(std::to_string(report.double_commits));
    }
    if (economy) {
      row.push_back(std::to_string(report.epochs));
      row.push_back(std::to_string(report.denials));
    }
    if (recovery) {
      row.push_back(std::to_string(report.recoveries));
      row.push_back(std::to_string(report.replayed));
      row.push_back(std::to_string(report.retries));
      row.push_back(std::to_string(report.dedup_hits));
    }
    if (overlay_mode) {
      row.push_back(report.strategy);
      row.push_back(std::to_string(report.audited));
      row.push_back(std::to_string(report.suppressed));
    }
    row.push_back(report.pass ? "PASS" : "FAIL");
    table.add_row(row);
    if (!report.pass) {
      failing.push_back(report.seed);
      for (const std::string& v : report.violations) {
        std::cout << "seed " << report.seed << " VIOLATION: " << v << "\n";
      }
    }
  }
  table.render(std::cout);

  if (failing.empty()) {
    std::cout << "chaos: " << seeds.size() << "/" << seeds.size()
              << " seeds passed all invariants\n";
    return 0;
  }
  std::cout << "chaos: " << failing.size() << " failing seed(s):";
  for (const std::uint64_t s : failing) std::cout << " " << s;
  std::cout << "\nreproduce with: " << argv[0] << " --seed <K> --verbose"
            << (quick ? " --quick" : "") << (churn ? " --churn" : "")
            << (partition ? " --partition" : "")
            << (economy ? " --economy" : "")
            << (recovery ? " --recovery" : "")
            << (overlay_mode ? " --overlay" : "") << "\n";
  return 1;
}
