#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "digruber/common/result.hpp"
#include "digruber/sim/simulation.hpp"
#include "digruber/sim/time.hpp"

namespace digruber::sim {

/// What a scripted fault does when it fires. Decision points are named by
/// deployment index (not NodeId): a plan is written against the scenario
/// config, before any transport address exists.
enum class FaultKind : std::uint8_t {
  kDpCrash = 0,   // kill a decision point (volatile state lost)
  kDpRestart,     // bring it back: re-bootstrap + anti-entropy catch-up
  kPartition,     // split the network into reachability islands
  kHeal,          // remove all partitions
  kLinkDegrade,   // inflate latency / add loss on one link (or all of a DP's)
  kLinkRestore,   // undo a degradation
  kDpJoin,        // a brand-new decision point joins via snapshot bootstrap
  kDpLeave,       // a decision point drains and departs gracefully
  kOneWayPartition,  // drop traffic from one DP towards another (or all)
  kOneWayHeal,       // undo a one-way partition (kHeal also clears them)
  kCorrupt,          // set the transport's bit-flip corruption rate
  kDiskTorn,         // tear the tail of a DP's WAL (lost final frames)
  kDiskBitRot,       // flip one random bit of a DP's on-disk state
  kDiskStall,        // multiply a DP's disk latency (brown-out)
  kDiskRestore,      // reset a DP's disk latency to nominal
};

/// One timed fault. Which fields are meaningful depends on `kind`:
///   kDpCrash/kDpRestart    — `dp`
///   kPartition             — `islands` (decision-point indices per island;
///                            unlisted nodes stay on island 0)
///   kHeal                  — nothing
///   kLinkDegrade/kRestore  — `dp` + `peer` (one link) or `dp` +
///                            `all_peers` (every link of that DP), with
///                            `latency_factor` / `extra_loss` on degrade
///   kDpJoin                — nothing (the harness assigns the next free
///                            deployment index to each join in plan order)
///   kDpLeave               — `dp`
///   kOneWayPartition/kHeal — `dp` (the sender) + `peer`, or `dp` +
///                            `all_peers` to cut the sender's traffic to
///                            every other decision point
///   kCorrupt               — `corrupt_rate` (0 turns corruption off)
///   kDiskTorn/kDiskBitRot  — `dp` (no-op unless that DP has durability on)
///   kDiskStall             — `dp` + `latency_factor`
///   kDiskRestore           — `dp`
struct FaultEvent {
  Time at;
  FaultKind kind = FaultKind::kDpCrash;
  std::size_t dp = 0;
  std::size_t peer = 0;
  bool all_peers = false;
  double latency_factor = 1.0;
  double extra_loss = 0.0;
  double corrupt_rate = 0.0;
  /// kPartition only: also spread the client fleet round-robin across the
  /// islands (default keeps every client on island 0). This is what makes
  /// genuine split-brain reachable: both sides keep taking queries against
  /// divergent views.
  bool split_clients = false;
  /// `{}` lets a designated initializer skip it without tripping GCC's
  /// -Wmissing-field-initializers.
  std::vector<std::vector<std::size_t>> islands{};

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Largest decision-point index `event` names (0 when it names none).
[[nodiscard]] std::size_t max_dp_index(const FaultEvent& event);

/// `event` on one line, as `FaultPlan::describe` prints it: `t=300s leave dp3`.
[[nodiscard]] std::string describe(const FaultEvent& event);

/// The trace instant a scenario emits when an event of `kind` fires:
/// `fault.crash`, `fault.disk_stall`, ...
[[nodiscard]] const char* trace_name(FaultKind kind);

/// A deterministic, scriptable fault schedule. The plan is pure data: the
/// same (config, seed) always replays the same faults at the same simulated
/// instants, so faulted runs are bit-reproducible. The experiment harness
/// maps decision-point indices to live objects and network addresses when
/// an event fires (see experiments/scenario.cpp).
///
/// Text grammar — one event per line (or ';'-separated), '#' comments:
///
///   at=<time> crash dp=<i>
///   at=<time> restart dp=<i>
///   at=<time> partition islands=<i,j,...>|<k,...>[|...] [clients=split]
///   at=<time> heal
///   at=<time> degrade link=<a>:<b> [latency=<k>] [loss=<p>]
///   at=<time> degrade dp=<i> [latency=<k>] [loss=<p>]
///   at=<time> restore link=<a>:<b>
///   at=<time> restore dp=<i>
///   at=<time> join
///   at=<time> leave dp=<i>
///   at=<time> oneway from=<a> [to=<b>]
///   at=<time> healoneway from=<a> [to=<b>]
///   at=<time> corrupt rate=<p>
///   at=<time> disktorn dp=<i>
///   at=<time> diskrot dp=<i>
///   at=<time> diskstall dp=<i> [factor=<k>]
///   at=<time> diskrestore dp=<i>
///
/// <time> accepts plain seconds or an s/m/h suffix: `90`, `90s`, `1.5m`.
///
/// In C++ an event is one `FaultEvent`, added with designated initializers:
///   plan.add({.at = Time::from_seconds(120), .kind = FaultKind::kDpCrash, .dp = 0});
/// Knobs for FaultPlan::random (the chaos harness's schedule generator).
struct RandomFaultOptions {
  std::size_t n_dps = 3;
  /// Faults are scheduled inside [horizon * 0.1, horizon * 0.9] so the run
  /// has clean lead-in and recovery phases.
  Duration horizon = Duration::minutes(10);
  /// Independent fault episodes to compose. Each is a crash+restart pair, a
  /// partition+heal pair, a degrade+restore pair (these two need two or
  /// more points) or one of the opt-in kinds below. A crash never takes the
  /// last running decision point down: it picks among the points not down
  /// during its window, and only while another one stays up.
  std::size_t episodes = 4;
  /// Membership churn (default off so existing chaos seeds replay the same
  /// schedules byte for byte). Joins add fresh decision points mid-run;
  /// leaves drain an initial DP permanently — a left DP counts as down for
  /// the rest of the horizon, so it is never crashed afterwards and never
  /// leaves zero points up.
  bool allow_joins = false;
  bool allow_leaves = false;
  /// Asymmetric partition episodes (one-way sender cut + matched heal).
  /// Default off so existing chaos seeds replay the same schedules.
  bool allow_oneway_partitions = false;
  /// Bit-flip corruption episodes (corrupt rate=p ... corrupt rate=0).
  bool allow_corruption = false;
  /// Disk-fault riders on crash episodes (default off so existing chaos
  /// seeds replay the same schedules). When on, each crash episode may
  /// tear the victim's WAL tail just before the crash, rot a bit while it
  /// is down, or bracket the restart with a disk stall. No-ops against
  /// decision points running without durability.
  bool allow_disk_faults = false;
  /// Make island partitions split the client fleet across islands so both
  /// sides keep receiving queries (true split-brain pressure).
  bool split_clients_in_partitions = false;
};

class FaultPlan {
 public:
  static Result<FaultPlan> parse(const std::string& text);

  /// Generate a random-but-reproducible fault schedule: the same
  /// (seed, options) always yields the same plan. Each episode is a
  /// matched pair (crash/restart, partition/heal, degrade/restore), so
  /// every fault heals within the horizon and post-run invariants can
  /// expect a reconverged mesh.
  static FaultPlan random(std::uint64_t seed, const RandomFaultOptions& options);

  /// Insert `event` after every event at or before its time.
  void add(FaultEvent event);

  /// Events sorted by time; equal times keep insertion order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Number of kDpJoin events — each one grows the deployment by one when
  /// it fires.
  [[nodiscard]] std::size_t join_count() const;

  /// Schedule every event on `sim`; `apply` runs at each event's time.
  void arm(Simulation& sim, std::function<void(const FaultEvent&)> apply) const;

  /// One-line-per-event human-readable summary (bench banners, logs).
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace digruber::sim
