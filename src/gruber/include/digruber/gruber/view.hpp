#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/grid/site.hpp"
#include "digruber/usla/tree.hpp"

namespace digruber::gruber {

/// Compact per-site load record exchanged on the wire (decision point ->
/// client replies and decision point <-> decision point state exchange).
struct SiteLoad {
  SiteId site;
  std::int32_t total_cpus = 0;
  /// Free CPUs usable by the requesting consumer (clipped to USLA headroom
  /// in candidate lists; equals raw_free in plain load reports).
  std::int32_t free_estimate = 0;
  /// Unclipped free-CPU estimate — the decision point's raw belief about
  /// the site, used for scheduling-accuracy auditing.
  std::int32_t raw_free = 0;
  std::int32_t queued = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & site & total_cpus & free_estimate & raw_free & queued;
  }
};

/// One scheduling decision, as tracked locally and disseminated between
/// decision points (dissemination strategy 2: utilization only, no USLAs).
struct DispatchRecord {
  DpId origin;            // decision point that made the decision
  std::uint64_t seq = 0;  // per-origin sequence number (dedup for flooding)
  SiteId site;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  sim::Time when;
  sim::Duration est_runtime;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & origin & seq & site & vo & group & user & cpus & when & est_runtime;
  }

  friend bool operator==(const DispatchRecord&, const DispatchRecord&) = default;
};

/// Per-VO summary of the active dispatch records a view holds: an
/// order-independent hash (XOR of per-record mixes) plus totals, so two
/// peers can localize divergence to exactly the VOs whose allocation state
/// differs — the targeting input for delta anti-entropy.
struct VoDigest {
  VoId vo;
  std::uint64_t hash = 0;
  std::uint32_t records = 0;
  std::int32_t cpus = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & vo & hash & records & cpus;
  }

  friend bool operator==(const VoDigest&, const VoDigest&) = default;
};

/// Per-origin epoch-vector entry: the highest dispatch sequence this view
/// has absorbed from `origin`. Sequence numbers are incarnation-shifted
/// (high 32 bits = restart epoch), so the vector also captures restarts.
struct OriginEpoch {
  DpId origin;
  std::uint64_t max_seq = 0;
  std::uint32_t records = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & origin & max_seq & records;
  }

  friend bool operator==(const OriginEpoch&, const OriginEpoch&) = default;
};

/// Compact whole-view digest piggybacked on exchange messages and site-load
/// replies (partition tolerance). A digest summarizes the *settled* window
/// of a view — records old enough (`when <= as_of`) that normal exchange
/// propagation has delivered them everywhere, and long-lived enough
/// (`when + est_runtime > horizon`) that they cannot expire between the
/// sender computing the digest and the receiver comparing against it.
/// Both bounds ride in the digest so the receiver evaluates the *same*
/// window; within it, digest equality means the views agree on base state
/// and on every VO's active allocations, and inequality means a partition
/// (not propagation lag or expiry skew) diverged them.
struct ViewDigest {
  sim::Time as_of;                   // settled cutoff: records `when <= as_of`
  sim::Time horizon;                 // expiry guard: `when + est > horizon`
  std::uint64_t base_hash = 0;       // over base snapshots
  std::vector<VoDigest> vos;         // ascending vo id
  std::vector<OriginEpoch> epochs;   // ascending origin id

  template <class Archive>
  void serialize(Archive& ar) {
    ar & as_of & horizon & base_hash & vos & epochs;
  }

  /// Window bounds are comparison parameters, not state: two digests match
  /// iff they summarize the same contents over their (shared) window.
  friend bool operator==(const ViewDigest& a, const ViewDigest& b) {
    return a.base_hash == b.base_hash && a.vos == b.vos && a.epochs == b.epochs;
  }
};

/// One site of a view folded for one consumer chain: what a candidate scan
/// needs of the site, gathered in one pass over its active records.
struct SiteFold {
  SiteLoad load;                             // as `GridView::loads` reports it
  const grid::SiteSnapshot* base = nullptr;  // the base snapshot held
  /// The chain's usage as `GridView::estimated_snapshot` would give it:
  /// free CPUs are the base's less each record's, clamped at zero record
  /// by record, and the VO's running CPUs include the base's.
  usla::ChainUsage usage;
};

/// VOs whose allocation state differs between the two digests (union of
/// mismatched and one-sided entries), ascending — the pull set for delta
/// anti-entropy.
[[nodiscard]] std::vector<VoId> diverged_vos(const ViewDigest& a,
                                             const ViewDigest& b);

/// A decision point's model of the grid. Per the paper's experimental
/// setup, the view starts from complete *static* knowledge of resources
/// (bootstrap snapshots) and is kept current by monitoring scheduling
/// decisions — its own dispatches plus those learned through periodic
/// exchange — not by live site polling.
class GridView {
 public:
  GridView();
  GridView(GridView&&) noexcept;
  GridView& operator=(GridView&&) noexcept;
  ~GridView();

  /// Install base snapshots (static knowledge / fresh monitor data).
  void bootstrap(const std::vector<grid::SiteSnapshot>& snapshots);
  void apply_snapshot(const grid::SiteSnapshot& snapshot);

  /// Track a scheduling decision; returns whether the view holds it.
  /// Records age out after their estimated runtime, emulating completion
  /// without completion notices, so a record already expired at `now`
  /// (`when + est_runtime <= now`) is refused and leaves the view as it
  /// was: no read at `now` or later would count it. A caller that keeps
  /// no clock (a test, an offline replay) records at simulated time zero.
  /// A record holding fewer than one CPU is malformed and refused too.
  bool record_dispatch(const DispatchRecord& record,
                       sim::Time now = sim::Time::zero());

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// Estimated free CPUs at `site` at time `now`.
  [[nodiscard]] std::int32_t estimated_free(SiteId site, sim::Time now) const;

  /// Estimated snapshot combining the base snapshot with active dispatch
  /// records (used for USLA evaluation).
  [[nodiscard]] grid::SiteSnapshot estimated_snapshot(SiteId site, sim::Time now) const;

  /// Per-site load vector (the GetSiteLoads reply body).
  [[nodiscard]] std::vector<SiteLoad> loads(sim::Time now) const;

  /// Calls `visit(const SiteLoad&)` for every site in site order, as
  /// `loads` reports it, without building the vector.
  template <class Visit>
  void for_each_load(sim::Time now, Visit&& visit) const;

  /// Calls `visit(const SiteFold&)` for every site in site order, folding
  /// each site's active (not yet aged-out) records once for the chain
  /// `vo` -> `group` -> `user`.
  template <class Visit>
  void fold(VoId vo, GroupId group, UserId user, sim::Time now,
            Visit&& visit) const;

  /// Every dispatch record that has not yet aged out, across all sites —
  /// what a checkpoint persists. Deterministic order (site, then age).
  [[nodiscard]] std::vector<DispatchRecord> active_records(sim::Time now) const;

  /// The base snapshots as held (static knowledge plus any applied monitor
  /// or strategy-1 snapshots), *without* folding in active records — paired
  /// with `active_records`, this is a lossless copy of the view, which is
  /// what a joining decision point bootstraps from. Deterministic site
  /// order.
  [[nodiscard]] std::vector<grid::SiteSnapshot> base_snapshots() const;

  /// Forget everything (crash semantics: the view is volatile state).
  void clear();

  [[nodiscard]] std::uint64_t dispatches_recorded() const { return recorded_; }

  /// Compact digest of the settled window `(when <= as_of, expiry >
  /// horizon)` — see ViewDigest. Order-independent: two views holding the
  /// same records inside the window digest identically regardless of
  /// arrival order, physical prune history, or the comparer's clock.
  /// The first call scans every held record; from then on the view keeps
  /// the aggregate for the last window asked about, so a call revisits
  /// only the sites holding a record that crossed a window edge since.
  [[nodiscard]] ViewDigest digest(sim::Time as_of, sim::Time horizon) const;

  /// Active records belonging to any VO in `vos` (ascending input),
  /// deterministic (site, then age) order — an anti-entropy pull reply.
  /// Over every VO of the catalog this is `active_records`.
  [[nodiscard]] std::vector<DispatchRecord> records_for_vos(
      const std::vector<VoId>& vos, sim::Time now) const;

  /// Outcome of merging one remote record during anti-entropy.
  struct MergeResult {
    bool applied = false;        // the record now lives in this view
    bool conflict = false;       // an (origin, seq) twin disagreed on content
    bool double_commit = false;  // same logical work seen from another origin
  };

  /// Idempotent, deterministic record merge: drops exact duplicates,
  /// resolves (origin, seq) conflicts by severity (more CPUs held) then
  /// epoch (higher incarnation-shifted seq semantics: later `when` wins the
  /// tie), and flags double-commits — the same (vo, group, user, when) work
  /// admitted by two different origins across a split. Both sides of a
  /// healed partition converge to the same record set whatever the merge
  /// order. The record goes in through `record_dispatch`, so one that has
  /// expired by `now` is not applied.
  MergeResult merge_record(const DispatchRecord& record, sim::Time now);

  /// Sites whose base snapshot has gone stale: refreshed at least once
  /// (as_of > 0 — static strategy-2 knowledge never stales) but not within
  /// `threshold` of `now`. Feeds the degraded-mode admission hint.
  [[nodiscard]] std::size_t stale_site_count(sim::Time now,
                                             sim::Duration threshold) const;

 private:
  /// A held record without its site, which its `SiteState` names, and
  /// with its expiry in place of its runtime.
  struct Held {
    DpId origin;
    std::uint64_t seq = 0;
    VoId vo;
    GroupId group;
    UserId user;
    sim::Time when;
    sim::Time expiry;
    std::int32_t cpus = 0;
    /// Not part of the record: its place in its site's arrival order,
    /// which the cold readers report in (see `Block::next_arrival`).
    std::uint32_t arrival = 0;
  };

  /// The CPUs the live records of one site hold for one (VO, group, user)
  /// chain.
  struct Chain {
    VoId vo;
    GroupId group;
    UserId user;
    std::int32_t cpus = 0;
  };
  static constexpr auto chain_before = [](const Chain& a, const Chain& b) {
    if (a.vo != b.vo) return a.vo < b.vo;
    if (a.group != b.group) return a.group < b.group;
    return a.user < b.user;
  };

  /// The records of a site that holds any, kept so that a query never
  /// walks them: their CPUs summed per chain beside them.
  struct Block {
    /// The held records as a min-heap by expiry (`expires_later` in
    /// view.cpp): the next to expire is `records.front()`.
    std::vector<Held> records;
    /// One entry per chain the records hold CPUs for, ascending by
    /// `chain_before`; an entry whose CPUs fall to zero is erased.
    std::vector<Chain> chains;
    /// The stamp the next record takes: stamps rise in arrival order,
    /// restart when the site empties, and are renumbered from zero in
    /// order once they run past twice the records held, so ordering the
    /// records by stamp is one pass over at most about twice as many
    /// stamps (view.cpp).
    std::uint32_t next_arrival = 0;
  };

  /// What a candidate scan reads of one site, packed apart from the base
  /// snapshot and its maps: a fold over thousands of sites reads about one
  /// cache line per site that holds no records, and one more for a site
  /// that holds some.
  struct SiteState {
    explicit SiteState(SiteId id) : site(id) {}

    /// Copy the base's counts that the fold reads.
    void take_counts(const grid::SiteSnapshot& base) {
      total_cpus = base.total_cpus;
      free_cpus = base.free_cpus;
      queued_jobs = base.queued_jobs;
      has_vo_running = !base.running_per_vo.empty();
    }

    SiteId site;
    std::int32_t total_cpus = 0;
    std::int32_t free_cpus = 0;
    std::int32_t queued_jobs = 0;
    /// The CPUs the held records hold: zero exactly when the site holds
    /// none, since every held record holds at least one.
    std::int32_t pending = 0;
    /// The first expiry among the held records: until `now` reaches it,
    /// `prune` has nothing to drop.
    sim::Time next_expiry = sim::Time::max();
    /// `held->chains` as the fold reads it, refreshed whenever it changes.
    const Chain* chains = nullptr;
    std::uint32_t chain_count = 0;
    /// Whether the base's per-VO running map has any entry to look up.
    bool has_vo_running = false;
    /// The held records; a site holds a block while it holds any.
    std::unique_ptr<Block> held;
  };

  /// The digest of the window last asked about, kept exact through every
  /// change to the held records (view.cpp). Built by the first `digest`
  /// call: a view that never digests keeps none.
  struct DigestCache;

  /// Drop `state`'s records that have expired by `now`; a site below its
  /// expiry watermark costs one comparison.
  void prune(SiteState& state, sim::Time now) const {
    if (now >= state.next_expiry) drop_expired(state, now);
  }
  void drop_expired(SiteState& state, sim::Time now) const;
  /// Take `h` out of `state`'s sums and the digest; the caller then takes
  /// it out of the heap.
  void remove(SiteState& state, const Held& h) const;
  /// Add `cpus` (negative to take them away) to `state`'s pending CPUs and
  /// to the sum of `h`'s chain.
  static void count(SiteState& state, const Held& h, std::int32_t cpus);
  /// After removals: set an emptied site's block aside, or reset the
  /// watermark to the next expiry.
  void settle(SiteState& state) const;
  /// `h`, held at `state`'s site, as it was recorded.
  [[nodiscard]] static DispatchRecord record_at(const SiteState& state,
                                                const Held& h);
  /// `state`'s held records in heap order (none without a block).
  [[nodiscard]] static std::span<const Held> held_records(
      const SiteState& state) {
    if (!state.held) return {};
    return state.held->records;
  }
  /// The records not aged out by `now` that `keep(const Held&)` accepts,
  /// in (site, then arrival) order.
  template <class Keep>
  [[nodiscard]] std::vector<DispatchRecord> collect(sim::Time now,
                                                    Keep&& keep) const;
  /// The index of `site` in `sites_`, or `sites_.size()` if unknown.
  [[nodiscard]] std::size_t find(SiteId site) const;
  /// The index of `site` in `sites_`, created (and registered with the
  /// digest) if new.
  std::size_t index_for(SiteId site);
  [[nodiscard]] static SiteLoad site_load(const SiteState& state) {
    SiteLoad load;
    load.site = state.site;
    load.total_cpus = state.total_cpus;
    load.free_estimate = std::max(0, state.free_cpus - state.pending);
    load.raw_free = load.free_estimate;
    load.queued = state.queued_jobs;
    return load;
  }

  /// Every known site, ascending by id: reads walk them in that order and
  /// a lookup is a binary search.
  mutable std::vector<SiteState> sites_;
  /// `bases_[i]` is the base snapshot held for `sites_[i]`.
  std::vector<grid::SiteSnapshot> bases_;
  mutable std::unique_ptr<DigestCache> digest_;
  /// Blocks whose sites emptied, kept for the next site that takes a
  /// record: a site that keeps emptying and filling allocates nothing.
  mutable std::vector<std::unique_ptr<Block>> spare_;
  std::uint64_t recorded_ = 0;
};

template <class Visit>
void GridView::for_each_load(sim::Time now, Visit&& visit) const {
  for (SiteState& state : sites_) {
    prune(state, now);
    visit(site_load(state));
  }
}

template <class Visit>
void GridView::fold(VoId vo, GroupId group, UserId user, sim::Time now,
                    Visit&& visit) const {
  const grid::SiteSnapshot* base = bases_.data();  // walks beside `state`
  for (SiteState& state : sites_) {
    prune(state, now);
    SiteFold f;
    f.base = base++;
    usla::ChainUsage& u = f.usage;
    u.site = state.site;
    u.total_cpus = state.total_cpus;
    u.free_cpus = state.free_cpus;
    if (state.has_vo_running) {
      const auto& running = f.base->running_per_vo;
      const auto it = running.find(vo);
      if (it != running.end()) u.vo_running = it->second;
    }
    if (state.pending != 0) {
      // Each record holds at least one CPU, so clamping the free count at
      // zero once equals clamping it after each record.
      u.free_cpus = std::max(0, u.free_cpus - state.pending);
      for (const Chain& c : std::span(state.chains, state.chain_count)) {
        if (c.vo == vo) u.vo_running += c.cpus;
        if (c.group == group) u.group_running += c.cpus;
        if (c.user == user) u.user_running += c.cpus;
      }
    }
    f.load = site_load(state);
    visit(f);
  }
}

}  // namespace digruber::gruber
