#include "digruber/gruber/view.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace digruber::gruber {

namespace {

/// splitmix64 finalizer: the digest mix. Stable across platforms — digests
/// travel on the wire, so the hash must not depend on implementation
/// details the way std::hash does.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t record_hash(const DispatchRecord& r) {
  std::uint64_t h = mix64(r.origin.value());
  h = mix64(h ^ r.seq);
  h = mix64(h ^ r.site.value());
  h = mix64(h ^ r.vo.value());
  h = mix64(h ^ r.group.value());
  h = mix64(h ^ r.user.value());
  h = mix64(h ^ std::uint64_t(std::uint32_t(r.cpus)));
  h = mix64(h ^ std::uint64_t(r.when.us()));
  h = mix64(h ^ std::uint64_t(r.est_runtime.us()));
  return h;
}

std::uint64_t snapshot_hash(const grid::SiteSnapshot& s) {
  std::uint64_t h = mix64(s.site.value());
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.total_cpus)));
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.free_cpus)));
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.queued_jobs)));
  h = mix64(h ^ std::uint64_t(s.as_of.us()));
  for (const auto& [vo, cpus] : s.running_per_vo) {
    h = mix64(h ^ vo.value());
    h = mix64(h ^ std::uint64_t(std::uint32_t(cpus)));
  }
  return h;
}

/// Whether a record made at `when` that ages out at `expiry` lies in the
/// settled window (as_of, horizon) — see ViewDigest.
bool settled(sim::Time when, sim::Time expiry, sim::Time as_of,
             sim::Time horizon) {
  // Outside the settled window: too fresh to have propagated over normal
  // exchanges, or expiring too soon to survive the compare round trip.
  // Either would make healthy peers digest differently.
  return when <= as_of && expiry > horizon;
}

/// Binary-search order of a site state against a site id.
constexpr auto site_before = [](const auto& state, SiteId site) {
  return state.site < site;
};

/// The heap order of a site's held records: the first to expire on top.
constexpr auto expires_later = [](const auto& a, const auto& b) {
  return a.expiry > b.expiry;
};

/// No held record is stamped with this or sits at this heap position, so
/// it can stand for "none" in either.
constexpr std::uint32_t kNoArrival = std::numeric_limits<std::uint32_t>::max();

/// How far a site's stamps may run past twice its record count before
/// they are renumbered, so a site holding few records renumbers rarely.
constexpr std::size_t kSpareStamps = 64;

/// Set `by_stamp[s]` to the position of `held`'s record stamped `s`, or
/// to kNoArrival if none is. Stamps are distinct and below
/// `held.next_arrival`, so a walk over `by_stamp` meets the records in
/// arrival order, with no sort.
constexpr auto place_by_stamp = [](const auto& held,
                                   std::vector<std::uint32_t>& by_stamp) {
  by_stamp.assign(held.next_arrival, kNoArrival);
  for (std::uint32_t i = 0; i < held.records.size(); ++i) {
    by_stamp[held.records[i].arrival] = i;
  }
};

}  // namespace

struct GridView::DigestCache {
  /// The windows over which none of one site's held records enters or
  /// leaves the settled window: `as_of` in [as_of_lo, as_of_hi) and
  /// `horizon` in [horizon_lo, horizon_hi). Open until records narrow it.
  struct SiteBox {
    sim::Time as_of_lo = sim::Time::zero() - sim::Duration::max();
    sim::Time as_of_hi = sim::Time::max();
    sim::Time horizon_lo = sim::Time::zero() - sim::Duration::max();
    sim::Time horizon_hi = sim::Time::max();

    [[nodiscard]] bool holds(sim::Time as_of, sim::Time horizon) const {
      return as_of_lo <= as_of && as_of < as_of_hi &&
             horizon_lo <= horizon && horizon < horizon_hi;
    }

    /// Narrow to the edges a record made at `when` that ages out at
    /// `expiry` puts around the window (as_of, horizon).
    void tighten(sim::Time when, sim::Time expiry, sim::Time as_of,
                 sim::Time horizon) {
      if (when <= as_of) {
        as_of_lo = std::max(as_of_lo, when);
      } else {
        as_of_hi = std::min(as_of_hi, when);
      }
      if (expiry <= horizon) {
        horizon_lo = std::max(horizon_lo, expiry);
      } else {
        horizon_hi = std::min(horizon_hi, expiry);
      }
    }
  };

  sim::Time as_of;
  sim::Time horizon;
  std::uint64_t base_hash = 0;
  std::map<VoId, VoDigest> vos;                       // in-window records
  std::map<DpId, std::multiset<std::uint64_t>> seqs;  // their seqs by origin
  /// `boxes[i]` belongs to `sites_[i]`. Positions, not pointers: inserting
  /// a site moves the states after it.
  std::vector<SiteBox> boxes;

  /// Add or remove one in-window record.
  void toggle(const DispatchRecord& r, bool in) {
    const auto vo = vos.try_emplace(r.vo, VoDigest{r.vo}).first;
    const auto origin = seqs.try_emplace(r.origin).first;
    vo->second.hash ^= record_hash(r);
    if (in) {
      ++vo->second.records;
      vo->second.cpus += r.cpus;
      origin->second.insert(r.seq);
      return;
    }
    // Drop the entries a scan would not emit: no record left in the window.
    --vo->second.records;
    vo->second.cpus -= r.cpus;
    if (vo->second.records == 0) vos.erase(vo);
    origin->second.erase(origin->second.find(r.seq));
    if (origin->second.empty()) seqs.erase(origin);
  }

  /// Take in a site: its base and in-window records join the aggregate,
  /// and the returned box is the one its records put around the window.
  [[nodiscard]] SiteBox add_site(const grid::SiteSnapshot& base,
                                 const SiteState& state) {
    base_hash ^= snapshot_hash(base);
    SiteBox b;
    for (const Held& h : held_records(state)) {
      if (settled(h.when, h.expiry, as_of, horizon)) {
        toggle(record_at(state, h), true);
      }
      b.tighten(h.when, h.expiry, as_of, horizon);
    }
    return b;
  }

  /// Move `state`'s site, boxed by `b`, to the window (to_as_of,
  /// to_horizon): toggle the records that cross an edge and recompute
  /// the box.
  void rescan(SiteBox& b, const SiteState& state, sim::Time to_as_of,
              sim::Time to_horizon) {
    SiteBox moved;
    for (const Held& h : held_records(state)) {
      const bool in = settled(h.when, h.expiry, to_as_of, to_horizon);
      if (in != settled(h.when, h.expiry, as_of, horizon)) {
        toggle(record_at(state, h), in);
      }
      moved.tighten(h.when, h.expiry, to_as_of, to_horizon);
    }
    b = moved;
  }
};

GridView::GridView() = default;
GridView::GridView(GridView&&) noexcept = default;
GridView& GridView::operator=(GridView&&) noexcept = default;
GridView::~GridView() = default;

std::vector<VoId> diverged_vos(const ViewDigest& a, const ViewDigest& b) {
  std::vector<VoId> out;
  auto ia = a.vos.begin();
  auto ib = b.vos.begin();
  while (ia != a.vos.end() || ib != b.vos.end()) {
    if (ib == b.vos.end() || (ia != a.vos.end() && ia->vo < ib->vo)) {
      out.push_back(ia->vo);
      ++ia;
    } else if (ia == a.vos.end() || ib->vo < ia->vo) {
      out.push_back(ib->vo);
      ++ib;
    } else {
      if (!(*ia == *ib)) out.push_back(ia->vo);
      ++ia;
      ++ib;
    }
  }
  return out;
}

void GridView::bootstrap(const std::vector<grid::SiteSnapshot>& snapshots) {
  if (sites_.empty()) {
    // A new or cleared view taking in the whole grid: size both arrays
    // once instead of growing them, which leaves no freed arrays behind.
    sites_.reserve(snapshots.size());
    bases_.reserve(snapshots.size());
  }
  for (const auto& snapshot : snapshots) apply_snapshot(snapshot);
}

void GridView::apply_snapshot(const grid::SiteSnapshot& snapshot) {
  const std::size_t i = index_for(snapshot.site);
  grid::SiteSnapshot& base = bases_[i];
  if (snapshot.as_of < base.as_of) return;  // stale: ignore
  if (digest_) {
    digest_->base_hash ^= snapshot_hash(base) ^ snapshot_hash(snapshot);
  }
  base = snapshot;
  SiteState& state = sites_[i];
  state.take_counts(base);
  if (!state.held) return;
  // Dispatches made before the snapshot are already reflected in it.
  std::vector<Held>& records = state.held->records;
  const auto absorbed = [&](const Held& h) {
    if (h.when > snapshot.as_of) return false;
    remove(state, h);
    return true;
  };
  if (std::erase_if(records, absorbed) != 0) {
    std::make_heap(records.begin(), records.end(), expires_later);
  }
  settle(state);
}

bool GridView::record_dispatch(const DispatchRecord& record, sim::Time now) {
  const sim::Time expiry = record.when + record.est_runtime;
  if (record.cpus < 1 || expiry <= now) return false;
  const std::size_t i = index_for(record.site);
  SiteState& state = sites_[i];
  if (!state.held) {
    if (spare_.empty()) {
      state.held = std::make_unique<Block>();
    } else {
      state.held = std::move(spare_.back());
      spare_.pop_back();
    }
  }
  Block& held = *state.held;
  std::vector<Held>& records = held.records;
  if (held.next_arrival >= 2 * records.size() + kSpareStamps) {
    // Most stamps handed out belonged to records gone since: renumber the
    // rest from zero in order, so `place_by_stamp` stays proportional to
    // the records held and the stamps never run out.
    std::vector<std::uint32_t> by_stamp;
    place_by_stamp(held, by_stamp);
    held.next_arrival = 0;
    for (const std::uint32_t pos : by_stamp) {
      if (pos != kNoArrival) records[pos].arrival = held.next_arrival++;
    }
  }
  const Held h{record.origin, record.seq,  record.vo,
               record.group,  record.user, record.when,
               expiry,        record.cpus, held.next_arrival++};
  records.push_back(h);
  std::push_heap(records.begin(), records.end(), expires_later);
  count(state, h, h.cpus);
  state.next_expiry = std::min(state.next_expiry, expiry);
  ++recorded_;
  if (digest_) {
    if (settled(record.when, expiry, digest_->as_of, digest_->horizon)) {
      digest_->toggle(record, true);
    }
    digest_->boxes[i].tighten(record.when, expiry, digest_->as_of,
                              digest_->horizon);
  }
  return true;
}

void GridView::count(SiteState& state, const Held& h, std::int32_t cpus) {
  state.pending += cpus;
  std::vector<Chain>& chains = state.held->chains;
  const Chain key{h.vo, h.group, h.user, cpus};
  const auto it =
      std::lower_bound(chains.begin(), chains.end(), key, chain_before);
  if (it == chains.end() || chain_before(key, *it)) {
    chains.insert(it, key);
  } else if ((it->cpus += cpus) == 0) {
    chains.erase(it);
  }
  state.chains = chains.data();
  state.chain_count = std::uint32_t(chains.size());
}

void GridView::drop_expired(SiteState& state, sim::Time now) const {
  std::vector<Held>& records = state.held->records;
  while (!records.empty() && records.front().expiry <= now) {
    std::pop_heap(records.begin(), records.end(), expires_later);
    remove(state, records.back());
    records.pop_back();
  }
  settle(state);
}

void GridView::remove(SiteState& state, const Held& h) const {
  if (digest_ && settled(h.when, h.expiry, digest_->as_of, digest_->horizon)) {
    digest_->toggle(record_at(state, h), false);
  }
  count(state, h, -h.cpus);
}

void GridView::settle(SiteState& state) const {
  Block& held = *state.held;
  if (!held.records.empty()) {
    state.next_expiry = held.records.front().expiry;
    return;
  }
  held.next_arrival = 0;
  spare_.push_back(std::move(state.held));
  state.chains = nullptr;
  state.chain_count = 0;
  state.next_expiry = sim::Time::max();
}

DispatchRecord GridView::record_at(const SiteState& state, const Held& h) {
  DispatchRecord r;
  r.origin = h.origin;
  r.seq = h.seq;
  r.site = state.site;
  r.vo = h.vo;
  r.group = h.group;
  r.user = h.user;
  r.cpus = h.cpus;
  r.when = h.when;
  r.est_runtime = h.expiry - h.when;
  return r;
}

template <class Keep>
std::vector<DispatchRecord> GridView::collect(sim::Time now,
                                              Keep&& keep) const {
  std::vector<DispatchRecord> out;
  std::vector<std::uint32_t> by_stamp;
  for (SiteState& state : sites_) {
    prune(state, now);
    if (!state.held) continue;
    place_by_stamp(*state.held, by_stamp);
    for (const std::uint32_t i : by_stamp) {
      if (i == kNoArrival) continue;
      const Held& h = state.held->records[i];
      if (keep(h)) out.push_back(record_at(state, h));
    }
  }
  return out;
}

std::size_t GridView::index_for(SiteId site) {
  const auto it =
      std::lower_bound(sites_.begin(), sites_.end(), site, site_before);
  const auto i = std::size_t(it - sites_.begin());
  if (it == sites_.end() || it->site != site) {
    sites_.emplace(it, site);
    bases_.emplace(bases_.begin() + std::ptrdiff_t(i));
    if (digest_) {
      digest_->boxes.insert(digest_->boxes.begin() + std::ptrdiff_t(i),
                            digest_->add_site(bases_[i], sites_[i]));
    }
  }
  return i;
}

std::size_t GridView::find(SiteId site) const {
  const auto it =
      std::lower_bound(sites_.begin(), sites_.end(), site, site_before);
  return it == sites_.end() || it->site != site ? sites_.size()
                                                : std::size_t(it - sites_.begin());
}

std::int32_t GridView::estimated_free(SiteId site, sim::Time now) const {
  const std::size_t i = find(site);
  if (i == sites_.size()) return 0;
  SiteState& state = sites_[i];
  prune(state, now);
  return std::max(0, state.free_cpus - state.pending);
}

grid::SiteSnapshot GridView::estimated_snapshot(SiteId site, sim::Time now) const {
  const std::size_t i = find(site);
  if (i == sites_.size()) return {};
  SiteState& state = sites_[i];
  prune(state, now);
  grid::SiteSnapshot estimate = bases_[i];
  if (state.pending != 0) {
    estimate.free_cpus = std::max(0, estimate.free_cpus - state.pending);
    for (const Chain& c : state.held->chains) {
      estimate.running_per_vo[c.vo] += c.cpus;
    }
  }
  estimate.as_of = now;
  return estimate;
}

std::vector<DispatchRecord> GridView::active_records(sim::Time now) const {
  return collect(now, [](const Held&) { return true; });
}

std::vector<grid::SiteSnapshot> GridView::base_snapshots() const {
  return bases_;
}

void GridView::clear() {
  sites_ = std::vector<SiteState>();
  bases_ = std::vector<grid::SiteSnapshot>();
  spare_ = std::vector<std::unique_ptr<Block>>();
  digest_.reset();
  recorded_ = 0;
}

ViewDigest GridView::digest(sim::Time as_of, sim::Time horizon) const {
  if (!digest_) {
    // The first call is a full scan, which starts the aggregate.
    digest_ = std::make_unique<DigestCache>();
    digest_->as_of = as_of;
    digest_->horizon = horizon;
    digest_->boxes.reserve(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      digest_->boxes.push_back(digest_->add_site(bases_[i], sites_[i]));
    }
  } else {
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      DigestCache::SiteBox& b = digest_->boxes[i];
      if (!b.holds(as_of, horizon)) digest_->rescan(b, sites_[i], as_of, horizon);
    }
    digest_->as_of = as_of;
    digest_->horizon = horizon;
  }
  ViewDigest out;
  out.as_of = as_of;
  out.horizon = horizon;
  out.base_hash = digest_->base_hash;
  out.vos.reserve(digest_->vos.size());
  for (const auto& [vo, vd] : digest_->vos) out.vos.push_back(vd);
  out.epochs.reserve(digest_->seqs.size());
  for (const auto& [origin, seqs] : digest_->seqs) {
    out.epochs.push_back(
        OriginEpoch{origin, *seqs.rbegin(), std::uint32_t(seqs.size())});
  }
  return out;
}

std::vector<DispatchRecord> GridView::records_for_vos(
    const std::vector<VoId>& vos, sim::Time now) const {
  return collect(now, [&](const Held& h) {
    return std::binary_search(vos.begin(), vos.end(), h.vo);
  });
}

GridView::MergeResult GridView::merge_record(const DispatchRecord& record,
                                             sim::Time now) {
  MergeResult out;
  for (SiteState& state : sites_) {
    prune(state, now);
    // What a walk in arrival order meets first: the twin (same origin and
    // seq), and a record of the same logical work admitted independently
    // by another origin, the split-brain double-commit signature.
    const Held* twin = nullptr;
    std::uint32_t first_double = kNoArrival;
    for (const Held& h : held_records(state)) {
      if (h.origin == record.origin) {
        if (h.seq == record.seq && (!twin || h.arrival < twin->arrival)) {
          twin = &h;
        }
      } else if (h.vo == record.vo && h.group == record.group &&
                 h.user == record.user && h.when == record.when) {
        first_double = std::min(first_double, h.arrival);
      }
    }
    // Keep both sides of a double commit (both really consumed capacity)
    // but surface it for accounting.
    if (first_double < (twin ? twin->arrival : kNoArrival)) {
      out.double_commit = true;
    }
    if (!twin) continue;
    if (record_at(state, *twin) == record) {
      return out;  // exact duplicate: nothing to do
    }
    // Conflicting twins: severity first (the allocation holding more
    // CPUs survives, so reconciliation never under-counts committed
    // capacity), then epoch (later `when`); keep the incumbent on a full
    // tie so both merge orders converge to the same record.
    out.conflict = true;
    const bool incoming_wins = record.cpus != twin->cpus
                                   ? record.cpus > twin->cpus
                                   : record.when > twin->when;
    if (!incoming_wins) return out;
    remove(state, *twin);
    std::vector<Held>& records = state.held->records;
    records.erase(records.begin() + (twin - records.data()));
    std::make_heap(records.begin(), records.end(), expires_later);
    settle(state);
    out.applied = record_dispatch(record, now);
    return out;
  }
  out.applied = record_dispatch(record, now);
  return out;
}

std::size_t GridView::stale_site_count(sim::Time now,
                                       sim::Duration threshold) const {
  std::size_t stale = 0;
  for (const grid::SiteSnapshot& base : bases_) {
    if (base.as_of > sim::Time::zero() && now - base.as_of > threshold) ++stale;
  }
  return stale;
}

std::vector<SiteLoad> GridView::loads(sim::Time now) const {
  std::vector<SiteLoad> out;
  out.reserve(sites_.size());
  for_each_load(now, [&](const SiteLoad& load) { out.push_back(load); });
  return out;
}

}  // namespace digruber::gruber
