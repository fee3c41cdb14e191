#include "digruber/gruber/view.hpp"

#include <algorithm>
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

/// Whether `r` lies in the settled window (as_of, horizon) — see ViewDigest.
bool settled(const DispatchRecord& r, sim::Time as_of, sim::Time horizon) {
  // Outside the settled window: too fresh to have propagated over normal
  // exchanges, or expiring too soon to survive the compare round trip.
  // Either would make healthy peers digest differently.
  return r.when <= as_of && r.when + r.est_runtime > horizon;
}

/// Binary-search order of a site state against a site id.
constexpr auto site_before = [](const auto& state, SiteId site) {
  return state.site < site;
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

    /// Narrow to the edges `r` puts around the window (as_of, horizon).
    void tighten(const DispatchRecord& r, sim::Time as_of, sim::Time horizon) {
      if (r.when <= as_of) {
        as_of_lo = std::max(as_of_lo, r.when);
      } else {
        as_of_hi = std::min(as_of_hi, r.when);
      }
      const sim::Time expiry = r.when + r.est_runtime;
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
    for (const DispatchRecord& r : state.active) {
      if (settled(r, as_of, horizon)) toggle(r, true);
      b.tighten(r, as_of, horizon);
    }
    return b;
  }

  /// Move `state`'s site, boxed by `b`, to the window (to_as_of,
  /// to_horizon): toggle the records that cross an edge and recompute
  /// the box.
  void rescan(SiteBox& b, const SiteState& state, sim::Time to_as_of,
              sim::Time to_horizon) {
    SiteBox moved;
    for (const DispatchRecord& r : state.active) {
      const bool in = settled(r, to_as_of, to_horizon);
      if (in != settled(r, as_of, horizon)) toggle(r, in);
      moved.tighten(r, to_as_of, to_horizon);
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
  // Dispatches made before the snapshot are already reflected in it.
  std::erase_if(state.active, [&](const DispatchRecord& r) {
    if (r.when > snapshot.as_of) return false;
    release(r);
    return true;
  });
}

bool GridView::record_dispatch(const DispatchRecord& record, sim::Time now) {
  const sim::Time expiry = record.when + record.est_runtime;
  if (expiry <= now) return false;
  const std::size_t i = index_for(record.site);
  SiteState& state = sites_[i];
  state.active.push_back(record);
  state.next_expiry = std::min(state.next_expiry, expiry);
  ++recorded_;
  if (digest_) {
    if (settled(record, digest_->as_of, digest_->horizon)) {
      digest_->toggle(record, true);
    }
    digest_->boxes[i].tighten(record, digest_->as_of, digest_->horizon);
  }
  return true;
}

void GridView::drop_expired(SiteState& state, sim::Time now) const {
  sim::Time next = sim::Time::max();
  std::erase_if(state.active, [&](const DispatchRecord& r) {
    const sim::Time expiry = r.when + r.est_runtime;
    if (expiry > now) {
      next = std::min(next, expiry);
      return false;
    }
    release(r);
    return true;
  });
  state.next_expiry = next;
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

void GridView::release(const DispatchRecord& r) const {
  if (digest_ && settled(r, digest_->as_of, digest_->horizon)) {
    digest_->toggle(r, false);
  }
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
  return std::max(0, state.free_cpus - pending_cpus(state));
}

grid::SiteSnapshot GridView::estimated_snapshot(SiteId site, sim::Time now) const {
  const std::size_t i = find(site);
  if (i == sites_.size()) return {};
  SiteState& state = sites_[i];
  prune(state, now);
  grid::SiteSnapshot estimate = bases_[i];
  for (const auto& r : state.active) {
    estimate.free_cpus = std::max(0, estimate.free_cpus - r.cpus);
    estimate.running_per_vo[r.vo] += r.cpus;
  }
  estimate.as_of = now;
  return estimate;
}

std::vector<DispatchRecord> GridView::active_records(sim::Time now) const {
  std::vector<DispatchRecord> out;
  for (SiteState& state : sites_) {
    prune(state, now);
    out.insert(out.end(), state.active.begin(), state.active.end());
  }
  return out;
}

std::vector<grid::SiteSnapshot> GridView::base_snapshots() const {
  return bases_;
}

void GridView::clear() {
  sites_ = std::vector<SiteState>();
  bases_ = std::vector<grid::SiteSnapshot>();
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
  std::vector<DispatchRecord> out;
  for (SiteState& state : sites_) {
    prune(state, now);
    for (const DispatchRecord& r : state.active) {
      if (std::binary_search(vos.begin(), vos.end(), r.vo)) out.push_back(r);
    }
  }
  return out;
}

GridView::MergeResult GridView::merge_record(const DispatchRecord& record,
                                             sim::Time now) {
  MergeResult out;
  for (SiteState& state : sites_) {
    prune(state, now);
    for (auto it = state.active.begin(); it != state.active.end(); ++it) {
      if (it->origin == record.origin && it->seq == record.seq) {
        if (*it == record) {
          return out;  // exact duplicate: nothing to do
        }
        // Conflicting twins: severity first (the allocation holding more
        // CPUs survives, so reconciliation never under-counts committed
        // capacity), then epoch (later `when`); keep the incumbent on a
        // full tie so both merge orders converge to the same record.
        out.conflict = true;
        const bool incoming_wins =
            record.cpus != it->cpus ? record.cpus > it->cpus
                                    : record.when > it->when;
        if (!incoming_wins) return out;
        release(*it);
        state.active.erase(it);
        out.applied = record_dispatch(record, now);
        return out;
      }
      if (it->origin != record.origin && it->vo == record.vo &&
          it->group == record.group && it->user == record.user &&
          it->when == record.when) {
        // The same logical work admitted independently by two origins —
        // the split-brain double-commit signature. Keep both records (both
        // really consumed capacity) but surface it for accounting.
        out.double_commit = true;
      }
    }
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
