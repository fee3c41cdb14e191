// A seeded differential test of GridView against ReferenceView, a model of
// the same behaviour over the simplest layout: sites in a std::map, each
// site's records in a std::deque, every read pruning each site it visits
// with a full erase pass and summing its records one by one, and every
// digest a full scan. GridView keeps its sites in one sorted vector with
// each base's counts copied beside the records, keeps per-site CPU sums
// current instead of walking records, holds each site's records as one
// heap by expiry with an arrival stamp per record to restore their order,
// skips prune passes below each site's expiry watermark and the per-VO
// lookup on an empty map, and keeps its digest incrementally; none of that
// may change a result.
#include "digruber/gruber/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "digruber/common/rng.hpp"

namespace digruber::gruber {
namespace {

// The digest's hashes, restated so the model digests independently of the
// code under test (ViewDigest.ValuesPinned pins the same values).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t record_hash(const DispatchRecord& r) {
  std::uint64_t h = mix64(r.origin.value());
  for (const std::uint64_t v :
       {r.seq, r.site.value(), r.vo.value(), r.group.value(), r.user.value(),
        std::uint64_t(std::uint32_t(r.cpus)), std::uint64_t(r.when.us()),
        std::uint64_t(r.est_runtime.us())}) {
    h = mix64(h ^ v);
  }
  return h;
}

std::uint64_t snapshot_hash(const grid::SiteSnapshot& s) {
  std::uint64_t h = mix64(s.site.value());
  for (const std::uint64_t v :
       {std::uint64_t(std::uint32_t(s.total_cpus)),
        std::uint64_t(std::uint32_t(s.free_cpus)),
        std::uint64_t(std::uint32_t(s.queued_jobs)), std::uint64_t(s.as_of.us())}) {
    h = mix64(h ^ v);
  }
  for (const auto& [vo, cpus] : s.running_per_vo) {
    h = mix64(h ^ vo.value());
    h = mix64(h ^ std::uint64_t(std::uint32_t(cpus)));
  }
  return h;
}

sim::Time expiry(const DispatchRecord& r) { return r.when + r.est_runtime; }

/// One site as `GridView::fold` reports it, in comparable form.
using FoldRow = std::tuple<std::uint64_t, std::int32_t, std::int32_t, std::int32_t,
                           std::int32_t, std::int32_t, std::int32_t, std::int32_t,
                           std::int32_t, std::int32_t, std::int64_t>;

FoldRow fold_row(const SiteFold& f) {
  const usla::ChainUsage& u = f.usage;
  return {u.site.value(), u.total_cpus, u.free_cpus, u.vo_running,
          u.group_running, u.user_running, f.load.free_estimate,
          f.load.raw_free, f.load.queued, f.base->total_cpus,
          f.base->as_of.us()};
}

using LoadRow = std::tuple<std::uint64_t, std::int32_t, std::int32_t, std::int32_t,
                           std::int32_t>;

std::vector<LoadRow> load_rows(const std::vector<SiteLoad>& loads) {
  std::vector<LoadRow> out;
  for (const SiteLoad& l : loads) {
    out.emplace_back(l.site.value(), l.total_cpus, l.free_estimate, l.raw_free,
                     l.queued);
  }
  return out;
}

using BaseRow = std::tuple<std::uint64_t, std::int32_t, std::int32_t, std::int64_t,
                           std::map<VoId, std::int32_t>>;

std::vector<BaseRow> base_rows(const std::vector<grid::SiteSnapshot>& bases) {
  std::vector<BaseRow> out;
  for (const grid::SiteSnapshot& s : bases) {
    out.emplace_back(s.site.value(), s.total_cpus, s.free_cpus, s.as_of.us(),
                     s.running_per_vo);
  }
  return out;
}

class ReferenceView {
 public:
  void bootstrap(const std::vector<grid::SiteSnapshot>& snapshots) {
    for (const grid::SiteSnapshot& s : snapshots) apply_snapshot(s);
  }

  void apply_snapshot(const grid::SiteSnapshot& snapshot) {
    Site& site = sites_[snapshot.site];
    if (snapshot.as_of < site.base.as_of) return;
    site.base = snapshot;
    std::erase_if(site.active, [&](const DispatchRecord& r) {
      return r.when <= snapshot.as_of;
    });
  }

  bool record_dispatch(const DispatchRecord& record, sim::Time now) {
    if (record.cpus < 1 || expiry(record) <= now) return false;
    sites_[record.site].active.push_back(record);
    ++recorded_;
    return true;
  }

  std::vector<SiteLoad> loads(sim::Time now) {
    std::vector<SiteLoad> out;
    for (auto& [id, site] : sites_) {
      prune(site, now);
      std::int32_t pending = 0;
      for (const DispatchRecord& r : site.active) pending += r.cpus;
      SiteLoad l;
      l.site = id;
      l.total_cpus = site.base.total_cpus;
      l.free_estimate = std::max(0, site.base.free_cpus - pending);
      l.raw_free = l.free_estimate;
      l.queued = site.base.queued_jobs;
      out.push_back(l);
    }
    return out;
  }

  std::vector<FoldRow> fold(VoId vo, GroupId group, UserId user, sim::Time now) {
    std::vector<FoldRow> out;
    for (auto& [id, site] : sites_) {
      prune(site, now);
      std::int32_t free = site.base.free_cpus;
      std::int32_t pending = 0;
      std::int32_t vo_running = 0;
      std::int32_t group_running = 0;
      std::int32_t user_running = 0;
      const auto it = site.base.running_per_vo.find(vo);
      if (it != site.base.running_per_vo.end()) vo_running = it->second;
      for (const DispatchRecord& r : site.active) {
        pending += r.cpus;
        free = std::max(0, free - r.cpus);
        if (r.vo == vo) vo_running += r.cpus;
        if (r.group == group) group_running += r.cpus;
        if (r.user == user) user_running += r.cpus;
      }
      const std::int32_t estimate = std::max(0, site.base.free_cpus - pending);
      out.emplace_back(id.value(), site.base.total_cpus, free, vo_running,
                       group_running, user_running, estimate, estimate,
                       site.base.queued_jobs, site.base.total_cpus,
                       site.base.as_of.us());
    }
    return out;
  }

  std::int32_t estimated_free(SiteId id, sim::Time now) {
    const auto it = sites_.find(id);
    if (it == sites_.end()) return 0;
    prune(it->second, now);
    std::int32_t pending = 0;
    for (const DispatchRecord& r : it->second.active) pending += r.cpus;
    return std::max(0, it->second.base.free_cpus - pending);
  }

  grid::SiteSnapshot estimated_snapshot(SiteId id, sim::Time now) {
    const auto it = sites_.find(id);
    if (it == sites_.end()) return {};
    prune(it->second, now);
    grid::SiteSnapshot estimate = it->second.base;
    for (const DispatchRecord& r : it->second.active) {
      estimate.free_cpus = std::max(0, estimate.free_cpus - r.cpus);
      estimate.running_per_vo[r.vo] += r.cpus;
    }
    estimate.as_of = now;
    return estimate;
  }

  std::vector<DispatchRecord> records_for_vos(const std::vector<VoId>& vos,
                                              sim::Time now) {
    std::vector<DispatchRecord> out;
    for (auto& [id, site] : sites_) {
      prune(site, now);
      for (const DispatchRecord& r : site.active) {
        if (std::binary_search(vos.begin(), vos.end(), r.vo)) out.push_back(r);
      }
    }
    return out;
  }

  std::vector<DispatchRecord> active_records(sim::Time now) {
    std::vector<DispatchRecord> out;
    for (auto& [id, site] : sites_) {
      prune(site, now);
      out.insert(out.end(), site.active.begin(), site.active.end());
    }
    return out;
  }

  [[nodiscard]] std::vector<grid::SiteSnapshot> base_snapshots() const {
    std::vector<grid::SiteSnapshot> out;
    for (const auto& [id, site] : sites_) out.push_back(site.base);
    return out;
  }

  GridView::MergeResult merge_record(const DispatchRecord& record, sim::Time now) {
    GridView::MergeResult out;
    for (auto& [id, site] : sites_) {
      prune(site, now);
      for (auto it = site.active.begin(); it != site.active.end(); ++it) {
        if (it->origin == record.origin && it->seq == record.seq) {
          if (*it == record) return out;
          out.conflict = true;
          const bool incoming_wins = record.cpus != it->cpus
                                         ? record.cpus > it->cpus
                                         : record.when > it->when;
          if (!incoming_wins) return out;
          site.active.erase(it);
          out.applied = record_dispatch(record, now);
          return out;
        }
        if (it->origin != record.origin && it->vo == record.vo &&
            it->group == record.group && it->user == record.user &&
            it->when == record.when) {
          out.double_commit = true;
        }
      }
    }
    out.applied = record_dispatch(record, now);
    return out;
  }

  [[nodiscard]] ViewDigest digest(sim::Time as_of, sim::Time horizon) const {
    ViewDigest out;
    out.as_of = as_of;
    out.horizon = horizon;
    std::map<VoId, VoDigest> vos;
    std::map<DpId, OriginEpoch> epochs;
    for (const auto& [id, site] : sites_) {
      out.base_hash ^= snapshot_hash(site.base);
      for (const DispatchRecord& r : site.active) {
        if (r.when > as_of || expiry(r) <= horizon) continue;
        VoDigest& v = vos.try_emplace(r.vo, VoDigest{r.vo}).first->second;
        v.hash ^= record_hash(r);
        ++v.records;
        v.cpus += r.cpus;
        OriginEpoch& e =
            epochs.try_emplace(r.origin, OriginEpoch{r.origin}).first->second;
        e.max_seq = std::max(e.max_seq, r.seq);
        ++e.records;
      }
    }
    for (const auto& [vo, v] : vos) out.vos.push_back(v);
    for (const auto& [origin, e] : epochs) out.epochs.push_back(e);
    return out;
  }

  void clear() {
    sites_.clear();
    recorded_ = 0;
  }

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] std::uint64_t dispatches_recorded() const { return recorded_; }

 private:
  struct Site {
    grid::SiteSnapshot base;
    std::deque<DispatchRecord> active;
  };

  static void prune(Site& site, sim::Time now) {
    std::erase_if(site.active,
                  [&](const DispatchRecord& r) { return expiry(r) <= now; });
  }

  std::map<SiteId, Site> sites_;
  std::uint64_t recorded_ = 0;
};

sim::Time at(std::int64_t s) { return sim::Time::from_seconds(double(s)); }

/// The chain a fold is read for and the VOs a pull asks about.
struct ReadArgs {
  VoId vo;
  GroupId group;
  UserId user;
  std::vector<VoId> vos;
};

/// Compares every read of `view` at `now` with `model`'s: the digest of
/// (as_of, horizon) first, since it reads held records as they are,
/// including any that expired since the last read pruned their site; then
/// the reads that prune, the estimated snapshot of every site id below
/// `site_ids` among them. Sets `*nonempty` when the digest holds a VO.
void expect_same_reads(GridView& view, ReferenceView& model, std::int64_t now,
                       std::int64_t as_of, std::int64_t horizon,
                       std::uint64_t site_ids, const ReadArgs& args,
                       bool* nonempty) {
  const ViewDigest digest = view.digest(at(as_of), at(horizon));
  ASSERT_TRUE(digest == model.digest(at(as_of), at(horizon)));
  *nonempty = !digest.vos.empty();
  ASSERT_EQ(view.site_count(), model.site_count());
  ASSERT_EQ(view.dispatches_recorded(), model.dispatches_recorded());
  ASSERT_EQ(base_rows(view.base_snapshots()), base_rows(model.base_snapshots()));
  ASSERT_EQ(load_rows(view.loads(at(now))), load_rows(model.loads(at(now))));
  std::vector<FoldRow> folded;
  view.fold(args.vo, args.group, args.user, at(now),
            [&](const SiteFold& f) { folded.push_back(fold_row(f)); });
  ASSERT_EQ(folded, model.fold(args.vo, args.group, args.user, at(now)));
  ASSERT_EQ(view.active_records(at(now)), model.active_records(at(now)));
  ASSERT_EQ(view.records_for_vos(args.vos, at(now)),
            model.records_for_vos(args.vos, at(now)));
  for (std::uint64_t site = 0; site < site_ids; ++site) {
    ASSERT_EQ(base_rows({view.estimated_snapshot(SiteId(site), at(now))}),
              base_rows({model.estimated_snapshot(SiteId(site), at(now))}))
        << "site " << site;
  }
}

TEST(GridViewReference, SeededOperationStreamsMatchTheMapAndDequeModel) {
  // Bootstraps name the even sites only: records and snapshots on the odd
  // ones create sites between held ones, after the digest has started.
  constexpr std::uint64_t kSites = 24;
  std::size_t refused = 0;
  std::size_t merged_twins = 0;
  std::size_t late_sites = 0;
  std::size_t nonempty_digests = 0;
  std::size_t bases_without_vos = 0;
  std::size_t bases_with_vos = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const auto snapshot_of = [&](std::uint64_t site, std::int64_t as_of_s) {
      grid::SiteSnapshot s;
      s.site = SiteId(site);
      s.total_cpus = std::int32_t(1 + rng.uniform_index(128));
      s.free_cpus =
          std::int32_t(rng.uniform_index(std::uint64_t(s.total_cpus) + 1));
      s.queued_jobs = std::int32_t(rng.uniform_index(5));
      // About half carry no per-VO entry, as every base bootstrapped from
      // a fresh grid does.
      if (rng.bernoulli(0.5)) {
        s.running_per_vo[VoId(rng.uniform_index(4))] =
            std::int32_t(rng.uniform_index(16));
        ++bases_with_vos;
      } else {
        ++bases_without_vos;
      }
      s.as_of = at(as_of_s);
      return s;
    };
    const auto even_bases = [&](std::int64_t as_of_s) {
      std::vector<grid::SiteSnapshot> out;
      for (std::uint64_t site = 0; site < kSites; site += 2) {
        out.push_back(snapshot_of(site, as_of_s));
      }
      // Any order, a site named twice: the later one wins on equal as_of.
      for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[rng.uniform_index(i)]);
      }
      out.push_back(snapshot_of(2 * rng.uniform_index(kSites / 2), as_of_s));
      return out;
    };
    const auto random_record = [&](std::int64_t now) {
      DispatchRecord r;
      r.origin = DpId(rng.uniform_index(3));
      r.seq = 1 + rng.uniform_index(40);  // pairs repeat: twins
      r.site = SiteId(rng.uniform_index(kSites));
      r.vo = VoId(rng.uniform_index(4));
      r.group = GroupId(2 * r.vo.value() + rng.uniform_index(2));
      r.user = UserId(rng.uniform_index(6));
      r.cpus = std::int32_t(1 + rng.uniform_index(8));
      // Whole seconds, so records land exactly on window edges and on
      // `now`; some have expired before they arrive.
      r.when = at(std::max<std::int64_t>(1, now - rng.uniform_int(0, 400)));
      r.est_runtime = sim::Duration::seconds(double(rng.uniform_int(0, 600)));
      return r;
    };

    GridView view;
    ReferenceView model;
    const std::vector<grid::SiteSnapshot> initial = even_bases(0);
    view.bootstrap(initial);
    model.bootstrap(initial);
    std::int64_t now = 1000;
    std::int64_t as_of = now - 185;
    std::int64_t horizon = now + 5;
    for (int op = 0; op < 250; ++op) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
      now += rng.uniform_int(0, 15);
      switch (rng.uniform_index(12)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const DispatchRecord r = random_record(now);
          const bool kept = view.record_dispatch(r, at(now));
          ASSERT_EQ(kept, model.record_dispatch(r, at(now)));
          if (!kept) ++refused;
          if (kept && r.site.value() % 2 == 1) ++late_sites;
          break;
        }
        case 4:
        case 5: {
          // An exact duplicate, a conflicting twin, a double commit from
          // another origin, or a new record.
          // Both sides read (and prune) alike.
          const std::vector<DispatchRecord> held = model.active_records(at(now));
          ASSERT_EQ(view.active_records(at(now)), held);
          DispatchRecord r = random_record(now);
          if (!held.empty()) {
            const DispatchRecord& incumbent = held[rng.uniform_index(held.size())];
            switch (rng.uniform_index(3)) {
              case 0:
                r = incumbent;
                break;
              case 1:
                r = incumbent;
                r.cpus = std::int32_t(1 + rng.uniform_index(8));
                r.when = incumbent.when + sim::Duration::seconds(
                                              double(rng.uniform_int(-5, 5)));
                ++merged_twins;
                break;
              default:
                r.vo = incumbent.vo;
                r.group = incumbent.group;
                r.user = incumbent.user;
                r.when = incumbent.when;
                break;
            }
          }
          const GridView::MergeResult got = view.merge_record(r, at(now));
          const GridView::MergeResult want = model.merge_record(r, at(now));
          ASSERT_EQ(got.applied, want.applied);
          ASSERT_EQ(got.conflict, want.conflict);
          ASSERT_EQ(got.double_commit, want.double_commit);
          break;
        }
        case 6: {
          // Fresh or stale, on a held site or a new one.
          const grid::SiteSnapshot s = snapshot_of(
              rng.uniform_index(kSites), now - rng.uniform_int(0, 700));
          view.apply_snapshot(s);
          model.apply_snapshot(s);
          break;
        }
        case 7: {
          // A bootstrap over a view that already holds sites and digests.
          std::vector<grid::SiteSnapshot> batch;
          for (int i = 0; i < 4; ++i) {
            batch.push_back(snapshot_of(rng.uniform_index(kSites),
                                        now - rng.uniform_int(0, 700)));
          }
          view.bootstrap(batch);
          model.bootstrap(batch);
          break;
        }
        case 8: {
          const SiteId site(rng.uniform_index(kSites + 2));  // some unknown
          ASSERT_EQ(view.estimated_free(site, at(now)),
                    model.estimated_free(site, at(now)));
          break;
        }
        case 9:
          if (rng.bernoulli(0.15)) {
            view.clear();
            model.clear();
            const std::vector<grid::SiteSnapshot> bases = even_bases(now);
            view.bootstrap(bases);
            model.bootstrap(bases);
          }
          break;
        default:
          // Move the digest window: the point's own window (forward), a
          // peer's a few seconds behind, or a jump either way with the
          // horizon possibly in the past.
          switch (rng.uniform_index(3)) {
            case 0:
              as_of = now - 185;
              horizon = now + 5;
              break;
            case 1: {
              const std::int64_t lag = rng.uniform_int(1, 5);
              as_of = now - lag - 185;
              horizon = now - lag + 5;
              break;
            }
            default:
              as_of = now - rng.uniform_int(0, 900);
              horizon = now + rng.uniform_int(-600, 100);
              break;
          }
          break;
      }

      ReadArgs args;
      args.vo = VoId(rng.uniform_index(4));
      args.group = GroupId(2 * args.vo.value() + rng.uniform_index(2));
      args.user = UserId(rng.uniform_index(6));
      for (std::uint64_t v = 0; v < 4; ++v) {
        if (rng.bernoulli(0.5)) args.vos.emplace_back(v);
      }
      bool nonempty = false;
      expect_same_reads(view, model, now, as_of, horizon, kSites + 2, args,
                        &nonempty);
      if (HasFatalFailure()) return;
      if (nonempty) ++nonempty_digests;
    }
  }
  // Every path the stream means to cover was taken.
  EXPECT_GT(refused, 500u);
  EXPECT_GT(merged_twins, 300u);
  EXPECT_GT(late_sites, 500u);
  EXPECT_GT(nonempty_digests, 5000u);
  EXPECT_GT(bases_without_vos, 2000u);
  EXPECT_GT(bases_with_vos, 2000u);
}

TEST(GridViewReference, SkewedStreamsMatchTheMapAndDequeModel) {
  // Three of forty sites take most records, and runtimes run from 5 s to
  // 2 h (log-uniform), so a hot site holds a few hundred records whose
  // expiries interleave out of arrival order: between snapshot trims,
  // merged twins and clears, each hot site expires thousands of records
  // from its heap, and snapshots and twins erase records from its middle.
  constexpr std::uint64_t kSites = 40;
  constexpr std::array<std::uint64_t, 3> kHot = {5, 21, 38};
  std::size_t kept_hot = 0;
  std::size_t peak_hot = 0;
  std::size_t trims = 0;
  std::size_t twins = 0;
  std::size_t moved_twins = 0;
  std::size_t clears = 0;
  std::size_t clamped = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(7000 + seed);
    std::uint64_t next_seq = 0;
    const auto pick_site = [&] {
      return rng.bernoulli(0.85) ? kHot[rng.uniform_index(kHot.size())]
                                 : rng.uniform_index(kSites);
    };
    const auto snapshot_of = [&](std::uint64_t site, std::int64_t as_of_s) {
      grid::SiteSnapshot s;
      s.site = SiteId(site);
      s.total_cpus = std::int32_t(1 + rng.uniform_index(4000));
      s.free_cpus =
          std::int32_t(rng.uniform_index(std::uint64_t(s.total_cpus) + 1));
      if (rng.bernoulli(0.5)) {
        s.running_per_vo[VoId(rng.uniform_index(6))] =
            std::int32_t(rng.uniform_index(64));
      }
      s.as_of = at(as_of_s);
      return s;
    };
    const auto all_bases = [&](std::int64_t as_of_s) {
      std::vector<grid::SiteSnapshot> out;
      for (std::uint64_t site = 0; site < kSites; ++site) {
        out.push_back(snapshot_of(site, as_of_s));
      }
      return out;
    };
    const auto random_record = [&](std::int64_t now) {
      DispatchRecord r;
      r.origin = DpId(rng.uniform_index(4));
      r.seq = ++next_seq;
      r.site = SiteId(pick_site());
      r.vo = VoId(rng.uniform_index(6));
      r.group = GroupId(3 * r.vo.value() + rng.uniform_index(3));
      r.user = UserId(rng.uniform_index(12));
      r.cpus = std::int32_t(1 + rng.uniform_index(16));
      r.when = at(std::max<std::int64_t>(1, now - rng.uniform_int(0, 60)));
      r.est_runtime = sim::Duration::seconds(
          std::floor(std::exp(rng.uniform(std::log(5.0), std::log(7200.0)))));
      return r;
    };

    GridView view;
    ReferenceView model;
    const std::vector<grid::SiteSnapshot> initial = all_bases(0);
    view.bootstrap(initial);
    model.bootstrap(initial);
    std::int64_t now = 100;
    std::int64_t as_of = now - 185;
    std::int64_t horizon = now + 5;
    for (int op = 0; op < 2000; ++op) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
      now += rng.uniform_int(0, 3);
      const std::uint64_t kind = rng.uniform_index(40);
      if (kind < 22) {
        for (std::uint64_t n = 1 + rng.uniform_index(5); n > 0; --n) {
          const DispatchRecord r = random_record(now);
          const bool kept = view.record_dispatch(r, at(now));
          ASSERT_EQ(kept, model.record_dispatch(r, at(now)));
          if (kept && std::find(kHot.begin(), kHot.end(), r.site.value()) !=
                          kHot.end()) {
            ++kept_hot;
          }
        }
      } else if (kind < 28) {
        // An exact duplicate, a conflicting twin (on its site or moved to
        // another), a double commit from another origin, or a new record.
        const std::vector<DispatchRecord> held = model.active_records(at(now));
        ASSERT_EQ(view.active_records(at(now)), held);
        DispatchRecord r = random_record(now);
        if (!held.empty()) {
          const DispatchRecord& incumbent = held[rng.uniform_index(held.size())];
          switch (rng.uniform_index(4)) {
            case 0:
              r = incumbent;
              break;
            case 1:
            case 2:
              r = incumbent;
              r.cpus = std::int32_t(1 + rng.uniform_index(16));
              r.when = incumbent.when +
                       sim::Duration::seconds(double(rng.uniform_int(-5, 5)));
              if (rng.bernoulli(0.3)) {
                r.site = SiteId(pick_site());
                ++moved_twins;
              }
              ++twins;
              break;
            default:
              r.vo = incumbent.vo;
              r.group = incumbent.group;
              r.user = incumbent.user;
              r.when = incumbent.when;
              break;
          }
        }
        const GridView::MergeResult got = view.merge_record(r, at(now));
        const GridView::MergeResult want = model.merge_record(r, at(now));
        ASSERT_EQ(got.applied, want.applied);
        ASSERT_EQ(got.conflict, want.conflict);
        ASSERT_EQ(got.double_commit, want.double_commit);
      } else if (kind < 31) {
        // A fresh snapshot of a hot site trims the records made before
        // it, the oldest part of the site; one on any site may be stale
        // and ignored.
        const bool hot = kind == 28;
        const grid::SiteSnapshot s =
            hot ? snapshot_of(kHot[rng.uniform_index(kHot.size())],
                              now - rng.uniform_int(600, 3600))
                : snapshot_of(rng.uniform_index(kSites),
                              now - rng.uniform_int(0, 3000));
        if (hot) ++trims;
        view.apply_snapshot(s);
        model.apply_snapshot(s);
      } else if (kind == 31) {
        if (rng.bernoulli(0.04)) {
          view.clear();
          model.clear();
          const std::vector<grid::SiteSnapshot> bases = all_bases(now);
          view.bootstrap(bases);
          model.bootstrap(bases);
          ++clears;
        }
      } else if (rng.bernoulli(0.5)) {
        as_of = now - 185;
        horizon = now + 5;
      } else {
        as_of = now - rng.uniform_int(0, 600);
        horizon = now + rng.uniform_int(-900, 1800);
      }

      ReadArgs args;
      args.vo = VoId(rng.uniform_index(6));
      args.group = GroupId(3 * args.vo.value() + rng.uniform_index(3));
      args.user = UserId(rng.uniform_index(12));
      for (std::uint64_t v = 0; v < 6; ++v) {
        if (rng.bernoulli(0.5)) args.vos.emplace_back(v);
      }
      bool nonempty = false;
      expect_same_reads(view, model, now, as_of, horizon, kSites + 1, args,
                        &nonempty);
      if (HasFatalFailure()) return;
      if (op % 10 == 0) {
        std::map<std::uint64_t, std::size_t> per_site;
        for (const DispatchRecord& r : model.active_records(at(now))) {
          ++per_site[r.site.value()];
        }
        for (const std::uint64_t site : kHot) {
          peak_hot = std::max(peak_hot, per_site[site]);
        }
        for (const SiteLoad& l : model.loads(at(now))) {
          if (l.free_estimate == 0) ++clamped;
        }
      }
    }
  }
  // The hot sites held hundreds of records and turned them over many
  // times, and every operation the stream means to mix in was taken.
  EXPECT_GT(peak_hot, 150u);
  EXPECT_GT(kept_hot, 30 * peak_hot);
  EXPECT_GT(trims, 150u);
  EXPECT_GT(twins, 400u);
  EXPECT_GT(moved_twins, 100u);
  EXPECT_GT(clears, 4u);
  EXPECT_GT(clamped, 800u);
}

}  // namespace
}  // namespace digruber::gruber
