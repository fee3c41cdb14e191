#include "digruber/gruber/view.hpp"

#include <gtest/gtest.h>

#include "digruber/common/rng.hpp"

namespace digruber::gruber {
namespace {

grid::SiteSnapshot snapshot(std::uint64_t site, std::int32_t total,
                            std::int32_t free, double as_of_s = 0.0) {
  grid::SiteSnapshot s;
  s.site = SiteId(site);
  s.total_cpus = total;
  s.free_cpus = free;
  s.as_of = sim::Time::from_seconds(as_of_s);
  return s;
}

DispatchRecord record(std::uint64_t site, std::int32_t cpus, double when_s,
                      double runtime_s, std::uint64_t vo = 0,
                      std::uint64_t seq = 1) {
  DispatchRecord r;
  r.origin = DpId(0);
  r.seq = seq;
  r.site = SiteId(site);
  r.vo = VoId(vo);
  r.group = GroupId(vo);
  r.user = UserId(vo);
  r.cpus = cpus;
  r.when = sim::Time::from_seconds(when_s);
  r.est_runtime = sim::Duration::seconds(runtime_s);
  return r;
}

TEST(GridView, BootstrapInstallsBaseState) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 80), snapshot(1, 50, 50)});
  EXPECT_EQ(view.site_count(), 2u);
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::zero()), 80);
  EXPECT_EQ(view.estimated_free(SiteId(1), sim::Time::zero()), 50);
  EXPECT_EQ(view.estimated_free(SiteId(9), sim::Time::zero()), 0);  // unknown
}

TEST(GridView, DispatchesReduceEstimate) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  view.record_dispatch(record(0, 10, /*when=*/10, /*runtime=*/100));
  view.record_dispatch(record(0, 5, 20, 100, 0, 2));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(30)), 85);
  EXPECT_EQ(view.dispatches_recorded(), 2u);
}

TEST(GridView, RecordsAgeOutAfterEstimatedRuntime) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  view.record_dispatch(record(0, 10, 0, 60));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(59)), 90);
  // At exactly when + est_runtime the job is assumed complete.
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(60)), 100);
}

TEST(GridView, EstimateNeverNegative) {
  GridView view;
  view.bootstrap({snapshot(0, 20, 10)});
  view.record_dispatch(record(0, 50, 0, 1000));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(1)), 0);
}

TEST(GridView, FreshSnapshotAbsorbsOlderDispatches) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100, 0)});
  view.record_dispatch(record(0, 10, /*when=*/5, 1000));
  // Snapshot taken at t=20 already reflects that job.
  view.apply_snapshot(snapshot(0, 100, 90, 20));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(25)), 90);
  // A dispatch after the snapshot still subtracts.
  view.record_dispatch(record(0, 7, 30, 1000, 0, 2));
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(35)), 83);
}

TEST(GridView, StaleSnapshotIgnored) {
  GridView view;
  view.apply_snapshot(snapshot(0, 100, 40, /*as_of=*/100));
  view.apply_snapshot(snapshot(0, 100, 99, /*as_of=*/50));  // older
  EXPECT_EQ(view.estimated_free(SiteId(0), sim::Time::from_seconds(100)), 40);
}

TEST(GridView, EstimatedSnapshotMergesVoUsage) {
  GridView view;
  grid::SiteSnapshot base = snapshot(0, 100, 80);
  base.running_per_vo[VoId(1)] = 20;
  view.apply_snapshot(base);
  view.record_dispatch(record(0, 5, 10, 1000, /*vo=*/1));
  view.record_dispatch(record(0, 3, 10, 1000, /*vo=*/2, 2));

  const grid::SiteSnapshot est =
      view.estimated_snapshot(SiteId(0), sim::Time::from_seconds(20));
  EXPECT_EQ(est.free_cpus, 72);
  EXPECT_EQ(est.running_per_vo.at(VoId(1)), 25);
  EXPECT_EQ(est.running_per_vo.at(VoId(2)), 3);
}

/// Site 0 as `fold` reports it for the chain vo0 -> `group` -> `user`.
SiteFold fold_site0(const GridView& view, GroupId group, UserId user,
                    sim::Time now) {
  SiteFold out;
  view.fold(VoId(0), group, user, now, [&](const SiteFold& f) {
    if (f.load.site == SiteId(0)) out = f;
  });
  return out;
}

TEST(GridView, GroupAndUserActiveCounts) {
  GridView view;
  grid::SiteSnapshot base = snapshot(0, 100, 100);
  base.running_per_vo[VoId(0)] = 3;
  view.bootstrap({base});
  DispatchRecord r = record(0, 4, 0, 100);
  r.group = GroupId(7);
  r.user = UserId(9);
  view.record_dispatch(r);
  const auto t = sim::Time::from_seconds(10);
  const usla::ChainUsage live = fold_site0(view, GroupId(7), UserId(9), t).usage;
  EXPECT_EQ(live.group_running, 4);
  EXPECT_EQ(live.user_running, 4);
  EXPECT_EQ(live.vo_running, 7);  // 3 in the base plus the record's 4
  EXPECT_EQ(live.free_cpus, 96);
  EXPECT_EQ(fold_site0(view, GroupId(8), UserId(9), t).usage.group_running, 0);
  EXPECT_EQ(fold_site0(view, GroupId(7), UserId(1), t).usage.user_running, 0);
  // After aging, counts return to zero.
  const auto later = sim::Time::from_seconds(200);
  const usla::ChainUsage aged = fold_site0(view, GroupId(7), UserId(9), later).usage;
  EXPECT_EQ(aged.group_running, 0);
  EXPECT_EQ(aged.user_running, 0);
  EXPECT_EQ(aged.vo_running, 3);
}

TEST(GridView, LoadsCoverAllSites) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 60), snapshot(1, 40, 40)});
  view.record_dispatch(record(1, 10, 0, 500));
  const std::vector<SiteLoad> loads = view.loads(sim::Time::from_seconds(10));
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0].site, SiteId(0));
  EXPECT_EQ(loads[0].free_estimate, 60);
  EXPECT_EQ(loads[0].raw_free, 60);
  EXPECT_EQ(loads[1].free_estimate, 30);
  EXPECT_EQ(loads[1].total_cpus, 40);
}

DispatchRecord origin_record(std::uint64_t origin, std::uint64_t seq,
                             std::uint64_t site, std::int32_t cpus,
                             double when_s, double runtime_s,
                             std::uint64_t vo = 0) {
  DispatchRecord r = record(site, cpus, when_s, runtime_s, vo, seq);
  r.origin = DpId(origin);
  return r;
}

// Window wide open for records dispatched around t=0..100 with long
// runtimes: everything below is settled and nowhere near expiry.
const sim::Time kAsOf = sim::Time::from_seconds(200);
const sim::Time kHorizon = sim::Time::from_seconds(210);

TEST(ViewDigest, OrderIndependentAndContentOnly) {
  const std::vector<DispatchRecord> records = {
      origin_record(0, 1, 0, 4, 10, 900, /*vo=*/1),
      origin_record(1, 1, 1, 2, 20, 900, /*vo=*/2),
      origin_record(1, 2, 0, 8, 30, 900, /*vo=*/1),
  };
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  b.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  for (const auto& r : records) a.record_dispatch(r);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    b.record_dispatch(*it);
  }
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  // The bounds are comparison parameters, not identity: a digest of the
  // same content over a different (but equally covering) window matches.
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) ==
              b.digest(kAsOf + sim::Duration::seconds(50), kHorizon));
}

TEST(ViewDigest, SettledWindowExcludesFreshAndExpiringRecords) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord settled = origin_record(0, 1, 0, 4, 10, 3600);
  a.record_dispatch(settled);
  b.record_dispatch(settled);
  // Only a holds a record newer than as_of (still propagating through
  // normal exchange) and one expiring before the horizon (could age out
  // between sender compute and receiver compare): neither may show up as
  // divergence.
  a.record_dispatch(origin_record(0, 2, 0, 2, /*when=*/205, 3600));
  a.record_dispatch(origin_record(0, 3, 0, 2, /*when=*/20, /*runtime=*/185));
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  // A settled, long-lived difference IS divergence.
  a.record_dispatch(origin_record(0, 4, 0, 2, 40, 3600));
  EXPECT_FALSE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
}

TEST(ViewDigest, DivergedVosTargetsExactlyTheDifferingVos) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord shared = origin_record(0, 1, 0, 4, 10, 3600, /*vo=*/1);
  a.record_dispatch(shared);
  b.record_dispatch(shared);
  b.record_dispatch(origin_record(2, 7, 0, 2, 50, 3600, /*vo=*/3));
  const std::vector<VoId> vos =
      diverged_vos(a.digest(kAsOf, kHorizon), b.digest(kAsOf, kHorizon));
  ASSERT_EQ(vos.size(), 1u);
  EXPECT_EQ(vos[0], VoId(3));
  // The epoch vector pinpoints the origin whose tail is missing.
  const ViewDigest db = b.digest(kAsOf, kHorizon);
  ASSERT_EQ(db.epochs.size(), 2u);
  EXPECT_EQ(db.epochs[1].origin, DpId(2));
  EXPECT_EQ(db.epochs[1].max_seq, 7u);
}

TEST(ViewDigest, BaseStateDivergenceIsDetected) {
  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100)});
  b.bootstrap({snapshot(0, 100, 90)});
  EXPECT_FALSE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  EXPECT_TRUE(diverged_vos(a.digest(kAsOf, kHorizon), b.digest(kAsOf, kHorizon))
                  .empty());
}

TEST(ViewDigest, ValuesPinned) {
  // Both ends of every digest comparison hash the same way, so only literal
  // values catch a changed record, snapshot or aggregate hash.
  GridView view;
  grid::SiteSnapshot base = snapshot(0, 100, 90, 5);
  base.running_per_vo[VoId(1)] = 10;
  view.bootstrap({base, snapshot(1, 50, 50)});
  view.record_dispatch(origin_record(0, 1, 0, 4, 10, 900, /*vo=*/1));
  view.record_dispatch(origin_record(0, 3, 1, 2, 20, 900, /*vo=*/2));
  view.record_dispatch(origin_record(2, 7, 0, 8, 30, 900, /*vo=*/1));
  view.record_dispatch(origin_record(2, 9, 1, 1, 250, 900, /*vo=*/2));  // fresh
  const ViewDigest d = view.digest(kAsOf, kHorizon);
  EXPECT_EQ(d.as_of, kAsOf);
  EXPECT_EQ(d.horizon, kHorizon);
  EXPECT_EQ(d.base_hash, 0x078ee77611f86ef0ull);
  ASSERT_EQ(d.vos.size(), 2u);
  EXPECT_EQ(d.vos[0].vo, VoId(1));
  EXPECT_EQ(d.vos[0].hash, 0x068a94ea1b012e12ull);
  EXPECT_EQ(d.vos[0].records, 2u);
  EXPECT_EQ(d.vos[0].cpus, 12);
  EXPECT_EQ(d.vos[1].vo, VoId(2));
  EXPECT_EQ(d.vos[1].hash, 0xe66a746893e24401ull);
  EXPECT_EQ(d.vos[1].records, 1u);
  EXPECT_EQ(d.vos[1].cpus, 2);
  ASSERT_EQ(d.epochs.size(), 2u);
  EXPECT_EQ(d.epochs[0].origin, DpId(0));
  EXPECT_EQ(d.epochs[0].max_seq, 3u);
  EXPECT_EQ(d.epochs[0].records, 2u);
  EXPECT_EQ(d.epochs[1].origin, DpId(2));
  EXPECT_EQ(d.epochs[1].max_seq, 7u);
  EXPECT_EQ(d.epochs[1].records, 1u);
}

/// What a full scan digests for `view`'s held state over the window: a
/// fresh view rebuilt from its bases and held records, digested once.
ViewDigest cold_digest(const GridView& view, sim::Time as_of,
                       sim::Time horizon) {
  GridView cold;
  cold.bootstrap(view.base_snapshots());
  // Every record is dispatched after t=0 and expires later still, so
  // reading them at t=0 prunes none.
  for (const DispatchRecord& r : view.active_records(sim::Time::zero())) {
    cold.record_dispatch(r);
  }
  return cold.digest(as_of, horizon);
}

TEST(ViewDigest, IncrementalMatchesColdRebuild) {
  constexpr std::uint64_t kSites = 20;
  const auto at = [](std::int64_t s) {
    return sim::Time::from_seconds(double(s));
  };
  std::size_t compared = 0;
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const auto bases = [&](std::int64_t as_of_s) {
      std::vector<grid::SiteSnapshot> out;
      for (std::uint64_t site = 0; site < kSites; ++site) {
        grid::SiteSnapshot s = snapshot(
            site, 64, std::int32_t(rng.uniform_index(65)), double(as_of_s));
        s.running_per_vo[VoId(rng.uniform_index(4))] =
            std::int32_t(rng.uniform_index(16));
        out.push_back(s);
      }
      return out;
    };
    GridView view;
    view.bootstrap(bases(0));
    // Whole seconds throughout, so records land exactly on window edges.
    std::int64_t now = 1000;
    std::int64_t as_of = now - 185;
    std::int64_t horizon = now + 5;
    for (int op = 0; op < 200; ++op) {
      now += rng.uniform_int(0, 20);
      const std::vector<DispatchRecord> held =
          view.active_records(sim::Time::zero());
      switch (rng.uniform_index(12)) {
        case 0:
        case 1:
        case 2: {
          // Several origins and VOs; a small seq range repeats pairs.
          view.record_dispatch(origin_record(
              rng.uniform_index(3), 1 + rng.uniform_index(40),
              rng.uniform_index(kSites), std::int32_t(1 + rng.uniform_index(8)),
              double(std::max<std::int64_t>(1, now - rng.uniform_int(0, 400))),
              double(rng.uniform_int(0, 600)), rng.uniform_index(4)));
          break;
        }
        case 3: {
          // An exact duplicate, or a conflicting twin that may replace the
          // incumbent.
          if (held.empty()) break;
          DispatchRecord r = held[rng.uniform_index(held.size())];
          if (rng.bernoulli(0.5)) {
            r.cpus = std::int32_t(1 + rng.uniform_index(8));
            r.when = at(std::max<std::int64_t>(
                1, r.when.us() / 1'000'000 + rng.uniform_int(-5, 5)));
          }
          view.merge_record(r, at(now));
          break;
        }
        case 4: {
          // A fresh snapshot absorbs older records; a stale one is ignored.
          const std::uint64_t site = rng.uniform_index(kSites);
          const std::int64_t base_s =
              view.base_snapshots()[site].as_of.us() / 1'000'000;
          grid::SiteSnapshot s = bases(0)[site];
          s.as_of = rng.bernoulli(0.7) ? at(rng.uniform_int(base_s, now))
                                       : at(base_s - 1);
          view.apply_snapshot(s);
          break;
        }
        case 5:
          if (rng.bernoulli(0.5)) {
            (void)view.loads(at(now));
          } else {
            (void)view.estimated_free(SiteId(rng.uniform_index(kSites)),
                                      at(now));
          }
          break;
        case 6:
          if (rng.bernoulli(0.1)) {
            view.clear();
            view.bootstrap(bases(now - rng.uniform_int(0, 100)));
          }
          break;
        default: {
          switch (rng.uniform_index(4)) {
            case 0:  // the point's own settled window, moving forward
              as_of = now - 185;
              horizon = now + 5;
              break;
            case 1: {  // a peer's window, a few seconds behind
              const std::int64_t lag = rng.uniform_int(1, 5);
              as_of = now - lag - 185;
              horizon = now - lag + 5;
              break;
            }
            case 2:  // a jump either way; the horizon may lie in the past
              as_of = now - rng.uniform_int(0, 900);
              horizon = now + rng.uniform_int(-600, 100);
              break;
            default:  // the same window again
              break;
          }
          const ViewDigest got = view.digest(at(as_of), at(horizon));
          const ViewDigest want = cold_digest(view, at(as_of), at(horizon));
          ASSERT_TRUE(got == want) << "seed " << seed << " op " << op;
          EXPECT_EQ(got.as_of, at(as_of));
          EXPECT_EQ(got.horizon, at(horizon));
          ++compared;
          if (!got.vos.empty()) ++nonempty;
        }
      }
    }
  }
  // The windows must cover records, or the comparison proves nothing.
  EXPECT_GT(compared, 5000u);
  EXPECT_GT(nonempty, compared / 2);
}

TEST(ViewDigest, NeverBootstrappedSitesCancelInBaseHash) {
  // Records on sites the view never had a snapshot of create sites with
  // default bases. Their hashes are equal, so two cancel in `base_hash`,
  // in the scan as in the incremental digest.
  GridView bootstrapped_only;
  bootstrapped_only.bootstrap({snapshot(0, 100, 100)});
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  (void)view.digest(kAsOf, kHorizon);  // start the incremental digest
  view.record_dispatch(origin_record(0, 1, 5, 4, 10, 900, /*vo=*/1));
  view.record_dispatch(origin_record(0, 2, 6, 2, 20, 900, /*vo=*/1));
  const ViewDigest d = view.digest(kAsOf, kHorizon);
  EXPECT_EQ(d.base_hash, bootstrapped_only.digest(kAsOf, kHorizon).base_hash);
  ASSERT_EQ(d.vos.size(), 1u);
  EXPECT_EQ(d.vos[0].records, 2u);

  GridView cold;
  cold.bootstrap({snapshot(0, 100, 100)});
  cold.record_dispatch(origin_record(0, 1, 5, 4, 10, 900, /*vo=*/1));
  cold.record_dispatch(origin_record(0, 2, 6, 2, 20, 900, /*vo=*/1));
  EXPECT_TRUE(cold.digest(kAsOf, kHorizon) == d);

  // A third default base no longer cancels.
  view.record_dispatch(origin_record(0, 3, 7, 1, 30, 900, /*vo=*/1));
  EXPECT_NE(view.digest(kAsOf, kHorizon).base_hash, d.base_hash);
}

TEST(GridView, RefusesARecordThatExpiredByNow) {
  const sim::Time now = sim::Time::from_seconds(100);
  GridView view;
  view.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  ASSERT_TRUE(view.record_dispatch(origin_record(0, 1, 0, 4, 10, 900), now));
  const std::vector<SiteLoad> loads = view.loads(now);
  const std::vector<DispatchRecord> held = view.active_records(now);
  const ViewDigest digest = view.digest(kAsOf, kHorizon);

  // Expiring exactly at `now`, long expired, and on a site the view has
  // never seen: each is refused and changes nothing.
  EXPECT_FALSE(view.record_dispatch(origin_record(0, 2, 1, 8, 40, 60), now));
  EXPECT_FALSE(view.record_dispatch(origin_record(1, 3, 0, 8, 10, 5), now));
  EXPECT_FALSE(view.record_dispatch(origin_record(1, 4, 9, 8, 10, 5), now));
  EXPECT_FALSE(view.merge_record(origin_record(2, 5, 1, 8, 20, 80), now).applied);
  EXPECT_EQ(view.site_count(), 2u);
  EXPECT_EQ(view.dispatches_recorded(), 1u);
  const std::vector<SiteLoad> after = view.loads(now);
  ASSERT_EQ(after.size(), loads.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].site, loads[i].site);
    EXPECT_EQ(after[i].free_estimate, loads[i].free_estimate);
  }
  EXPECT_EQ(view.active_records(now), held);
  EXPECT_TRUE(view.digest(kAsOf, kHorizon) == digest);

  // One microsecond of life left is enough to be held.
  DispatchRecord last = origin_record(0, 6, 1, 8, 40, 60);
  last.est_runtime = last.est_runtime + sim::Duration::micros(1);
  EXPECT_TRUE(view.record_dispatch(last, now));
  EXPECT_EQ(view.estimated_free(SiteId(1), now), 42);
}

TEST(GridView, RefusesARecordWithoutCpus) {
  const sim::Time now = sim::Time::from_seconds(100);
  GridView view;
  view.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  ASSERT_TRUE(view.record_dispatch(origin_record(0, 1, 0, 4, 10, 900), now));
  const std::vector<DispatchRecord> held = view.active_records(now);
  const ViewDigest digest = view.digest(kAsOf, kHorizon);

  // No CPU, or fewer than none, on a held site, an empty one and an
  // unknown one: each is refused and changes nothing, through either door.
  for (const std::int32_t cpus : {0, -1}) {
    SCOPED_TRACE(cpus);
    EXPECT_FALSE(view.record_dispatch(origin_record(0, 2, 0, cpus, 20, 900), now));
    EXPECT_FALSE(view.record_dispatch(origin_record(0, 3, 1, cpus, 20, 900), now));
    EXPECT_FALSE(view.record_dispatch(origin_record(0, 4, 9, cpus, 20, 900), now));
    const GridView::MergeResult merged =
        view.merge_record(origin_record(2, 5, 1, cpus, 20, 900), now);
    EXPECT_FALSE(merged.applied);
    EXPECT_FALSE(merged.conflict);
  }
  EXPECT_EQ(view.site_count(), 2u);
  EXPECT_EQ(view.dispatches_recorded(), 1u);
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 96);
  EXPECT_EQ(view.estimated_free(SiteId(1), now), 50);
  EXPECT_EQ(view.active_records(now), held);
  EXPECT_TRUE(view.digest(kAsOf, kHorizon) == digest);
}

TEST(GridView, StaleSiteCountSkipsSitesNeverRefreshed) {
  GridView view;
  view.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  // Static knowledge (as_of 0) never stales, however late the read.
  EXPECT_EQ(view.stale_site_count(sim::Time::from_seconds(1e6),
                                  sim::Duration::seconds(60)),
            0u);
}

TEST(GridView, StaleSiteCountFollowsTheNewestSnapshot) {
  const sim::Duration threshold = sim::Duration::seconds(60);
  const sim::Time refreshed = sim::Time::from_seconds(10);
  GridView view;
  view.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50, 10)});
  // Refreshed at 10 s: not stale at exactly the threshold, stale past it.
  EXPECT_EQ(view.stale_site_count(refreshed + threshold, threshold), 0u);
  EXPECT_EQ(view.stale_site_count(
                refreshed + threshold + sim::Duration::micros(1), threshold),
            1u);

  // An older snapshot is ignored: the site stays stale.
  view.apply_snapshot(snapshot(1, 50, 40, 5));
  EXPECT_EQ(view.stale_site_count(sim::Time::from_seconds(71), threshold), 1u);
  EXPECT_EQ(view.estimated_free(SiteId(1), sim::Time::from_seconds(71)), 50);

  // A newer one clears it, until it ages past the threshold in turn.
  view.apply_snapshot(snapshot(1, 50, 40, 50));
  EXPECT_EQ(view.stale_site_count(sim::Time::from_seconds(71), threshold), 0u);
  EXPECT_EQ(view.stale_site_count(sim::Time::from_seconds(110), threshold), 0u);
  EXPECT_EQ(view.stale_site_count(sim::Time::from_seconds(111), threshold), 1u);
}

TEST(GridViewMerge, DuplicateIsDroppedConflictResolvedBySeverity) {
  const sim::Time now = sim::Time::from_seconds(100);
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord r = origin_record(0, 1, 0, 4, 10, 3600);
  ASSERT_TRUE(view.merge_record(r, now).applied);

  const auto dup = view.merge_record(r, now);
  EXPECT_FALSE(dup.applied);
  EXPECT_FALSE(dup.conflict);
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 96);

  // An (origin, seq) twin claiming MORE cpus wins (severity-first: the
  // reconciled view never under-counts committed capacity)...
  DispatchRecord bigger = r;
  bigger.cpus = 9;
  const auto up = view.merge_record(bigger, now);
  EXPECT_TRUE(up.conflict);
  EXPECT_TRUE(up.applied);
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 91);

  // ...and a smaller twin loses against the incumbent.
  DispatchRecord smaller = r;
  smaller.cpus = 1;
  const auto down = view.merge_record(smaller, now);
  EXPECT_TRUE(down.conflict);
  EXPECT_FALSE(down.applied);
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 91);
}

TEST(GridViewMerge, DoubleCommitFlaggedAndBothSidesKept) {
  // The split-brain signature: two origins independently admitted the
  // same logical work (vo, group, user, when). Both allocations really
  // consumed capacity, so both stay — but the merge surfaces it.
  const sim::Time now = sim::Time::from_seconds(100);
  GridView view;
  view.bootstrap({snapshot(0, 100, 100)});
  const DispatchRecord from_a = origin_record(0, 1, 0, 4, 10, 3600, /*vo=*/2);
  DispatchRecord from_b = origin_record(1, 1, 0, 4, 10, 3600, /*vo=*/2);
  ASSERT_TRUE(view.merge_record(from_a, now).applied);
  const auto merged = view.merge_record(from_b, now);
  EXPECT_TRUE(merged.applied);
  EXPECT_TRUE(merged.double_commit);
  EXPECT_EQ(view.estimated_free(SiteId(0), now), 92);
}

TEST(GridViewMerge, ConvergesToSameDigestRegardlessOfMergeOrder) {
  const sim::Time now = sim::Time::from_seconds(100);
  std::vector<DispatchRecord> records = {
      origin_record(0, 1, 0, 4, 10, 3600, 1),
      origin_record(1, 1, 0, 6, 20, 3600, 2),
      origin_record(1, 2, 1, 2, 30, 3600, 1),
      origin_record(2, 5, 1, 3, 40, 3600, 3),
  };
  // A conflicting twin of records[1] with higher severity, mixed in at
  // different positions on each side.
  DispatchRecord twin = records[1];
  twin.cpus = 8;

  GridView a, b;
  a.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  b.bootstrap({snapshot(0, 100, 100), snapshot(1, 50, 50)});
  for (const auto& r : records) a.merge_record(r, now);
  a.merge_record(twin, now);
  b.merge_record(twin, now);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    b.merge_record(*it, now);
  }
  EXPECT_TRUE(a.digest(kAsOf, kHorizon) == b.digest(kAsOf, kHorizon));
  EXPECT_EQ(a.estimated_free(SiteId(0), now), b.estimated_free(SiteId(0), now));
  EXPECT_EQ(a.estimated_free(SiteId(1), now), b.estimated_free(SiteId(1), now));
}

}  // namespace
}  // namespace digruber::gruber
