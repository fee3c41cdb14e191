#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "digruber/common/rng.hpp"
#include "digruber/gruber/engine.hpp"
#include "digruber/gruber/selectors.hpp"

namespace digruber::gruber {
namespace {

struct Fixture {
  grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 2);
  std::vector<usla::Agreement> agreements;
  usla::AllocationTree tree;

  Fixture() {
    const auto parsed = usla::parse_agreement(R"(
agreement t
term v0: grid -> vo:vo0 cpu 50+
term v1: grid -> vo:vo1 cpu 10+
)");
    agreements.push_back(parsed.value());
    tree = usla::AllocationTree::build(agreements, catalog).value();
  }
};

grid::SiteSnapshot snapshot(std::uint64_t site, std::int32_t total,
                            std::int32_t free) {
  grid::SiteSnapshot s;
  s.site = SiteId(site);
  s.total_cpus = total;
  s.free_cpus = free;
  return s;
}

grid::Job job_for(std::uint64_t vo, int cpus = 1) {
  grid::Job job;
  job.id = JobId(1);
  job.vo = VoId(vo);
  job.group = GroupId(vo * 2);
  job.user = UserId(vo * 2);
  job.cpus = cpus;
  job.runtime = sim::Duration::seconds(100);
  return job;
}

TEST(Engine, CandidatesClippedToUslaHeadroom) {
  Fixture f;
  GruberEngine engine(f.catalog, f.tree);
  engine.view().bootstrap({snapshot(0, 100, 100), snapshot(1, 10, 10)});

  // vo0 capped at 50%: site0 -> 50, site1 -> 5.
  const auto candidates = engine.candidates(job_for(0), sim::Time::zero());
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].free_estimate, 50);
  EXPECT_EQ(candidates[0].raw_free, 100);
  EXPECT_EQ(candidates[1].free_estimate, 5);
}

TEST(Engine, SitesWithoutHeadroomExcluded) {
  Fixture f;
  GruberEngine engine(f.catalog, f.tree);
  engine.view().bootstrap({snapshot(0, 100, 100), snapshot(1, 10, 10)});
  // vo1 capped at 10%: site1 allows only 1 CPU; a 2-CPU job excludes it.
  const auto candidates = engine.candidates(job_for(1, 2), sim::Time::zero());
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].site, SiteId(0));
}

TEST(Engine, RecordedDispatchesShrinkCandidates) {
  Fixture f;
  GruberEngine engine(f.catalog, f.tree);
  engine.view().bootstrap({snapshot(0, 100, 100)});

  DispatchRecord r;
  r.origin = DpId(0);
  r.seq = 1;
  r.site = SiteId(0);
  r.vo = VoId(0);
  r.group = GroupId(0);
  r.user = UserId(0);
  r.cpus = 48;
  r.when = sim::Time::zero();
  r.est_runtime = sim::Duration::seconds(1000);
  engine.record(r);

  const auto candidates = engine.candidates(job_for(0), sim::Time::from_seconds(1));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].free_estimate, 2);  // 50-cap minus 48 running
}

/// The candidate scan written out site by site from public calls: the
/// view's loads, its estimated snapshot, group and user sums over the
/// active records, then the evaluator's snapshot chain and storage
/// headroom.
std::vector<SiteLoad> reference_candidates(const GruberEngine& engine,
                                           const grid::Job& job, sim::Time now) {
  const GridView& view = engine.view();
  const usla::UslaEvaluator& evaluator = engine.evaluator();
  const std::vector<DispatchRecord> active = view.active_records(now);
  std::vector<SiteLoad> out;
  for (const SiteLoad& load : view.loads(now)) {
    const grid::SiteSnapshot estimate = view.estimated_snapshot(load.site, now);
    std::int32_t group_running = 0;
    std::int32_t user_running = 0;
    for (const DispatchRecord& r : active) {
      if (r.site != load.site) continue;
      if (r.group == job.group) group_running += r.cpus;
      if (r.user == job.user) user_running += r.cpus;
    }
    const std::int32_t headroom = evaluator.chain_headroom(
        estimate, job.vo, job.group, job.user, group_running, user_running);
    if (headroom < job.cpus) continue;
    const std::uint64_t storage_need = job.input_bytes + job.output_bytes;
    if (storage_need > 0 && evaluator.storage_headroom(estimate, job.vo) < storage_need) {
      continue;
    }
    SiteLoad clipped = load;
    clipped.free_estimate = std::min(load.free_estimate, headroom);
    out.push_back(clipped);
  }
  return out;
}

using LoadFields = std::tuple<std::uint64_t, std::int32_t, std::int32_t,
                              std::int32_t, std::int32_t>;

std::vector<LoadFields> fields(const std::vector<SiteLoad>& loads) {
  std::vector<LoadFields> out;
  for (const SiteLoad& l : loads) {
    out.emplace_back(l.site.value(), l.total_cpus, l.free_estimate, l.raw_free,
                     l.queued);
  }
  return out;
}

TEST(Engine, CandidatesMatchPerSiteReference) {
  // Three VOs of two groups, two users each (users g and g + 6 in group
  // g). vo0 carries group, user and storage terms; vo1 is a target with a
  // site-scoped override at site2; vo2 holds only a guarantee.
  grid::VoCatalog catalog = grid::VoCatalog::uniform(3, 2);
  for (std::uint64_t g = 0; g < 6; ++g) {
    catalog.add_user(GroupId(g), catalog.group_name(GroupId(g)) + ".second");
  }
  const auto parsed = usla::parse_agreement(R"(
agreement reference
term v0: grid -> vo:vo0 cpu 60+
term v1: grid -> vo:vo1 cpu 35
term v2: grid -> vo:vo2 cpu 20-
term s1: site:site2 -> vo:vo1 cpu 15+
term g00: vo:vo0 -> group:vo0.g0 cpu 70+
term g01: vo:vo0 -> group:vo0.g1 cpu 30
term g10: vo:vo1 -> group:vo1.g0 cpu 50+
term u00: group:vo0.g0 -> user:vo0.g0.user cpu 40+
term st0: grid -> vo:vo0 storage 25+
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const auto tree = usla::AllocationTree::build({parsed.value()}, catalog,
                                                {{"site2", SiteId(2)}});
  ASSERT_TRUE(tree.ok()) << tree.error();

  // Both outcomes of the headroom test must occur, and clipping too.
  std::size_t kept = 0;
  std::size_t dropped = 0;
  std::size_t clipped = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    usla::EvaluatorOptions options;
    options.default_open = seed % 5 != 0;  // closed: a chain missing a term gets 0
    GruberEngine engine(catalog, tree.value(), options);

    const auto sites = std::uint64_t(rng.uniform_int(3, 10));
    std::vector<grid::SiteSnapshot> bases;
    for (std::uint64_t s = 0; s < sites; ++s) {
      grid::SiteSnapshot base;
      base.site = SiteId(s);
      base.total_cpus = std::int32_t(rng.uniform_int(0, 120));
      base.free_cpus = std::int32_t(rng.uniform_int(0, base.total_cpus));
      base.queued_jobs = std::int32_t(rng.uniform_int(0, 5));
      for (std::uint64_t v = 0; v < 3; ++v) {
        if (rng.bernoulli(0.5)) {
          base.running_per_vo[VoId(v)] = std::int32_t(rng.uniform_int(0, 30));
        }
        if (rng.bernoulli(0.5)) {
          base.storage_per_vo[VoId(v)] = std::uint64_t(rng.uniform_int(0, 400)) << 20;
        }
      }
      base.total_storage_bytes = std::uint64_t(rng.uniform_int(0, 2000)) << 20;
      base.free_storage_bytes = std::uint64_t(
          rng.uniform_int(0, std::int64_t(base.total_storage_bytes >> 20))) << 20;
      bases.push_back(base);
    }
    engine.view().bootstrap(bases);

    // Records expire before, exactly at and after `now`; some land on
    // site `sites`, which the view never bootstrapped. Site 0 draws extra
    // records so group and user caps bind there.
    const sim::Time now = sim::Time::from_seconds(double(rng.uniform_int(100, 1000)));
    const int records = int(rng.uniform_int(0, 80));
    for (int i = 0; i < records; ++i) {
      DispatchRecord r;
      r.origin = DpId(rng.uniform_index(3));
      r.seq = std::uint64_t(i);
      r.site = rng.bernoulli(0.4) ? SiteId(0) : SiteId(rng.uniform_index(sites + 1));
      const auto group = rng.uniform_index(6);
      r.vo = VoId(group / 2);
      r.group = GroupId(group);
      r.user = UserId(group + 6 * rng.uniform_index(2));
      r.cpus = std::int32_t(rng.uniform_int(1, 8));
      r.when = sim::Time::from_seconds(double(rng.uniform_int(0, 90)));
      switch (rng.uniform_index(3)) {
        case 0: r.est_runtime = (now - r.when) - sim::Duration::seconds(1); break;
        case 1: r.est_runtime = now - r.when; break;
        default: r.est_runtime = (now - r.when) + sim::Duration::seconds(50); break;
      }
      engine.record(r);
    }

    for (int q = 0; q < 6; ++q) {
      grid::Job job = job_for(0);
      const auto group = rng.uniform_index(6);
      job.vo = VoId(group / 2);
      job.group = GroupId(group);
      job.user = UserId(group + 6 * rng.uniform_index(2));
      job.cpus = int(rng.uniform_int(1, 6));
      if (rng.bernoulli(0.4)) {
        job.input_bytes = std::uint64_t(rng.uniform_int(0, 300)) << 20;
        job.output_bytes = std::uint64_t(rng.uniform_int(1, 100)) << 20;
      }
      // The scan goes first: the reference's calls prune the view.
      const auto actual = fields(engine.candidates(job, now));
      const std::vector<SiteLoad> expected = reference_candidates(engine, job, now);
      EXPECT_EQ(actual, fields(expected)) << "seed " << seed << " query " << q;
      kept += expected.size();
      dropped += engine.view().site_count() - expected.size();
      clipped += std::size_t(std::count_if(
          expected.begin(), expected.end(),
          [](const SiteLoad& l) { return l.free_estimate < l.raw_free; }));
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(clipped, 0u);
}

std::vector<SiteLoad> make_loads(std::initializer_list<std::pair<int, int>> site_free) {
  std::vector<SiteLoad> loads;
  std::uint64_t id = 0;
  for (const auto& [total, free] : site_free) {
    SiteLoad load;
    load.site = SiteId(id++);
    load.total_cpus = total;
    load.free_estimate = free;
    load.raw_free = free;
    loads.push_back(load);
  }
  return loads;
}

TEST(Selectors, LeastUsedPicksMostFree) {
  LeastUsedSelector selector;
  const auto loads = make_loads({{100, 10}, {100, 90}, {100, 50}});
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(1));
}

TEST(Selectors, RoundRobinCycles) {
  RoundRobinSelector selector;
  const auto loads = make_loads({{10, 5}, {10, 5}, {10, 5}});
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(0));
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(1));
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(2));
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(0));
}

TEST(Selectors, RoundRobinSkipsTooSmall) {
  RoundRobinSelector selector;
  const auto loads = make_loads({{10, 1}, {10, 5}});
  EXPECT_EQ(selector.select(loads, job_for(0, 3)), SiteId(1));
  EXPECT_EQ(selector.select(loads, job_for(0, 3)), SiteId(1));
}

TEST(Selectors, LeastRecentlyUsedRotates) {
  LeastRecentlyUsedSelector selector;
  const auto loads = make_loads({{10, 5}, {10, 5}});
  const auto first = selector.select(loads, job_for(0));
  const auto second = selector.select(loads, job_for(0));
  ASSERT_TRUE(first && second);
  EXPECT_NE(*first, *second);
  // Third pick returns to the least recently used (the first).
  EXPECT_EQ(selector.select(loads, job_for(0)), *first);
}

TEST(Selectors, RandomOnlyPicksAdmissible) {
  RandomSelector selector{Rng(5)};
  const auto loads = make_loads({{10, 0}, {10, 9}, {10, 1}});
  for (int i = 0; i < 50; ++i) {
    const auto site = selector.select(loads, job_for(0, 2));
    ASSERT_TRUE(site.has_value());
    EXPECT_EQ(*site, SiteId(1));
  }
}

TEST(Selectors, TopKSpreadsAcrossBestSites) {
  TopKSelector selector(2, Rng(7));
  const auto loads = make_loads({{100, 90}, {100, 80}, {100, 10}, {100, 5}});
  std::set<std::uint64_t> chosen;
  for (int i = 0; i < 100; ++i) {
    const auto site = selector.select(loads, job_for(0));
    ASSERT_TRUE(site.has_value());
    chosen.insert(site->value());
  }
  EXPECT_EQ(chosen, (std::set<std::uint64_t>{0, 1}));
}

TEST(Selectors, WeightedPrefersRelativeAvailability) {
  WeightedSelector selector;
  // Site 0: 40/400 free (score 4); site 1: 30/40 free (score 22.5).
  const auto loads = make_loads({{400, 40}, {40, 30}});
  EXPECT_EQ(selector.select(loads, job_for(0)), SiteId(1));
}

TEST(Selectors, EmptyAndInfeasibleCandidates) {
  LeastUsedSelector least;
  RandomSelector random{Rng(1)};
  TopKSelector topk(3, Rng(2));
  const std::vector<SiteLoad> none;
  EXPECT_FALSE(least.select(none, job_for(0)).has_value());
  EXPECT_FALSE(random.select(none, job_for(0)).has_value());
  EXPECT_FALSE(topk.select(none, job_for(0)).has_value());

  const auto tiny = make_loads({{10, 1}, {10, 0}});
  EXPECT_FALSE(least.select(tiny, job_for(0, 5)).has_value());
  EXPECT_FALSE(random.select(tiny, job_for(0, 5)).has_value());
}

TEST(Selectors, FactoryCreatesAllKinds) {
  for (const char* name :
       {"round-robin", "least-used", "least-recently-used", "random", "top-k",
        "weighted"}) {
    const auto selector = make_selector(name, Rng(1));
    ASSERT_NE(selector, nullptr);
    EXPECT_STREQ(selector->name(), name);
  }
  EXPECT_THROW(make_selector("nope", Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace digruber::gruber
