#include <gtest/gtest.h>

#include <cmath>

#include "digruber/common/rng.hpp"
#include "digruber/usla/document.hpp"
#include "digruber/usla/tree.hpp"

namespace digruber::usla {
namespace {

const char* kSample = R"(
# Example USLA document
agreement osg-shares
context provider=osg consumer=physics
term cms-share: grid -> vo:cms cpu 40+
term atlas-share: grid -> vo:atlas cpu 30
term cdf-share: grid -> vo:cdf cpu 10-
term higgs-share: vo:cms -> group:cms.higgs cpu 50
goal qtime < 600
goal accuracy > 0.9
)";

TEST(UslaParse, ParsesFullDocument) {
  const auto result = parse_agreement(kSample);
  ASSERT_TRUE(result.ok()) << result.error();
  const Agreement& a = result.value();
  EXPECT_EQ(a.name, "osg-shares");
  EXPECT_EQ(a.context_provider, "osg");
  EXPECT_EQ(a.context_consumer, "physics");
  ASSERT_EQ(a.terms.size(), 4u);
  EXPECT_EQ(a.terms[0].name, "cms-share");
  EXPECT_EQ(a.terms[0].consumer.kind, EntityRef::Kind::kVo);
  EXPECT_EQ(a.terms[0].consumer.name, "cms");
  EXPECT_DOUBLE_EQ(a.terms[0].share.percent, 40.0);
  EXPECT_EQ(a.terms[0].share.bound, BoundKind::kUpperLimit);
  EXPECT_EQ(a.terms[1].share.bound, BoundKind::kTarget);
  EXPECT_EQ(a.terms[2].share.bound, BoundKind::kLowerLimit);
  EXPECT_EQ(a.terms[3].provider.kind, EntityRef::Kind::kVo);
  ASSERT_EQ(a.goals.size(), 2u);
  EXPECT_EQ(a.goals[0].metric, "qtime");
  EXPECT_EQ(a.goals[0].relation, "<");
  EXPECT_DOUBLE_EQ(a.goals[1].threshold, 0.9);
}

TEST(UslaParse, FormatRoundtrips) {
  const Agreement a = parse_agreement(kSample).value();
  const std::string text = format_agreement(a);
  const auto again = parse_agreement(text);
  ASSERT_TRUE(again.ok()) << again.error();
  const Agreement& b = again.value();
  EXPECT_EQ(b.name, a.name);
  ASSERT_EQ(b.terms.size(), a.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(b.terms[i].provider, a.terms[i].provider);
    EXPECT_EQ(b.terms[i].consumer, a.terms[i].consumer);
    EXPECT_DOUBLE_EQ(b.terms[i].share.percent, a.terms[i].share.percent);
    EXPECT_EQ(b.terms[i].share.bound, a.terms[i].share.bound);
  }
  EXPECT_EQ(b.goals.size(), a.goals.size());
}

TEST(UslaParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse_agreement("bogus line\n").ok());
  EXPECT_FALSE(parse_agreement("agreement\n").ok());
  EXPECT_FALSE(parse_agreement("term x grid -> vo:a cpu 10\n").ok());   // missing colon
  EXPECT_FALSE(parse_agreement("term x: grid => vo:a cpu 10\n").ok());  // bad arrow
  EXPECT_FALSE(parse_agreement("term x: grid -> vo:a cpu 101\n").ok()); // >100%
  EXPECT_FALSE(parse_agreement("term x: grid -> vo:a cpu -5\n").ok());
  EXPECT_FALSE(parse_agreement("term x: grid -> vo:a disk 10\n").ok()); // resource
  EXPECT_FALSE(parse_agreement("term x: blah:a -> vo:a cpu 10\n").ok());
  EXPECT_FALSE(parse_agreement("goal qtime ~ 5\n").ok());
  EXPECT_FALSE(parse_agreement("goal qtime < abc\n").ok());
  EXPECT_FALSE(parse_agreement("context provider\n").ok());
}

TEST(UslaValidate, DetectsDuplicatesAndOversubscription) {
  Agreement a = parse_agreement(kSample).value();
  EXPECT_TRUE(validate(a).ok());

  Agreement dup = a;
  dup.terms.push_back(dup.terms[0]);
  EXPECT_FALSE(validate(dup).ok());

  Agreement over;
  for (int i = 0; i < 3; ++i) {
    ServiceTerm t;
    t.name = "t" + std::to_string(i);
    t.provider = EntityRef{EntityRef::Kind::kGrid, ""};
    t.consumer = EntityRef{EntityRef::Kind::kVo, "vo" + std::to_string(i)};
    t.share = ShareSpec{40.0, BoundKind::kTarget};
    over.terms.push_back(t);
  }
  EXPECT_FALSE(validate(over).ok());  // 3 x 40% targets > 100%

  // Upper limits may oversubscribe (they are caps, not reservations).
  for (auto& t : over.terms) t.share.bound = BoundKind::kUpperLimit;
  EXPECT_TRUE(validate(over).ok());
}

grid::VoCatalog two_vo_catalog() {
  grid::VoCatalog catalog;
  const VoId cms = catalog.add_vo("cms");
  const VoId atlas = catalog.add_vo("atlas");
  const GroupId higgs = catalog.add_group(cms, "cms.higgs");
  catalog.add_group(cms, "cms.susy");
  catalog.add_group(atlas, "atlas.top");
  catalog.add_user(higgs, "alice");
  return catalog;
}

TEST(AllocationTree, BuildsAndResolves) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a = parse_agreement(R"(
agreement t
term c: grid -> vo:cms cpu 60+
term a: grid -> vo:atlas cpu 30
term h: vo:cms -> group:cms.higgs cpu 50+
)").value();
  const auto tree = AllocationTree::build({a}, catalog);
  ASSERT_TRUE(tree.ok()) << tree.error();

  const auto cms = tree.value().vo_share(VoId(0));
  ASSERT_TRUE(cms.has_value());
  EXPECT_DOUBLE_EQ(cms->percent, 60.0);
  EXPECT_EQ(cms->bound, BoundKind::kUpperLimit);

  EXPECT_TRUE(tree.value().vo_share(VoId(1)).has_value());
  EXPECT_TRUE(tree.value().group_share(GroupId(0)).has_value());
  EXPECT_FALSE(tree.value().group_share(GroupId(1)).has_value());
}

TEST(AllocationTree, SiteSpecificOverridesGridRule) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const std::map<std::string, SiteId> sites{{"fnal", SiteId(3)}};
  const Agreement a = parse_agreement(R"(
agreement t
term wide: grid -> vo:cms cpu 20+
term local: site:fnal -> vo:cms cpu 80+
)").value();
  const auto tree = AllocationTree::build({a}, catalog, sites);
  ASSERT_TRUE(tree.ok()) << tree.error();
  EXPECT_DOUBLE_EQ(tree.value().vo_share(VoId(0))->percent, 20.0);
  EXPECT_DOUBLE_EQ(tree.value().vo_share(VoId(0), SiteId(3))->percent, 80.0);
  EXPECT_DOUBLE_EQ(tree.value().vo_share(VoId(0), SiteId(9))->percent, 20.0);
}

TEST(AllocationTree, RejectsUnknownEntities) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement bad_vo =
      parse_agreement("agreement t\nterm x: grid -> vo:nosuch cpu 10\n").value();
  EXPECT_FALSE(AllocationTree::build({bad_vo}, catalog).ok());

  const Agreement bad_site =
      parse_agreement("agreement t\nterm x: site:nowhere -> vo:cms cpu 10\n").value();
  EXPECT_FALSE(AllocationTree::build({bad_site}, catalog).ok());

  const Agreement wrong_parent =
      parse_agreement("agreement t\nterm x: vo:atlas -> group:cms.higgs cpu 10\n").value();
  EXPECT_FALSE(AllocationTree::build({wrong_parent}, catalog).ok());
}

grid::SiteSnapshot snapshot(std::int32_t total, std::int32_t free,
                            std::map<VoId, std::int32_t> running = {}) {
  grid::SiteSnapshot s;
  s.site = SiteId(0);
  s.total_cpus = total;
  s.free_cpus = free;
  s.running_per_vo = std::move(running);
  return s;
}

TEST(Evaluator, UpperLimitIsHardCap) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 25+\n").value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);

  // 25% of 100 CPUs = 25; 10 already running -> 15 headroom.
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 90, {{VoId(0), 10}}), VoId(0)), 15);
  // Free CPUs bound the headroom.
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 5, {{VoId(0), 10}}), VoId(0)), 5);
  // Over quota -> zero, never negative.
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 50, {{VoId(0), 30}}), VoId(0)), 0);
}

TEST(Evaluator, TargetAllowsBurst) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 20\n").value();
  const auto tree = AllocationTree::build({a}, catalog);
  EvaluatorOptions options;
  options.target_burst = 1.5;
  const UslaEvaluator eval(tree.value(), catalog, options);
  // Target 20% with 1.5 burst -> effective 30% of 100.
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 100), VoId(0)), 30);
}

TEST(Evaluator, LowerLimitIsNoCap) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 10-\n").value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 70), VoId(0)), 70);
  EXPECT_DOUBLE_EQ(eval.guarantee_fraction(VoId(0)), 0.10);
  EXPECT_DOUBLE_EQ(eval.guarantee_fraction(VoId(1)), 0.0);
}

TEST(Evaluator, DefaultPolicyOpenVsClosed) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const auto tree = AllocationTree::build({}, catalog);
  const UslaEvaluator open(tree.value(), catalog);
  EXPECT_EQ(open.vo_headroom(snapshot(100, 40), VoId(1)), 40);

  EvaluatorOptions closed_options;
  closed_options.default_open = false;
  const UslaEvaluator closed(tree.value(), catalog, closed_options);
  EXPECT_EQ(closed.vo_headroom(snapshot(100, 40), VoId(1)), 0);
}

TEST(Evaluator, ChainHeadroomAppliesGroupAndUserShares) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a = parse_agreement(R"(
agreement t
term c: grid -> vo:cms cpu 50+
term h: vo:cms -> group:cms.higgs cpu 40+
term u: group:cms.higgs -> user:cms.higgs cpu 50+
)").value();
  const auto tree = AllocationTree::build({a}, catalog);
  ASSERT_TRUE(tree.ok()) << tree.error();
  const UslaEvaluator eval(tree.value(), catalog);

  // Site of 200: vo cap 100, group cap 40% of that = 40, user cap 50% of
  // group = 20.
  const auto snap = snapshot(200, 200);
  EXPECT_EQ(eval.vo_headroom(snap, VoId(0)), 100);
  EXPECT_EQ(eval.chain_headroom(snap, VoId(0), GroupId(0), UserId(0), 0, 0), 20);
  // Group usage eats into the group cap.
  EXPECT_EQ(eval.chain_headroom(snap, VoId(0), GroupId(0), UserId(0), 35, 0), 5);
  // User usage eats into the user cap.
  EXPECT_EQ(eval.chain_headroom(snap, VoId(0), GroupId(0), UserId(0), 0, 15), 5);
  EXPECT_EQ(eval.chain_headroom(snap, VoId(0), GroupId(0), UserId(0), 40, 0), 0);
}

TEST(Evaluator, ResolvedChainHonoursSiteOverride) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const std::map<std::string, SiteId> sites{{"fnal", SiteId(3)}};
  const Agreement a = parse_agreement(R"(
agreement t
term wide: grid -> vo:cms cpu 20+
term local: site:fnal -> vo:cms cpu 80+
term h: vo:cms -> group:cms.higgs cpu 50+
)").value();
  const auto tree = AllocationTree::build({a}, catalog, sites);
  ASSERT_TRUE(tree.ok()) << tree.error();
  EXPECT_TRUE(tree.value().has_site_rule(ResourceKind::kCpu, VoId(0)));
  EXPECT_FALSE(tree.value().has_site_rule(ResourceKind::kStorage, VoId(0)));
  EXPECT_FALSE(tree.value().has_site_rule(ResourceKind::kCpu, VoId(1)));
  const UslaEvaluator eval(tree.value(), catalog);

  const ResolvedChain chain = eval.resolve_chain(VoId(0), GroupId(0), UserId(0));
  EXPECT_TRUE(chain.site_rules);
  EXPECT_DOUBLE_EQ(chain.vo_cap, 0.2);
  EXPECT_DOUBLE_EQ(chain.group_cap, 0.5);
  EXPECT_DOUBLE_EQ(chain.user_cap, 1.0);
  // Site of 100: cms may hold 80 CPUs at fnal and 20 elsewhere; its
  // higgs group half of either.
  ChainUsage at;
  at.site = SiteId(3);
  at.total_cpus = 100;
  at.free_cpus = 100;
  EXPECT_EQ(eval.chain_headroom(chain, at), 40);
  at.group_running = 30;
  EXPECT_EQ(eval.chain_headroom(chain, at), 10);
  at.site = SiteId(9);
  at.group_running = 0;
  EXPECT_EQ(eval.chain_headroom(chain, at), 10);
  // The snapshot form resolves the same chain.
  grid::SiteSnapshot fnal = snapshot(100, 100);
  fnal.site = SiteId(3);
  EXPECT_EQ(eval.chain_headroom(fnal, VoId(0), GroupId(0), UserId(0), 0, 0), 40);
}

TEST(Evaluator, WholeCpusIsTheFloorOfTheShare) {
  // The headroom's rounding, against the std::floor it stands for: exact
  // shares, values an epsilon either side of an integer, negatives, and
  // the ends of the int32 range.
  const auto floor_of = [](double cpus) {
    return std::int32_t(std::floor(cpus + 1e-9));
  };
  EXPECT_EQ(whole_cpus(0.29 * 100.0), 29);
  for (const double x :
       {0.0, -0.0, 1e-10, -1e-10, -1e-9, -2e-9, 0.5, 0.999999, 1.0, 41.9999999,
        -0.5, -1.0, -1.5, -7.0000001, 2147483646.25, -2147483647.75}) {
    EXPECT_EQ(whole_cpus(x), floor_of(x)) << x;
  }
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    const double k = double(rng.uniform_int(-5000, 5000));
    const double x = rng.bernoulli(0.5) ? rng.uniform(-5000.0, 5000.0)
                                        : k + rng.uniform(-3e-9, 3e-9);
    ASSERT_EQ(whole_cpus(x), floor_of(x)) << x;
  }
}

TEST(Evaluator, Admissible) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 10+\n").value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);
  EXPECT_TRUE(eval.admissible(snapshot(100, 100), VoId(0), 10));
  EXPECT_FALSE(eval.admissible(snapshot(100, 100), VoId(0), 11));
}

TEST(Evaluator, VoCapCpusIsTheHeadroomCeiling) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 25+\n").value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);

  EXPECT_EQ(eval.vo_cap_cpus(SiteId(0), VoId(0), 100), 25);
  EXPECT_EQ(eval.vo_cap_cpus(SiteId(0), VoId(0), 90), 22);  // floor, not round
  // Unruled VO under the open default: the whole site.
  EXPECT_EQ(eval.vo_cap_cpus(SiteId(0), VoId(1), 100), 100);
  // The cap is exactly what vo_headroom enforces from an empty site.
  EXPECT_EQ(eval.vo_headroom(snapshot(100, 100), VoId(0)),
            eval.vo_cap_cpus(SiteId(0), VoId(0), 100));
}

TEST(Evaluator, OverCommitAuditFlagsOnlyBreachedPairs) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const Agreement a = parse_agreement(R"(
agreement t
term c: grid -> vo:cms cpu 25+
term a: grid -> vo:atlas cpu 40+
)").value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);

  // Site 0: cms holds 30 of a 25-CPU cap (a split admitted on both sides);
  // atlas is within entitlement. Site 1: everyone within entitlement.
  grid::SiteSnapshot breached =
      snapshot(100, 50, {{VoId(0), 30}, {VoId(1), 20}});
  grid::SiteSnapshot clean = snapshot(200, 150, {{VoId(0), 40}});
  clean.site = SiteId(1);

  const std::vector<VoOverCommit> audit = eval.over_commit_audit({breached, clean});
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].site, SiteId(0));
  EXPECT_EQ(audit[0].vo, VoId(0));
  EXPECT_EQ(audit[0].running, 30);
  EXPECT_EQ(audit[0].cap_cpus, 25);
  EXPECT_EQ(audit[0].excess(), 5);

  // A single honest broker never admits past the cap: fresh state audits
  // clean.
  EXPECT_TRUE(eval.over_commit_audit({clean}).empty());
}

/// Property sweep over bound kinds: headroom is always within [0, free].
class EvaluatorProperty : public ::testing::TestWithParam<char> {};

TEST_P(EvaluatorProperty, HeadroomBounded) {
  const grid::VoCatalog catalog = two_vo_catalog();
  const std::string suffix = GetParam() == 't' ? "" : std::string(1, GetParam());
  const Agreement a =
      parse_agreement("agreement t\nterm c: grid -> vo:cms cpu 35" + suffix + "\n")
          .value();
  const auto tree = AllocationTree::build({a}, catalog);
  const UslaEvaluator eval(tree.value(), catalog);
  for (std::int32_t free : {0, 1, 10, 50, 100}) {
    for (std::int32_t used : {0, 5, 40, 100}) {
      const std::int32_t headroom =
          eval.vo_headroom(snapshot(100, free, {{VoId(0), used}}), VoId(0));
      EXPECT_GE(headroom, 0);
      EXPECT_LE(headroom, free);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, EvaluatorProperty, ::testing::Values('t', '+', '-'));

}  // namespace
}  // namespace digruber::usla
