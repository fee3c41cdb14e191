#include <gtest/gtest.h>

#include "digruber/economy/economy.hpp"
#include "digruber/experiments/scenario.hpp"

namespace digruber::economy {
namespace {

EconomyOptions small_bank_options() {
  EconomyOptions options;
  options.enabled = true;
  options.allocator = Allocator::kKarma;
  options.epoch = sim::Duration::seconds(100);
  options.capacity_cpus = 10;  // 1000 CPU-seconds per epoch
  return options;
}

std::vector<std::pair<VoId, double>> two_equal_vos() {
  return {{VoId{0}, 0.5}, {VoId{1}, 0.5}};
}

const LedgerSnapshot& ledger_of(const BankStats& stats, VoId vo) {
  for (const auto& ledger : stats.ledgers) {
    if (ledger.vo == vo) return ledger;
  }
  ADD_FAILURE() << "no ledger for vo " << vo.value();
  static LedgerSnapshot empty;
  return empty;
}

TEST(QuotePrice, LinearInCongestionAndClamped) {
  // 1 + 4 * utilization + 0.05 * wait.
  EXPECT_DOUBLE_EQ(quote_price(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quote_price(0.5, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(quote_price(0.5, 100.0), 8.0);
  // Utilization clamps to [0,1]; negative wait clamps to 0.
  EXPECT_DOUBLE_EQ(quote_price(7.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(quote_price(-1.0, -50.0), 1.0);
  // Monotone in both signals.
  EXPECT_LT(quote_price(0.2, 10.0), quote_price(0.6, 10.0));
  EXPECT_LT(quote_price(0.6, 10.0), quote_price(0.6, 20.0));
}

TEST(CreditBank, InitialEndowmentFollowsShares) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  const BankStats stats = bank.stats();
  ASSERT_EQ(stats.ledgers.size(), 2u);
  // Equal halves of 1000 CPU-s/epoch, one epoch of initial credit.
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{0}).fair_share, 500.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{0}).balance, 500.0);
  EXPECT_DOUBLE_EQ(stats.initial_total, 1000.0);
}

TEST(CreditBank, SharesAreNormalized) {
  const auto options = small_bank_options();
  // Fractions sum to 2; they must be treated as 0.5 each.
  CreditBank bank(options, {{VoId{0}, 1.0}, {VoId{1}, 1.0}});
  EXPECT_DOUBLE_EQ(ledger_of(bank.stats(), VoId{1}).fair_share, 500.0);
}

TEST(CreditBank, AdmitWithinAllowanceThenGraceThenDenied) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  const sim::Time now = sim::Time::from_seconds(10);

  // fair_share 500 + balance 500 = allowance 1000.
  bank.charge(VoId{0}, 900, now);
  EXPECT_EQ(bank.admit(VoId{0}, now, 0.9), Admit::kWithinShare);

  // Over allowance: idle grid + arbitration win + below the credit-cap
  // ceiling (4 * 500 = 2000) => bounded grace.
  bank.charge(VoId{0}, 200, now);
  EXPECT_EQ(bank.admit(VoId{0}, now, 0.9), Admit::kGrace);
  // The same VO under scarcity is denied outright.
  EXPECT_EQ(bank.admit(VoId{0}, now, 0.1), Admit::kDenied);

  // Past the ceiling even an idle grid refuses.
  bank.charge(VoId{0}, 1000, now);  // used 2100 >= 2000
  EXPECT_EQ(bank.admit(VoId{0}, now, 0.9), Admit::kDenied);

  // Unknown VOs are not gated.
  EXPECT_EQ(bank.admit(VoId{42}, now, 0.0), Admit::kWithinShare);

  const BankStats stats = bank.stats();
  EXPECT_EQ(stats.grace_admissions, 1u);
  EXPECT_EQ(stats.denials, 2u);
}

TEST(CreditBank, SettlementIsZeroSumTransfer) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  const sim::Time in_epoch = sim::Time::from_seconds(10);
  bank.charge(VoId{0}, 800, in_epoch);  // 300 over fair share
  bank.charge(VoId{1}, 100, in_epoch);  // 400 under fair share
  bank.roll_to(sim::Time::from_seconds(150));

  const BankStats stats = bank.stats();
  EXPECT_EQ(stats.epochs_settled, 1u);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{0}).balance, 200.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{0}).spent, 300.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{1}).balance, 800.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{1}).earned, 300.0);
  // Conservation: spent == earned + expired_pool, and total balance is
  // the initial endowment shifted by net transfers.
  EXPECT_DOUBLE_EQ(stats.spent, stats.earned + stats.expired_pool);
  double total_balance = 0;
  for (const auto& ledger : stats.ledgers) total_balance += ledger.balance;
  EXPECT_DOUBLE_EQ(total_balance, stats.initial_total + stats.earned -
                                      stats.spent - stats.expired_cap);
}

TEST(CreditBank, UnabsorbedPoolExpires) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  const sim::Time in_epoch = sim::Time::from_seconds(10);
  bank.charge(VoId{0}, 800, in_epoch);  // 300 over
  bank.charge(VoId{1}, 500, in_epoch);  // exactly at share: no deficit
  bank.roll_to(sim::Time::from_seconds(150));

  const BankStats stats = bank.stats();
  EXPECT_DOUBLE_EQ(stats.spent, 300.0);
  EXPECT_DOUBLE_EQ(stats.earned, 0.0);
  EXPECT_DOUBLE_EQ(stats.expired_pool, 300.0);
  EXPECT_DOUBLE_EQ(stats.spent, stats.earned + stats.expired_pool);
}

TEST(CreditBank, BalanceCapExpiresCredits) {
  auto options = small_bank_options();
  // Endow each VO at the cap: kCreditCapEpochs * fair_share = 4 * 500.
  options.initial_credit_epochs = kCreditCapEpochs;
  CreditBank bank(options, two_equal_vos());
  const sim::Time in_epoch = sim::Time::from_seconds(10);
  bank.charge(VoId{0}, 800, in_epoch);
  bank.charge(VoId{1}, 100, in_epoch);
  bank.roll_to(sim::Time::from_seconds(150));

  const BankStats stats = bank.stats();
  // VO1 earns VO0's 300 overage and would rise to 2300, but the cap
  // clamps it to 2000.
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{1}).balance, 2000.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{1}).expired_cap, 300.0);
  double total_balance = 0;
  for (const auto& ledger : stats.ledgers) total_balance += ledger.balance;
  EXPECT_DOUBLE_EQ(total_balance, stats.initial_total + stats.earned -
                                      stats.spent - stats.expired_cap);
}

TEST(CreditBank, MultipleElapsedEpochsSettleOnceEach) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  bank.charge(VoId{0}, 800, sim::Time::from_seconds(10));
  // Jump three epoch boundaries in one call.
  bank.roll_to(sim::Time::from_seconds(350));
  EXPECT_EQ(bank.stats().epochs_settled, 3u);
}

TEST(CreditBank, ArbitrationOrderIsSeverityThenCreditThenId) {
  const auto options = small_bank_options();
  CreditBank bank(options,
                  {{VoId{0}, 1.0 / 3}, {VoId{1}, 1.0 / 3}, {VoId{2}, 1.0 / 3}});
  const sim::Time now = sim::Time::from_seconds(10);
  // fair_share ~333: severities 1.8, 0.3, 0.9.
  bank.charge(VoId{0}, 600, now);
  bank.charge(VoId{1}, 100, now);
  bank.charge(VoId{2}, 300, now);
  EXPECT_TRUE(bank.precedes(VoId{1}, VoId{2}));
  EXPECT_TRUE(bank.precedes(VoId{2}, VoId{0}));
  EXPECT_FALSE(bank.precedes(VoId{0}, VoId{1}));

  // Capacity walk in that order: VO1 (200) + VO2 (150) fit in 360, the
  // remaining 10 cannot take VO0's 100.
  const std::vector<VoId> admitted = bank.arbitrate(
      {{VoId{0}, 100.0}, {VoId{1}, 200.0}, {VoId{2}, 150.0}}, 360.0, now);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0], VoId{1});
  EXPECT_EQ(admitted[1], VoId{2});
}

TEST(CreditBank, EqualStandingBreaksTiesByLowerId) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  EXPECT_TRUE(bank.precedes(VoId{0}, VoId{1}));
  EXPECT_FALSE(bank.precedes(VoId{1}, VoId{0}));
}

TEST(CreditBank, ResetRestoresInitialEndowment) {
  const auto options = small_bank_options();
  CreditBank bank(options, two_equal_vos());
  bank.charge(VoId{0}, 800, sim::Time::from_seconds(10));
  bank.charge(VoId{1}, 100, sim::Time::from_seconds(10));
  bank.roll_to(sim::Time::from_seconds(150));
  bank.reset(sim::Time::from_seconds(160));

  const BankStats stats = bank.stats();
  EXPECT_EQ(stats.epochs_settled, 0u);
  EXPECT_DOUBLE_EQ(stats.earned, 0.0);
  EXPECT_DOUBLE_EQ(stats.spent, 0.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{0}).balance, 500.0);
  EXPECT_DOUBLE_EQ(ledger_of(stats, VoId{1}).balance, 500.0);
  EXPECT_DOUBLE_EQ(stats.initial_total, 1000.0);
}

TEST(SharesFromTree, UnruledVosSplitEqually) {
  const usla::AllocationTree tree;
  const auto shares = shares_from_tree(tree, 4);
  ASSERT_EQ(shares.size(), 4u);
  for (const auto& [vo, fraction] : shares) {
    EXPECT_DOUBLE_EQ(fraction, 0.25);
  }
}

// --- Scenario-level properties -------------------------------------------

experiments::ScenarioConfig karma_scenario(std::uint64_t seed) {
  experiments::ScenarioConfig cfg;
  cfg.name = "economy-determinism";
  cfg.seed = seed;
  cfg.n_dps = 1;
  cfg.n_clients = 15;
  cfg.think = sim::Duration::seconds(10);
  cfg.duration = sim::Duration::minutes(8);
  cfg.ramp_span = sim::Duration::seconds(30);
  cfg.grid_scale = 1;
  cfg.background_util = 0.35;
  cfg.selector = "least-used";
  cfg.workload.n_vos = 4;
  cfg.workload.strategic_vo = 0;
  cfg.workload.strategic_factor = 10.0;
  cfg.economy_options.allocator = Allocator::kKarma;
  cfg.economy_options.epoch = sim::Duration::seconds(60);
  cfg.economy_options.capacity_cpus = 300;
  cfg.economy_options.scarce_free_fraction = 0.6;
  cfg.economy_options.initial_credit_epochs = 0.25;
  return cfg;
}

TEST(EconomyScenario, EpochRolloverIsDeterministicAcrossRuns) {
  const experiments::ScenarioResult a =
      experiments::run_scenario(karma_scenario(11));
  const experiments::ScenarioResult b =
      experiments::run_scenario(karma_scenario(11));

  ASSERT_EQ(a.dps.size(), 1u);
  ASSERT_EQ(b.dps.size(), 1u);
  const BankStats& bank_a = a.dps[0].economy;
  const BankStats& bank_b = b.dps[0].economy;
  EXPECT_GT(bank_a.epochs_settled, 0u);
  EXPECT_EQ(bank_a.epochs_settled, bank_b.epochs_settled);
  ASSERT_EQ(bank_a.ledgers.size(), bank_b.ledgers.size());
  for (std::size_t i = 0; i < bank_a.ledgers.size(); ++i) {
    const LedgerSnapshot& la = bank_a.ledgers[i];
    const LedgerSnapshot& lb = bank_b.ledgers[i];
    EXPECT_EQ(la.vo, lb.vo);
    // Bit-identical, not approximately equal: the ledger advances only
    // from the (charge, admit) call order, which the seed fixes.
    EXPECT_EQ(la.balance, lb.balance);
    EXPECT_EQ(la.used_epoch, lb.used_epoch);
    EXPECT_EQ(la.earned, lb.earned);
    EXPECT_EQ(la.spent, lb.spent);
    EXPECT_EQ(la.expired_cap, lb.expired_cap);
    EXPECT_EQ(la.denials, lb.denials);
    EXPECT_EQ(la.grace_admissions, lb.grace_admissions);
  }
  EXPECT_EQ(a.economy.credit_denials, b.economy.credit_denials);
  EXPECT_EQ(a.economy.grace_admissions, b.economy.grace_admissions);
}

TEST(EconomyScenario, LedgerConservationHoldsAtWindowEnd) {
  const experiments::ScenarioResult r =
      experiments::run_scenario(karma_scenario(13));
  ASSERT_EQ(r.dps.size(), 1u);
  const BankStats& bank = r.dps[0].economy;
  EXPECT_GT(bank.epochs_settled, 0u);
  EXPECT_NEAR(bank.spent, bank.earned + bank.expired_pool,
              1e-6 * std::max(1.0, bank.spent));
  double total_balance = 0;
  for (const auto& ledger : bank.ledgers) total_balance += ledger.balance;
  const double expected =
      bank.initial_total + bank.earned - bank.spent - bank.expired_cap;
  EXPECT_NEAR(total_balance, expected, 1e-6 * std::max(1.0, expected));
}

TEST(EconomyScenario, MarketPlacementQuotesAndSelectsOnPrice) {
  experiments::ScenarioConfig cfg = karma_scenario(17);
  cfg.name = "economy-market";
  cfg.n_dps = 3;
  cfg.market_placement = true;
  cfg.workload.budget_mean = 50.0;
  cfg.workload.deadline_slack = 3.0;
  const experiments::ScenarioResult r = experiments::run_scenario(cfg);
  EXPECT_GT(r.economy.priced_replies, 0u);
  EXPECT_GT(r.economy.priced_dispatches, 0u);
  // Budget-bearing jobs that lost every quote fall back to p2c rather
  // than stalling.
  EXPECT_GT(r.economy.priced_dispatches + r.economy.market_fallbacks, 0u);
}

}  // namespace
}  // namespace digruber::economy
