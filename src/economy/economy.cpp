#include "digruber/economy/economy.hpp"

#include <algorithm>
#include <cmath>

namespace digruber::economy {
namespace {

/// Congestion price coefficients: base + utilization * u + wait * w_s.
constexpr double kPriceBase = 1.0;
constexpr double kPriceUtilization = 4.0;
constexpr double kPriceWait = 0.05;

}  // namespace

double quote_price(double utilization, double est_wait_s) {
  const double u = std::clamp(utilization, 0.0, 1.0);
  const double w = std::max(0.0, est_wait_s);
  return kPriceBase + kPriceUtilization * u + kPriceWait * w;
}

CreditBank::CreditBank(const EconomyOptions& options,
                       std::vector<std::pair<VoId, double>> shares)
    : options_(options) {
  double total = 0;
  for (const auto& [vo, fraction] : shares) total += std::max(0.0, fraction);
  const double scale = total > 0 ? 1.0 / total : 0.0;
  const double epoch_cpu_seconds =
      options_.capacity_cpus * options_.epoch.to_seconds();
  for (const auto& [vo, fraction] : shares) {
    Ledger& ledger = ledgers_[vo];
    ledger.fair_share = std::max(0.0, fraction) * scale * epoch_cpu_seconds;
    ledger.balance = options_.initial_credit_epochs * ledger.fair_share;
    initial_total_ += ledger.balance;
  }
}

double CreditBank::allowance(const Ledger& ledger) const {
  return ledger.fair_share + std::max(0.0, ledger.balance);
}

void CreditBank::charge(VoId vo, double cpu_seconds, sim::Time now) {
  roll_to(now);
  auto it = ledgers_.find(vo);
  if (it == ledgers_.end()) return;
  it->second.used_epoch += std::max(0.0, cpu_seconds);
}

bool CreditBank::wins_arbitration(VoId vo) const {
  // Contenders are the VOs over their allowance this epoch; `vo` wins
  // when it precedes every other contender in severity-then-credit order.
  for (const auto& [other, ledger] : ledgers_) {
    if (other == vo) continue;
    if (ledger.used_epoch <= allowance(ledger)) continue;
    if (!precedes(vo, other)) return false;
  }
  return true;
}

Admit CreditBank::admit(VoId vo, sim::Time now, double free_fraction) {
  roll_to(now);
  auto it = ledgers_.find(vo);
  if (it == ledgers_.end()) return Admit::kWithinShare;
  Ledger& ledger = it->second;
  if (ledger.used_epoch <= allowance(ledger)) return Admit::kWithinShare;
  // Over allowance the VO's credit is spent for this epoch: admission is
  // denied — over-use is always paid for, which is what makes honest
  // demand reporting the dominant strategy. The one valve is bounded work
  // conservation: while the grid still has idle capacity, the arbitration
  // winner (best severity-then-credit standing among the over-allowance
  // contenders) may burst on, but never past the credit-cap ceiling —
  // the same bound the balance clamp enforces at settlement.
  const double ceiling = kCreditCapEpochs * ledger.fair_share;
  if (ledger.used_epoch < ceiling &&
      free_fraction >= options_.scarce_free_fraction && wins_arbitration(vo)) {
    ++ledger.grace_admissions;
    return Admit::kGrace;
  }
  ++ledger.denials;
  return Admit::kDenied;
}

bool CreditBank::precedes(VoId a, VoId b) const {
  auto severity = [&](VoId vo) {
    auto it = ledgers_.find(vo);
    if (it == ledgers_.end()) return 0.0;
    const Ledger& ledger = it->second;
    return ledger.fair_share > 0 ? ledger.used_epoch / ledger.fair_share
                                 : ledger.used_epoch;
  };
  const double sa = severity(a);
  const double sb = severity(b);
  if (sa != sb) return sa < sb;
  const double ba = balance(a);
  const double bb = balance(b);
  if (ba != bb) return ba > bb;
  return a < b;
}

std::vector<VoId> CreditBank::arbitrate(
    const std::vector<std::pair<VoId, double>>& demands,
    double capacity_cpu_seconds, sim::Time now) {
  roll_to(now);
  std::vector<std::pair<VoId, double>> order = demands;
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& x, const auto& y) {
                     return precedes(x.first, y.first);
                   });
  std::vector<VoId> admitted;
  double remaining = capacity_cpu_seconds;
  for (const auto& [vo, demand] : order) {
    if (demand > remaining) continue;
    remaining -= demand;
    admitted.push_back(vo);
  }
  return admitted;
}

void CreditBank::roll_to(sim::Time now) {
  if (options_.epoch.us() <= 0) return;
  const std::int64_t epoch_index = now.us() / options_.epoch.us();
  while (current_epoch_ < epoch_index) {
    settle_one_epoch();
    ++current_epoch_;
    ++epochs_settled_;
  }
}

void CreditBank::settle_one_epoch() {
  // Zero-sum transfer: over-share VOs spend what their balance covers of
  // the overage; the pool flows to under-share VOs pro rata to deficit.
  double pool = 0;
  double deficit_total = 0;
  for (auto& [vo, ledger] : ledgers_) {
    const double overage = ledger.used_epoch - ledger.fair_share;
    if (overage > 0) {
      const double spend = std::min(overage, std::max(0.0, ledger.balance));
      ledger.balance -= spend;
      ledger.spent += spend;
      pool += spend;
    } else {
      deficit_total += -overage;
    }
  }
  if (deficit_total > 0 && pool > 0) {
    for (auto& [vo, ledger] : ledgers_) {
      const double deficit = ledger.fair_share - ledger.used_epoch;
      if (deficit <= 0) continue;
      const double earn = pool * (deficit / deficit_total);
      ledger.balance += earn;
      ledger.earned += earn;
    }
  } else {
    expired_pool_ += pool;
  }
  for (auto& [vo, ledger] : ledgers_) {
    const double cap = kCreditCapEpochs * ledger.fair_share;
    if (ledger.balance > cap) {
      ledger.expired_cap += ledger.balance - cap;
      ledger.balance = cap;
    }
    ledger.used_epoch = 0;
  }
}

void CreditBank::reset(sim::Time now) {
  initial_total_ = 0;
  expired_pool_ = 0;
  epochs_settled_ = 0;
  current_epoch_ =
      options_.epoch.us() > 0 ? now.us() / options_.epoch.us() : 0;
  for (auto& [vo, ledger] : ledgers_) {
    ledger.balance = options_.initial_credit_epochs * ledger.fair_share;
    ledger.used_epoch = 0;
    ledger.earned = ledger.spent = ledger.expired_cap = 0;
    ledger.denials = ledger.grace_admissions = 0;
    initial_total_ += ledger.balance;
  }
}

BankStats CreditBank::stats() const {
  BankStats stats;
  stats.epochs_settled = epochs_settled_;
  stats.initial_total = initial_total_;
  stats.expired_pool = expired_pool_;
  stats.ledgers.reserve(ledgers_.size());
  for (const auto& [vo, ledger] : ledgers_) {
    LedgerSnapshot snap;
    snap.vo = vo;
    snap.fair_share = ledger.fair_share;
    snap.balance = ledger.balance;
    snap.used_epoch = ledger.used_epoch;
    snap.earned = ledger.earned;
    snap.spent = ledger.spent;
    snap.expired_cap = ledger.expired_cap;
    snap.denials = ledger.denials;
    snap.grace_admissions = ledger.grace_admissions;
    stats.earned += ledger.earned;
    stats.spent += ledger.spent;
    stats.expired_cap += ledger.expired_cap;
    stats.denials += ledger.denials;
    stats.grace_admissions += ledger.grace_admissions;
    stats.ledgers.push_back(snap);
  }
  return stats;
}

BankImage CreditBank::image() const {
  BankImage image;
  image.current_epoch = current_epoch_;
  image.epochs_settled = epochs_settled_;
  image.initial_total = initial_total_;
  image.expired_pool = expired_pool_;
  image.ledgers.reserve(ledgers_.size());
  for (const auto& [vo, ledger] : ledgers_) {
    image.ledgers.push_back({vo, ledger.fair_share, ledger.balance,
                             ledger.used_epoch, ledger.earned, ledger.spent,
                             ledger.expired_cap, ledger.denials,
                             ledger.grace_admissions});
  }
  return image;
}

void CreditBank::restore(const BankImage& image) {
  current_epoch_ = image.current_epoch;
  epochs_settled_ = image.epochs_settled;
  initial_total_ = image.initial_total;
  expired_pool_ = image.expired_pool;
  ledgers_.clear();
  for (const BankLedgerImage& entry : image.ledgers) {
    Ledger& ledger = ledgers_[entry.vo];
    ledger.fair_share = entry.fair_share;
    ledger.balance = entry.balance;
    ledger.used_epoch = entry.used_epoch;
    ledger.earned = entry.earned;
    ledger.spent = entry.spent;
    ledger.expired_cap = entry.expired_cap;
    ledger.denials = entry.denials;
    ledger.grace_admissions = entry.grace_admissions;
  }
}

double CreditBank::balance(VoId vo) const {
  auto it = ledgers_.find(vo);
  return it == ledgers_.end() ? 0.0 : it->second.balance;
}

std::vector<std::pair<VoId, double>> shares_from_tree(
    const usla::AllocationTree& tree, std::size_t n_vos) {
  std::vector<std::pair<VoId, double>> shares;
  shares.reserve(n_vos);
  double claimed = 0;
  std::size_t unruled = 0;
  for (std::size_t i = 0; i < n_vos; ++i) {
    const VoId vo{i};
    const auto share = tree.vo_share(vo);
    const double fraction = share ? share->fraction() : -1.0;
    if (fraction >= 0) {
      claimed += fraction;
    } else {
      ++unruled;
    }
    shares.emplace_back(vo, fraction);
  }
  const double leftover = std::max(0.0, 1.0 - claimed);
  const double equal = unruled > 0
                           ? (leftover > 0 ? leftover / double(unruled)
                                           : 1.0 / double(n_vos))
                           : 0.0;
  for (auto& [vo, fraction] : shares) {
    if (fraction < 0) fraction = equal;
  }
  return shares;
}

}  // namespace digruber::economy
