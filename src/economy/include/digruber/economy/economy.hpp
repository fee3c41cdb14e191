#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/sim/time.hpp"
#include "digruber/usla/tree.hpp"

namespace digruber::economy {

/// How a decision point turns USLA shares into admission decisions.
///  - kProportional: the seed behavior — shares cap instantaneous usage
///    only (UslaEvaluator headroom), nothing meters usage over time.
///  - kKarma: a credit economy layered on the same shares — each epoch a
///    VO's fair share is priced in CPU-seconds; under-share VOs earn
///    credits from over-share VOs, and an over-share VO keeps brokering
///    only while its credits (plus idle capacity) cover the overage.
enum class Allocator : std::uint8_t { kProportional = 0, kKarma };

/// Balance ceiling in units of one epoch's fair share; credits above the
/// cap expire at settlement (bounds long-idle hoarding).
inline constexpr double kCreditCapEpochs = 4.0;

struct EconomyOptions {
  /// Master switch for the economy machinery at a decision point: price
  /// quoting and (when the allocator is kKarma) credit accounting. Off
  /// keeps every frame byte-identical to the seed.
  bool enabled = false;
  Allocator allocator = Allocator::kProportional;

  /// Settlement epoch: fair shares are metered per epoch and credits
  /// settle at epoch boundaries.
  sim::Duration epoch = sim::Duration::minutes(2);
  /// Initial endowment in epochs of fair share (liquidity so the first
  /// epoch is not a hard cliff).
  double initial_credit_epochs = 1.0;
  /// Below this grid free fraction the grid counts as scarce: over-
  /// allowance VOs are denied outright except the arbitration winner,
  /// who may still be admitted while any capacity remains idle.
  double scarce_free_fraction = 0.25;
  /// Grid CPU capacity backing the fair shares (injected by the
  /// harness; 0 disables the bank even when the allocator is kKarma).
  double capacity_cpus = 0.0;
};

/// Price a decision point quotes for placements through it, derived from
/// its own congestion signals (the same ones DpLoadHint carries):
/// 1 + 4 * utilization + 0.05 * est_wait_s, with utilization clamped to
/// [0, 1] and the wait to >= 0.
[[nodiscard]] double quote_price(double utilization, double est_wait_s);

/// Outcome of the karma admission gate for one brokering query.
enum class Admit : std::uint8_t {
  kWithinShare = 0,  // within fair share + credits: always admitted
  kGrace,            // over allowance, but won arbitration on an idle grid
  kDenied,           // over allowance under scarcity: not brokered
};

/// Point-in-time view of one VO's ledger (deterministic across runs with
/// the same seed and arrival trace).
struct LedgerSnapshot {
  VoId vo;
  double fair_share = 0;   // CPU-seconds per epoch
  double balance = 0;      // credits (CPU-seconds) carried across epochs
  double used_epoch = 0;   // CPU-seconds charged so far this epoch
  double earned = 0;       // lifetime credits earned at settlements
  double spent = 0;        // lifetime credits spent at settlements
  double expired_cap = 0;  // lifetime credits expired at the balance cap
  std::uint64_t denials = 0;
  std::uint64_t grace_admissions = 0;
};

/// Bank-wide totals plus per-VO ledgers, for reports and the chaos-soak
/// conservation invariant: spent == earned + expired_pool, and
/// sum(balance) == initial_total + earned - spent - expired_cap.
struct BankStats {
  std::uint64_t epochs_settled = 0;
  double initial_total = 0;  // sum of initial endowments
  double earned = 0;
  double spent = 0;
  double expired_pool = 0;  // spent credits no under-share VO could absorb
  double expired_cap = 0;   // credits expired at the balance cap
  std::uint64_t denials = 0;
  std::uint64_t grace_admissions = 0;
  std::vector<LedgerSnapshot> ledgers;  // ascending VO id
};

/// Serializable image of one VO ledger inside a BankImage.
struct BankLedgerImage {
  VoId vo{};
  double fair_share = 0;
  double balance = 0;
  double used_epoch = 0;
  double earned = 0;
  double spent = 0;
  double expired_cap = 0;
  std::uint64_t denials = 0;
  std::uint64_t grace_admissions = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & vo & fair_share & balance & used_epoch & earned & spent & expired_cap &
        denials & grace_admissions;
  }
};

/// Full-state image of a CreditBank, written into durable checkpoints.
/// Restoring an image makes the bank identical to the instant it was
/// taken; replayed charges then advance it exactly as the live bank did
/// (settlement is a pure function of charge order and times).
struct BankImage {
  std::int64_t current_epoch = 0;
  std::uint64_t epochs_settled = 0;
  double initial_total = 0;
  double expired_pool = 0;
  std::vector<BankLedgerImage> ledgers;  // ascending VO id

  template <class Archive>
  void serialize(Archive& ar) {
    ar & current_epoch & epochs_settled & initial_total & expired_pool & ledgers;
  }
};

/// Per-VO credit ledger with epoch settlement. All state advances
/// deterministically from (charge, admit) call order, so replicas fed the
/// same dispatch stream converge and repeated runs produce identical
/// ledgers.
///
/// Settlement is a zero-sum transfer: over-share VOs spend
/// min(overage, balance) into a pool that is redistributed to under-share
/// VOs proportionally to their deficits; whatever no deficit absorbs
/// expires (expired_pool). Balances are then clamped to
/// kCreditCapEpochs * fair_share (overflow recorded as expired_cap).
class CreditBank {
 public:
  /// `shares`: (vo, fraction of grid capacity), ascending VO id; fractions
  /// are normalized if they do not sum to 1.
  CreditBank(const EconomyOptions& options,
             std::vector<std::pair<VoId, double>> shares);

  /// Meter `cpu_seconds` of brokered usage against `vo` (settles any
  /// elapsed epochs first).
  void charge(VoId vo, double cpu_seconds, sim::Time now);

  /// Karma admission gate for one query. `free_fraction` is the grid's
  /// current believed-free fraction (the scarcity signal). Unknown VOs
  /// are not gated.
  [[nodiscard]] Admit admit(VoId vo, sim::Time now, double free_fraction);

  /// Deterministic severity-then-credit order: a precedes b when a has
  /// the lower used/fair severity this epoch, breaking ties by higher
  /// balance, then lower VO id. The arbitration order when demand
  /// exceeds capacity.
  [[nodiscard]] bool precedes(VoId a, VoId b) const;

  /// Batch arbitration: admit contenders in severity-then-credit order
  /// while their demands (CPU-seconds) fit in `capacity_cpu_seconds`.
  /// Returns the admitted VOs in arbitration order.
  [[nodiscard]] std::vector<VoId> arbitrate(
      const std::vector<std::pair<VoId, double>>& demands,
      double capacity_cpu_seconds, sim::Time now);

  /// Settle every epoch boundary passed since the last call.
  void roll_to(sim::Time now);

  /// Forget volatile state after a crash: balances return to the initial
  /// endowment and lifetime counters reset (the conservation invariant
  /// holds over the new lifetime).
  void reset(sim::Time now);

  [[nodiscard]] BankStats stats() const;
  [[nodiscard]] double balance(VoId vo) const;
  [[nodiscard]] std::uint64_t epochs_settled() const { return epochs_settled_; }

  /// Durable-state support: capture the full bank state for a checkpoint,
  /// and restore it verbatim during recovery replay.
  [[nodiscard]] BankImage image() const;
  void restore(const BankImage& image);

 private:
  struct Ledger {
    double fair_share = 0;  // CPU-seconds per epoch
    double balance = 0;
    double used_epoch = 0;
    double earned = 0;
    double spent = 0;
    double expired_cap = 0;
    std::uint64_t denials = 0;
    std::uint64_t grace_admissions = 0;
  };

  void settle_one_epoch();
  [[nodiscard]] double allowance(const Ledger& ledger) const;
  [[nodiscard]] bool wins_arbitration(VoId vo) const;

  EconomyOptions options_;
  std::map<VoId, Ledger> ledgers_;  // ordered: deterministic settlement
  std::int64_t current_epoch_ = 0;
  std::uint64_t epochs_settled_ = 0;
  double initial_total_ = 0;
  double expired_pool_ = 0;
};

/// Extract per-VO grid-capacity fractions from the USLA tree for VOs
/// 0..n_vos-1: the grid-wide vo_share rule when present, else an equal
/// split of what the ruled VOs leave unclaimed.
[[nodiscard]] std::vector<std::pair<VoId, double>> shares_from_tree(
    const usla::AllocationTree& tree, std::size_t n_vos);

}  // namespace digruber::economy
