#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digruber/digruber/protocol.hpp"
#include "digruber/durable/disk.hpp"
#include "digruber/economy/economy.hpp"
#include "digruber/gruber/view.hpp"
#include "digruber/sim/time.hpp"

namespace digruber::digruber {

/// Durable-state configuration for one decision point. Off by default:
/// with enabled=false no disk exists, no WAL records are written, and
/// every run is byte-identical to the seed.
struct DurabilityOptions {
  bool enabled = false;
  /// Checkpoint cadence; each checkpoint truncates the WAL.
  sim::Duration checkpoint_interval = sim::Duration::minutes(10);
  /// Bounded exactly-once dedup window (request ids remembered).
  std::size_t dedup_window = 1024;
  /// Seed for the device's fault randomness (torn-tail length, bit-rot
  /// position); the harness derives it from (scenario seed, dp index).
  std::uint64_t disk_seed = 0;
  durable::DiskOptions disk{};
};

/// WAL frame types (the type byte inside a durable::wal frame).
enum class WalRecordType : std::uint8_t {
  kDispatch = 1,     ///< one applied dispatch record (own or learned)
  kEpochSettle = 2,  ///< economy epoch boundary observed (replay cross-check)
  kIncarnation = 3,  ///< membership incarnation bump at restart
};

/// Payload of a kDispatch frame. `applied_at` is the *local* apply time —
/// replay re-drives CreditBank::charge with it so the restored ledgers land
/// charges in the same epochs the live bank did. The request id rides only
/// on records born from a stamped ReportSelection, and rebuilds the
/// exactly-once dedup window on replay.
struct WalDispatch {
  gruber::DispatchRecord record{};
  sim::Time applied_at{};
  enum Tag : std::uint8_t { kRequestId = 1 };
  std::optional<RequestId> request_id;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & record & applied_at;
    ar.extensions(ext(kRequestId, request_id));
  }
};

/// Payload of a kEpochSettle frame: the bank's settlement counters at the
/// moment a charge observed an epoch boundary. Pure integrity cross-check —
/// replay recomputes settlement from charges and verifies it matches.
struct WalEpochSettle {
  std::uint64_t epochs_settled = 0;
  double expired_pool = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & epochs_settled & expired_pool;
  }
};

/// Payload of a kIncarnation frame, appended (and fsynced) on every durable
/// restart so the next recovery resumes from a strictly higher incarnation.
struct WalIncarnation {
  std::uint32_t incarnation = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & incarnation;
  }
};

/// One remembered (client, seq) -> decision entry of the dedup window.
struct DedupEntry {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  SiteId site{};  ///< the original placement, returned verbatim on retry

  template <class Archive>
  void serialize(Archive& ar) {
    ar & client & seq & site;
  }
};

/// Checkpoint payload (wrapped in durable::make_checkpoint_image). Captures
/// everything the WAL would otherwise have to retain: the active dispatch
/// window, the dedup window (oldest first), the bank image, and the
/// incarnation floor. Writing a checkpoint truncates the log.
struct DpCheckpoint {
  std::uint32_t incarnation = 0;
  sim::Time taken_at{};
  std::vector<gruber::DispatchRecord> active;
  std::vector<DedupEntry> dedup;
  std::optional<economy::BankImage> bank;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & incarnation & taken_at & active & dedup & bank;
  }
};

}  // namespace digruber::digruber
