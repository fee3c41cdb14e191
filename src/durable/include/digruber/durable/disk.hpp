#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/sim/time.hpp"

namespace digruber::durable {

/// Latency model for a simulated local storage device. Latencies are
/// *accounted*, not blocking: every mutating call returns the sim-time cost
/// it would have taken, and the caller folds that into handler cost (or a
/// scheduled resume) so durability shows up in simulated time without the
/// event loop ever waiting on host I/O.
struct DiskOptions {
  /// Sequential append throughput for WAL writes.
  double write_mb_per_s = 200.0;
  /// Cost of one fsync barrier (amortized over the frames since the last).
  sim::Duration fsync_latency = sim::Duration::micros(500);
};

/// Byte counters for one device; all zero until the first durable write.
struct DiskCounters {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t log_truncations = 0;
  std::uint64_t torn_tails = 0;
  std::uint64_t bit_flips = 0;
};

/// A simulated storage device: an append-only log region plus an atomic
/// checkpoint slot (write-temp-then-rename semantics — a checkpoint write
/// either fully replaces the old image or leaves it untouched). The device
/// outlives crashes by construction: DecisionPoint::crash() wipes volatile
/// broker state but never touches its SimDisk, which is exactly the
/// asymmetry durable recovery exploits.
///
/// FaultPlan verbs map onto the three fault hooks:
///   - tear_tail(): chop a random number of bytes off the last append
///     (models power loss mid-write; the WAL scanner truncates the torn
///     frame on replay).
///   - corrupt_bit(): flip one random bit in previously-written bytes
///     (models media bit-rot; CRC framing detects it on replay).
///   - set_stall(k): multiply write/fsync/read latency by k until restored
///     (models a degraded device).
class SimDisk {
 public:
  SimDisk(DiskOptions options, std::uint64_t seed);

  /// Append bytes to the log. Returns the accounted write latency
  /// (throughput-proportional); durability is only guaranteed after the
  /// next fsync().
  sim::Duration append(std::span<const std::uint8_t> bytes);

  /// Barrier: everything appended so far is durable. Returns the accounted
  /// latency.
  sim::Duration fsync();

  /// Atomically replace the checkpoint slot (includes its own barrier).
  sim::Duration write_checkpoint(std::vector<std::uint8_t> image);

  /// Drop the log (called after a successful checkpoint).
  void truncate_log();

  /// Accounted cost of reading the full device state back during recovery.
  [[nodiscard]] sim::Duration read_all_cost() const;

  [[nodiscard]] const std::vector<std::uint8_t>& log() const { return log_; }
  [[nodiscard]] const std::vector<std::uint8_t>& checkpoint() const { return checkpoint_; }
  [[nodiscard]] bool empty() const { return log_.empty() && checkpoint_.empty(); }
  [[nodiscard]] const DiskCounters& counters() const { return counters_; }

  // --- Fault hooks (FaultPlan-driven) ---
  void tear_tail();
  void corrupt_bit();
  void set_stall(double factor);

 private:
  [[nodiscard]] sim::Duration scaled(sim::Duration d) const;

  DiskOptions options_;
  Rng rng_;
  std::vector<std::uint8_t> log_;
  std::vector<std::uint8_t> checkpoint_;
  std::size_t last_append_size_ = 0;
  double stall_factor_ = 1.0;
  DiskCounters counters_;
};

}  // namespace digruber::durable
