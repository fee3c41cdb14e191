#include "digruber/durable/disk.hpp"

#include <algorithm>

namespace digruber::durable {

namespace {

/// Sequential read throughput for recovery replay.
constexpr double kReadMbPerS = 800.0;

sim::Duration transfer_cost(std::size_t bytes, double mb_per_s) {
  if (mb_per_s <= 0) return sim::Duration::zero();
  const double us = double(bytes) / (mb_per_s * 1e6) * 1e6;
  return sim::Duration::micros(std::int64_t(us));
}

}  // namespace

SimDisk::SimDisk(DiskOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {}

sim::Duration SimDisk::scaled(sim::Duration d) const {
  return stall_factor_ == 1.0 ? d : d * stall_factor_;
}

sim::Duration SimDisk::append(std::span<const std::uint8_t> bytes) {
  log_.insert(log_.end(), bytes.begin(), bytes.end());
  last_append_size_ = bytes.size();
  ++counters_.appends;
  counters_.bytes_appended += bytes.size();
  return scaled(transfer_cost(bytes.size(), options_.write_mb_per_s));
}

sim::Duration SimDisk::fsync() {
  ++counters_.fsyncs;
  return scaled(options_.fsync_latency);
}

sim::Duration SimDisk::write_checkpoint(std::vector<std::uint8_t> image) {
  const std::size_t bytes = image.size();
  checkpoint_ = std::move(image);
  ++counters_.checkpoints_written;
  counters_.checkpoint_bytes += bytes;
  return scaled(transfer_cost(bytes, options_.write_mb_per_s) + options_.fsync_latency);
}

void SimDisk::truncate_log() {
  log_.clear();
  last_append_size_ = 0;
  ++counters_.log_truncations;
}

sim::Duration SimDisk::read_all_cost() const {
  return scaled(transfer_cost(log_.size() + checkpoint_.size(), kReadMbPerS));
}

void SimDisk::tear_tail() {
  if (log_.empty()) return;
  // Lose a random non-empty suffix of the most recent append (or of the
  // whole log if the append size is unknown) — exactly what power loss
  // mid-write leaves behind.
  const std::size_t window = last_append_size_ > 0
                                 ? std::min(last_append_size_, log_.size())
                                 : log_.size();
  const std::size_t lost = std::size_t(rng_.uniform_index(window)) + 1;
  log_.resize(log_.size() - lost);
  last_append_size_ = 0;
  ++counters_.torn_tails;
}

void SimDisk::corrupt_bit() {
  // Prefer the log (it is the frequently-rewritten region); fall back to the
  // checkpoint slot so the verb still bites on a freshly-truncated device.
  std::vector<std::uint8_t>* target = !log_.empty() ? &log_
                                      : !checkpoint_.empty() ? &checkpoint_
                                                             : nullptr;
  if (!target) return;
  const std::size_t byte = std::size_t(rng_.uniform_index(target->size()));
  const unsigned bit = unsigned(rng_.uniform_index(8));
  (*target)[byte] ^= std::uint8_t(1u << bit);
  ++counters_.bit_flips;
}

void SimDisk::set_stall(double factor) {
  stall_factor_ = factor >= 1.0 ? factor : 1.0;
}

}  // namespace digruber::durable
