#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "digruber/net/transport.hpp"

namespace digruber::net {

/// Real multi-threaded transport: every endpoint gets a mailbox drained by
/// its own delivery thread. Exercises the exact protocol/serialization
/// code under true concurrency (used by the integration tests); no latency
/// model — delivery is immediate but asynchronous.
class InProcTransport final : public Transport {
 public:
  InProcTransport() = default;
  ~InProcTransport() override;

  InProcTransport(const InProcTransport&) = delete;
  InProcTransport& operator=(const InProcTransport&) = delete;

  NodeId attach(Endpoint& endpoint) override;
  void detach(NodeId node) override;
  bool reattach(NodeId node, Endpoint& endpoint) override;
  void send(Packet packet) override;

  /// Packets sent to a node that was never attached (or already detached).
  /// Mirrors SimTransport::packets_dropped() so tests can assert nothing
  /// was silently lost.
  [[nodiscard]] std::uint64_t packets_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Blocks until every packet sent so far, and every packet those
  /// deliveries sent in turn, has been delivered.
  void drain();

 private:
  struct Mailbox {
    explicit Mailbox(Endpoint& ep) : endpoint(ep) {}
    Endpoint& endpoint;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Packet> queue;
    bool closing = false;
    std::thread worker;
  };

  void run_mailbox(Mailbox& box);

  mutable std::mutex registry_mutex_;
  std::uint64_t next_node_ = 1;
  std::atomic<std::uint64_t> dropped_{0};
  // Packets queued or being delivered, transport-wide. A delivery's own
  // sends are counted before the delivery itself is uncounted, so the
  // count reaches zero only at true quiescence.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t in_flight_ = 0;  // guarded by idle_mutex_
  std::unordered_map<NodeId, std::shared_ptr<Mailbox>> mailboxes_;
};

}  // namespace digruber::net
