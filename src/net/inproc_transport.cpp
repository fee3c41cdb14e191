#include "digruber/net/inproc_transport.hpp"

#include <utility>
#include <vector>

namespace digruber::net {

InProcTransport::~InProcTransport() {
  std::vector<std::shared_ptr<Mailbox>> boxes;
  {
    const std::scoped_lock lock(registry_mutex_);
    for (auto& [node, box] : mailboxes_) boxes.push_back(box);
    mailboxes_.clear();
  }
  for (auto& box : boxes) {
    {
      const std::scoped_lock lock(box->mutex);
      box->closing = true;
    }
    box->cv.notify_all();
    if (box->worker.joinable()) box->worker.join();
  }
}

NodeId InProcTransport::attach(Endpoint& endpoint) {
  const std::scoped_lock lock(registry_mutex_);
  const NodeId node(next_node_++);
  auto box = std::make_shared<Mailbox>(endpoint);
  box->worker = std::thread([this, raw = box.get()] { run_mailbox(*raw); });
  mailboxes_.emplace(node, std::move(box));
  return node;
}

void InProcTransport::detach(NodeId node) {
  std::shared_ptr<Mailbox> box;
  {
    const std::scoped_lock lock(registry_mutex_);
    const auto it = mailboxes_.find(node);
    if (it == mailboxes_.end()) return;
    box = it->second;
    mailboxes_.erase(it);
  }
  {
    const std::scoped_lock lock(box->mutex);
    box->closing = true;
  }
  box->cv.notify_all();
  if (box->worker.joinable()) box->worker.join();
}

bool InProcTransport::reattach(NodeId node, Endpoint& endpoint) {
  const std::scoped_lock lock(registry_mutex_);
  if (!node.valid() || node.value() >= next_node_) return false;  // never issued
  if (mailboxes_.count(node)) return false;                       // in use
  auto box = std::make_shared<Mailbox>(endpoint);
  box->worker = std::thread([this, raw = box.get()] { run_mailbox(*raw); });
  mailboxes_.emplace(node, std::move(box));
  return true;
}

void InProcTransport::send(Packet packet) {
  std::shared_ptr<Mailbox> box;
  {
    const std::scoped_lock lock(registry_mutex_);
    const auto it = mailboxes_.find(packet.dst);
    if (it == mailboxes_.end()) {
      // Unknown destination: drop, but never silently — crashed-host tests
      // and leak hunts read this counter.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    box = it->second;
  }
  {
    const std::scoped_lock lock(box->mutex);
    if (box->closing) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    {
      const std::scoped_lock idle(idle_mutex_);
      ++in_flight_;
    }
    box->queue.push_back(std::move(packet));
  }
  box->cv.notify_one();
}

void InProcTransport::run_mailbox(Mailbox& box) {
  for (;;) {
    Packet packet;
    {
      std::unique_lock lock(box.mutex);
      box.cv.wait(lock, [&] { return box.closing || !box.queue.empty(); });
      if (box.queue.empty()) return;  // closing and drained
      packet = std::move(box.queue.front());
      box.queue.pop_front();
    }
    box.endpoint.on_packet(std::move(packet));
    bool idle = false;
    {
      const std::scoped_lock lock(idle_mutex_);
      idle = --in_flight_ == 0;
    }
    if (idle) idle_cv_.notify_all();
  }
}

void InProcTransport::drain() {
  // Checking mailboxes one by one races with forwarding: a delivery can
  // enqueue onto a mailbox already seen idle, then go idle itself before
  // the pass reaches it. The transport-wide count has no such gap.
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

}  // namespace digruber::net
