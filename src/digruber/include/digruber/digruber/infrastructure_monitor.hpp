#pragma once

#include <functional>
#include <map>

#include "digruber/digruber/protocol.hpp"
#include "digruber/net/rpc.hpp"

namespace digruber::digruber {

/// Distinct saturation signals the monitor requires before acting.
inline constexpr int kSignalsToAct = 2;

/// The third-party monitoring service of Section 5: decision points send
/// it saturation signals; it decides when the scheduling infrastructure
/// should be reconfigured (a new decision point added, or clients
/// rebalanced) and delegates the mechanics to a provisioning hook supplied
/// by the deployment (the experiment harness or a real control plane).
class InfrastructureMonitor {
 public:
  using ProvisionHook = std::function<void(const SaturationSignal&)>;

  InfrastructureMonitor(sim::Simulation& sim, net::Transport& transport,
                        ProvisionHook hook);

  [[nodiscard]] NodeId node() const { return server_.node(); }
  [[nodiscard]] std::uint64_t signals_received() const { return signals_; }
  [[nodiscard]] std::uint64_t actions_taken() const { return actions_; }

 private:
  net::Served handle_saturation(std::span<const std::uint8_t> body, NodeId from);

  sim::Simulation& sim_;
  net::RpcServer server_;
  ProvisionHook hook_;

  std::uint64_t signals_ = 0;
  std::uint64_t actions_ = 0;
  int signals_since_action_ = 0;
  sim::Time last_action_;
};

}  // namespace digruber::digruber
