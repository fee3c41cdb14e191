#include "digruber/digruber/infrastructure_monitor.hpp"

#include <utility>

#include "digruber/common/log.hpp"

namespace digruber::digruber {
namespace {

/// Minimum spacing between provisioning actions.
constexpr sim::Duration kActionCooldown = sim::Duration::minutes(5);

/// The monitor itself is a light service: signals are rare and tiny, so a
/// fast container keeps it from ever being the bottleneck.
net::ContainerProfile monitor_profile() {
  net::ContainerProfile p;
  p.name = "monitor";
  p.workers = 4;
  p.auth_cost = sim::Duration::millis(20);
  p.base_overhead = sim::Duration::millis(5);
  p.parse_cost_per_kb = sim::Duration::millis(2);
  p.serialize_cost_per_kb = sim::Duration::millis(2);
  return p;
}

}  // namespace

InfrastructureMonitor::InfrastructureMonitor(sim::Simulation& sim,
                                             net::Transport& transport,
                                             ProvisionHook hook)
    : sim_(sim), server_(sim, transport, monitor_profile()), hook_(std::move(hook)) {
  server_.register_method(kSaturation,
                          [this](std::span<const std::uint8_t> body, NodeId from) {
                            return handle_saturation(body, from);
                          });
}

net::Served InfrastructureMonitor::handle_saturation(
    std::span<const std::uint8_t> body, NodeId /*from*/) {
  SaturationSignal signal;
  if (!net::wire::decode(body, signal)) return {};
  ++signals_;
  ++signals_since_action_;
  log::debug("infra-monitor", "saturation from dp ", signal.from.value(),
             " avg response ", signal.avg_response_s, "s");

  const bool cooled =
      last_action_ == sim::Time::zero() ||
      sim_.now() - last_action_ >= kActionCooldown;
  if (signals_since_action_ >= kSignalsToAct && cooled && hook_) {
    ++actions_;
    signals_since_action_ = 0;
    last_action_ = sim_.now();
    hook_(signal);
  }
  return {};
}

}  // namespace digruber::digruber
