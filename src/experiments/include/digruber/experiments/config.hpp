#pragma once

#include "digruber/common/config.hpp"
#include "digruber/common/result.hpp"
#include "digruber/experiments/scenario.hpp"

namespace digruber::experiments {

/// Build a ScenarioConfig from flat `key = value` configuration (file or
/// command-line overrides), so deployments can be described without
/// recompiling. Unknown keys are an error — silent typos in experiment
/// configs are how wrong graphs get published.
///
/// Recognized keys (defaults in parentheses):
///   name, seed (7)
///   dps (3), profile [gt3|gt4|gt4-c] (gt3), exchange_minutes (3),
///   dissemination [usage|usla|none] (usage),
///   overlay [mesh|tree|gossip|superpeer] (mesh),
///   overlay_degree (3), overlay_fanout (3), overlay_superpeers (0 = sqrt(n))
///   grid_scale (10), background_util (0.45)
///   clients (120), timeout_s (60), think_s (9), ramp_s (0 = half the run),
///   selector (top-k)
///   duration_minutes (60)
///   vos (10), groups_per_vo (10), runtime_mean_s (600), runtime_cv (0.5),
///   cpus_min (1), cpus_max (1), input_mb (0), output_mb (0), vo_skew (0)
///   wan_min_ms (5), wan_max_ms (160), wan_bandwidth_mbps (10),
///   wan_loss (0), envelope_factor (4)
///   uslas (true), dynamic_provisioning (false), max_dynamic_dps (10),
///   saturation_response_s (30)
Result<ScenarioConfig> scenario_from_config(const Config& config);

}  // namespace digruber::experiments
