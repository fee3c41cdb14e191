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
/// Recognized keys (defaults in parentheses), in the order the parser
/// reads them; the parser's reads are the only list of keys:
///   name (scenario), seed (7)
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
///   fault_plan (empty; ';'-separated events), failover (false),
///   failover_backups (2), attempt_timeout_s (10), overload (false)
///   membership (false), suspect_after (2.5), dead_after (4),
///   join_timeout_s (10), join_backoff_s (5)
///   partition_tolerance (false), staleness_s (120), delta_pull_gap_s (30),
///   checksums (false)
///   allocator [proportional|karma] (proportional), placement [p2c|market]
///   (p2c), economy_epoch_s (120), initial_credit_epochs (1),
///   scarce_free_fraction (0.25), economy_capacity_cpus (0 = whole grid),
///   strategic_vo (-1 = off), strategic_factor (10), budget_mean (0),
///   deadline_slack (0)
///   durability (false), checkpoint_minutes (10), dedup_window (1024),
///   disk_write_mb_s (200), disk_fsync_us (500), request_ids (false)
Result<ScenarioConfig> scenario_from_config(const Config& config);

}  // namespace digruber::experiments
