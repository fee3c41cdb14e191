#include "digruber/experiments/config.hpp"

#include <set>
#include <string>

namespace digruber::experiments {
namespace {

Result<net::ContainerProfile> parse_profile(const std::string& name) {
  if (name == "gt3") return net::ContainerProfile::gt3();
  if (name == "gt4") return net::ContainerProfile::gt4();
  if (name == "gt4-c" || name == "gt4c") return net::ContainerProfile::gt4_c();
  return Result<net::ContainerProfile>::failure("unknown profile: " + name);
}

Result<digruber::Dissemination> parse_dissemination(const std::string& name) {
  if (name == "usage") return digruber::Dissemination::kUsageOnly;
  if (name == "usla") return digruber::Dissemination::kUslaAndUsage;
  if (name == "none") return digruber::Dissemination::kNone;
  return Result<digruber::Dissemination>::failure("unknown dissemination: " + name);
}

// Dissemination strategies live in src/overlay/.  `mesh` is the default
// full flood (byte-identical to the legacy path); tree/gossip/superpeer
// select a sparse strategy.
Result<overlay::Kind> parse_overlay_kind(const std::string& name) {
  if (name == "mesh") return overlay::Kind::kMesh;
  if (name == "tree") return overlay::Kind::kTree;
  if (name == "gossip") return overlay::Kind::kGossip;
  if (name == "superpeer") return overlay::Kind::kSuperPeer;
  return Result<overlay::Kind>::failure("unknown overlay: " + name);
}

Result<economy::Allocator> parse_allocator(const std::string& name) {
  if (name == "proportional") return economy::Allocator::kProportional;
  if (name == "karma") return economy::Allocator::kKarma;
  return Result<economy::Allocator>::failure("unknown allocator: " + name);
}

Result<bool> parse_placement(const std::string& name) {
  if (name == "p2c") return false;
  if (name == "market") return true;
  return Result<bool>::failure("unknown placement: " + name);
}

const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys{
      "name",          "seed",
      "dps",           "profile",
      "exchange_minutes", "dissemination",
      "overlay",       "grid_scale",
      "overlay_degree", "overlay_fanout",
      "overlay_superpeers",
      "background_util", "clients",
      "timeout_s",     "think_s",
      "ramp_s",        "selector",
      "duration_minutes", "vos",
      "groups_per_vo", "runtime_mean_s",
      "runtime_cv",    "cpus_min",
      "cpus_max",      "input_mb",
      "output_mb",     "vo_skew",
      "wan_min_ms",    "wan_max_ms",
      "wan_bandwidth_mbps", "wan_loss",
      "envelope_factor", "uslas",
      "dynamic_provisioning", "max_dynamic_dps",
      "saturation_response_s", "fault_plan",
      "failover",      "failover_backups",
      "attempt_timeout_s", "overload",
      "membership",    "suspect_after",
      "dead_after",    "join_timeout_s",
      "join_backoff_s", "partition_tolerance",
      "staleness_s",   "stale_discount",
      "delta_pull_gap_s", "checksums",
      "allocator",     "placement",
      "economy_epoch_s", "credit_cap_epochs",
      "initial_credit_epochs", "scarce_free_fraction",
      "price_base",    "price_utilization",
      "price_wait",    "economy_capacity_cpus",
      "strategic_vo",
      "strategic_factor", "budget_mean",
      "deadline_slack",  "durability",
      "checkpoint_minutes", "dedup_window",
      "disk_write_mb_s", "disk_fsync_us",
      "request_ids"};
  return keys;
}

}  // namespace

Result<ScenarioConfig> scenario_from_config(const Config& config) {
  using Fail = Result<ScenarioConfig>;
  for (const auto& [key, value] : config.entries()) {
    if (!known_keys().count(key)) return Fail::failure("unknown config key: " + key);
  }

  ScenarioConfig out;
  try {
    out.name = config.get_string("name", out.name);
    out.seed = std::uint64_t(config.get_int("seed", long(out.seed)));

    out.n_dps = int(config.get_int("dps", out.n_dps));
    const auto profile = parse_profile(config.get_string("profile", "gt3"));
    if (!profile.ok()) return Fail::failure(profile.error());
    out.profile = profile.value();
    out.exchange_interval =
        sim::Duration::minutes(config.get_double("exchange_minutes", 3.0));
    const auto dissemination =
        parse_dissemination(config.get_string("dissemination", "usage"));
    if (!dissemination.ok()) return Fail::failure(dissemination.error());
    out.dissemination = dissemination.value();
    const auto kind = parse_overlay_kind(config.get_string("overlay", "mesh"));
    if (!kind.ok()) return Fail::failure(kind.error());
    out.overlay_options.kind = kind.value();
    out.overlay_options.tree_degree =
        std::uint32_t(config.get_int("overlay_degree",
                                     long(out.overlay_options.tree_degree)));
    out.overlay_options.gossip_fanout =
        std::uint32_t(config.get_int("overlay_fanout",
                                     long(out.overlay_options.gossip_fanout)));
    out.overlay_options.superpeers =
        std::uint32_t(config.get_int("overlay_superpeers",
                                     long(out.overlay_options.superpeers)));

    out.grid_scale = int(config.get_int("grid_scale", out.grid_scale));
    out.background_util = config.get_double("background_util", out.background_util);

    out.n_clients = int(config.get_int("clients", out.n_clients));
    out.client_timeout = sim::Duration::seconds(config.get_double("timeout_s", 60.0));
    out.think = sim::Duration::seconds(
        config.get_double("think_s", out.think.to_seconds()));
    out.ramp_span = sim::Duration::seconds(config.get_double("ramp_s", 0.0));
    out.selector = config.get_string("selector", out.selector);

    out.duration = sim::Duration::minutes(config.get_double("duration_minutes", 60.0));

    out.workload.n_vos = int(config.get_int("vos", out.workload.n_vos));
    out.workload.groups_per_vo =
        int(config.get_int("groups_per_vo", out.workload.groups_per_vo));
    out.workload.runtime_mean_s =
        config.get_double("runtime_mean_s", out.workload.runtime_mean_s);
    out.workload.runtime_cv = config.get_double("runtime_cv", out.workload.runtime_cv);
    out.workload.cpus_min = int(config.get_int("cpus_min", out.workload.cpus_min));
    out.workload.cpus_max = int(config.get_int("cpus_max", out.workload.cpus_max));
    out.workload.input_bytes_mean =
        std::uint64_t(config.get_double("input_mb", 0.0) * 1e6);
    out.workload.output_bytes_mean =
        std::uint64_t(config.get_double("output_mb", 0.0) * 1e6);
    out.workload.vo_skew = config.get_double("vo_skew", out.workload.vo_skew);

    out.wan.min_latency_ms = config.get_double("wan_min_ms", out.wan.min_latency_ms);
    out.wan.max_latency_ms = config.get_double("wan_max_ms", out.wan.max_latency_ms);
    out.wan.bandwidth_bps =
        config.get_double("wan_bandwidth_mbps", out.wan.bandwidth_bps / 1e6) * 1e6;
    out.wan.loss_rate = config.get_double("wan_loss", out.wan.loss_rate);
    out.wan.envelope_factor =
        config.get_double("envelope_factor", out.wan.envelope_factor);

    out.install_uslas = config.get_bool("uslas", out.install_uslas);
    out.dynamic_provisioning =
        config.get_bool("dynamic_provisioning", out.dynamic_provisioning);
    out.max_dynamic_dps = int(config.get_int("max_dynamic_dps", out.max_dynamic_dps));
    out.saturation_response_s =
        config.get_double("saturation_response_s", out.saturation_response_s);

    // Fault injection / failover: events ';'-separated on one line, e.g.
    //   fault_plan = at=120 crash dp=0; at=300 restart dp=0
    const std::string plan_text = config.get_string("fault_plan", "");
    if (!plan_text.empty()) {
      auto plan = sim::FaultPlan::parse(plan_text);
      if (!plan.ok()) return Fail::failure(plan.error());
      out.fault_plan = plan.value();
    }
    out.enable_failover = config.get_bool("failover", out.enable_failover);
    out.failover_backups =
        int(config.get_int("failover_backups", out.failover_backups));
    out.attempt_timeout = sim::Duration::seconds(
        config.get_double("attempt_timeout_s", out.attempt_timeout.to_seconds()));
    out.overload_control = config.get_bool("overload", out.overload_control);

    // Dynamic membership: detector thresholds are multiples of the
    // exchange interval; join knobs are wall-clock seconds.
    out.membership = config.get_bool("membership", out.membership);
    out.membership_options.suspect_after =
        config.get_double("suspect_after", out.membership_options.suspect_after);
    out.membership_options.dead_after =
        config.get_double("dead_after", out.membership_options.dead_after);
    out.membership_options.join_snapshot_timeout = sim::Duration::seconds(
        config.get_double("join_timeout_s",
                          out.membership_options.join_snapshot_timeout.to_seconds()));
    out.membership_options.join_retry_backoff = sim::Duration::seconds(
        config.get_double("join_backoff_s",
                          out.membership_options.join_retry_backoff.to_seconds()));

    // Partition tolerance: staleness/throttle knobs are wall-clock
    // seconds; checksums switch every endpoint to v3 (CRC-32C) frames.
    out.partition_tolerance =
        config.get_bool("partition_tolerance", out.partition_tolerance);
    out.partition_options.staleness_threshold = sim::Duration::seconds(
        config.get_double("staleness_s",
                          out.partition_options.staleness_threshold.to_seconds()));
    out.partition_options.stale_discount = config.get_double(
        "stale_discount", out.partition_options.stale_discount);
    out.partition_options.delta_pull_min_gap = sim::Duration::seconds(
        config.get_double("delta_pull_gap_s",
                          out.partition_options.delta_pull_min_gap.to_seconds()));
    out.frame_checksums = config.get_bool("checksums", out.frame_checksums);

    // Economic brokering: `allocator = karma` turns on the credit banks,
    // `placement = market` the client-side bid/price path; either one
    // enables the price/bid wire extensions.
    const auto allocator =
        parse_allocator(config.get_string("allocator", "proportional"));
    if (!allocator.ok()) return Fail::failure(allocator.error());
    out.economy_options.allocator = allocator.value();
    const auto placement = parse_placement(config.get_string("placement", "p2c"));
    if (!placement.ok()) return Fail::failure(placement.error());
    out.market_placement = placement.value();
    out.economy_options.epoch = sim::Duration::seconds(config.get_double(
        "economy_epoch_s", out.economy_options.epoch.to_seconds()));
    out.economy_options.credit_cap_epochs = config.get_double(
        "credit_cap_epochs", out.economy_options.credit_cap_epochs);
    out.economy_options.initial_credit_epochs = config.get_double(
        "initial_credit_epochs", out.economy_options.initial_credit_epochs);
    out.economy_options.scarce_free_fraction = config.get_double(
        "scarce_free_fraction", out.economy_options.scarce_free_fraction);
    out.economy_options.price_base =
        config.get_double("price_base", out.economy_options.price_base);
    out.economy_options.price_utilization = config.get_double(
        "price_utilization", out.economy_options.price_utilization);
    out.economy_options.price_wait =
        config.get_double("price_wait", out.economy_options.price_wait);
    // Brokered capacity the banks ration, in CPUs (0 = the whole grid).
    // Entitlements only bind when demand can exceed a VO's share of this.
    out.economy_options.capacity_cpus = config.get_double(
        "economy_capacity_cpus", out.economy_options.capacity_cpus);
    out.workload.strategic_vo =
        int(config.get_int("strategic_vo", out.workload.strategic_vo));
    out.workload.strategic_factor =
        config.get_double("strategic_factor", out.workload.strategic_factor);
    out.workload.budget_mean =
        config.get_double("budget_mean", out.workload.budget_mean);
    out.workload.deadline_slack =
        config.get_double("deadline_slack", out.workload.deadline_slack);

    // Durable decision points: WAL + checkpoint recovery; `request_ids`
    // additionally stamps selection reports for exactly-once dispatch.
    out.durability = config.get_bool("durability", out.durability);
    out.durability_options.checkpoint_interval = sim::Duration::minutes(
        config.get_double("checkpoint_minutes",
                          out.durability_options.checkpoint_interval.to_seconds() / 60.0));
    out.durability_options.dedup_window = std::size_t(
        config.get_int("dedup_window", long(out.durability_options.dedup_window)));
    out.durability_options.disk.write_mb_per_s = config.get_double(
        "disk_write_mb_s", out.durability_options.disk.write_mb_per_s);
    out.durability_options.disk.fsync_latency = sim::Duration::micros(std::int64_t(
        config.get_double("disk_fsync_us",
                          double(out.durability_options.disk.fsync_latency.us()))));
    out.request_ids = config.get_bool("request_ids", out.request_ids);
  } catch (const std::exception& e) {
    return Fail::failure(e.what());
  }

  if (out.n_dps < 1) return Fail::failure("dps must be >= 1");
  if (out.n_clients < 1) return Fail::failure("clients must be >= 1");
  if (out.grid_scale < 1) return Fail::failure("grid_scale must be >= 1");
  if (out.workload.cpus_min < 1 || out.workload.cpus_max < out.workload.cpus_min) {
    return Fail::failure("bad cpus_min/cpus_max");
  }
  if (out.wan.loss_rate < 0 || out.wan.loss_rate >= 1) {
    return Fail::failure("wan_loss must be in [0, 1)");
  }
  if (out.failover_backups < 0) return Fail::failure("failover_backups must be >= 0");
  if (out.overlay_options.tree_degree < 1) {
    return Fail::failure("overlay_degree must be >= 1");
  }
  if (out.overlay_options.gossip_fanout < 1) {
    return Fail::failure("overlay_fanout must be >= 1");
  }
  if (out.economy_options.epoch <= sim::Duration::zero()) {
    return Fail::failure("economy_epoch_s must be > 0");
  }
  if (out.economy_options.credit_cap_epochs < 0 ||
      out.economy_options.initial_credit_epochs < 0) {
    return Fail::failure("credit epochs must be >= 0");
  }
  if (out.economy_options.scarce_free_fraction < 0 ||
      out.economy_options.scarce_free_fraction > 1) {
    return Fail::failure("scarce_free_fraction must be in [0, 1]");
  }
  if (out.workload.strategic_vo >= out.workload.n_vos) {
    return Fail::failure("strategic_vo must be < vos");
  }
  if (out.partition_options.stale_discount < 0 ||
      out.partition_options.stale_discount > 1) {
    return Fail::failure("stale_discount must be in [0, 1]");
  }
  if (out.durability) {
    if (out.durability_options.checkpoint_interval <= sim::Duration::zero()) {
      return Fail::failure("checkpoint_minutes must be > 0");
    }
    if (out.durability_options.dedup_window < 1) {
      return Fail::failure("dedup_window must be >= 1");
    }
    if (out.durability_options.disk.write_mb_per_s <= 0) {
      return Fail::failure("disk_write_mb_s must be > 0");
    }
  }
  if (!out.fault_plan.empty() &&
      out.fault_plan.max_dp_index() >= std::size_t(out.n_dps)) {
    return Fail::failure("fault_plan names a dp index >= dps");
  }
  if (!out.membership) {
    for (const sim::FaultEvent& event : out.fault_plan.events()) {
      if (event.kind == sim::FaultKind::kDpJoin ||
          event.kind == sim::FaultKind::kDpLeave) {
        return Fail::failure("fault_plan uses join/leave but membership is off");
      }
    }
  }
  return out;
}

}  // namespace digruber::experiments
