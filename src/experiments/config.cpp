#include "digruber/experiments/config.hpp"

#include <optional>
#include <set>
#include <string>
#include <utility>

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

/// The parser's reads of the flat config. Every get_* records its key, so
/// the keys the parser reads are the only list of known keys; a value that
/// fails to convert is recorded (the first one wins) and the parse goes on,
/// so a key nobody read is still reported ahead of any bad value.
class KeyReader {
 public:
  explicit KeyReader(const Config& config) : config_(config) {}

  std::string get_string(const std::string& key, std::string fallback) {
    return read(&Config::get_string, key, std::move(fallback));
  }
  long get_int(const std::string& key, long fallback) {
    return read(&Config::get_int, key, fallback);
  }
  double get_double(const std::string& key, double fallback) {
    return read(&Config::get_double, key, fallback);
  }
  bool get_bool(const std::string& key, bool fallback) {
    return read(&Config::get_bool, key, fallback);
  }

  /// A parsed value, or `fallback` once its parse error is recorded.
  template <class T>
  T take(const Result<T>& parsed, T fallback) {
    if (parsed.ok()) return parsed.value();
    fail(parsed.error());
    return fallback;
  }

  /// The first key in the config that was never read, as an unknown key;
  /// failing that, the first recorded failure.
  [[nodiscard]] std::optional<std::string> error() const {
    for (const auto& [key, value] : config_.entries()) {
      if (!read_.count(key)) return "unknown config key: " + key;
    }
    if (!error_.empty()) return error_;
    return std::nullopt;
  }

 private:
  template <class T>
  T read(T (Config::*get)(const std::string&, T) const, const std::string& key,
         T fallback) {
    read_.insert(key);
    try {
      return (config_.*get)(key, fallback);
    } catch (const std::exception& e) {
      fail(e.what());
      return fallback;
    }
  }
  void fail(const std::string& error) {
    if (error_.empty()) error_ = error;
  }

  const Config& config_;
  std::set<std::string> read_;
  std::string error_;
};

}  // namespace

Result<ScenarioConfig> scenario_from_config(const Config& config) {
  using Fail = Result<ScenarioConfig>;
  KeyReader keys(config);
  ScenarioConfig out;
  // Every key is read unconditionally, so the reads below are the complete
  // list of known keys.
  out.name = keys.get_string("name", out.name);
  out.seed = std::uint64_t(keys.get_int("seed", long(out.seed)));

  out.n_dps = int(keys.get_int("dps", out.n_dps));
  out.profile = keys.take(parse_profile(keys.get_string("profile", "gt3")), out.profile);
  out.exchange_interval =
      sim::Duration::minutes(keys.get_double("exchange_minutes", 3.0));
  out.dissemination = keys.take(
      parse_dissemination(keys.get_string("dissemination", "usage")), out.dissemination);
  out.overlay_options.kind = keys.take(
      parse_overlay_kind(keys.get_string("overlay", "mesh")), out.overlay_options.kind);
  out.overlay_options.tree_degree =
      std::uint32_t(keys.get_int("overlay_degree",
                                 long(out.overlay_options.tree_degree)));
  out.overlay_options.gossip_fanout =
      std::uint32_t(keys.get_int("overlay_fanout",
                                 long(out.overlay_options.gossip_fanout)));
  out.overlay_options.superpeers =
      std::uint32_t(keys.get_int("overlay_superpeers",
                                 long(out.overlay_options.superpeers)));

  out.grid_scale = int(keys.get_int("grid_scale", out.grid_scale));
  out.background_util = keys.get_double("background_util", out.background_util);

  out.n_clients = int(keys.get_int("clients", out.n_clients));
  out.client_timeout = sim::Duration::seconds(keys.get_double("timeout_s", 60.0));
  out.think = sim::Duration::seconds(
      keys.get_double("think_s", out.think.to_seconds()));
  out.ramp_span = sim::Duration::seconds(keys.get_double("ramp_s", 0.0));
  out.selector = keys.get_string("selector", out.selector);

  out.duration = sim::Duration::minutes(keys.get_double("duration_minutes", 60.0));

  out.workload.n_vos = int(keys.get_int("vos", out.workload.n_vos));
  out.workload.groups_per_vo =
      int(keys.get_int("groups_per_vo", out.workload.groups_per_vo));
  out.workload.runtime_mean_s =
      keys.get_double("runtime_mean_s", out.workload.runtime_mean_s);
  out.workload.runtime_cv = keys.get_double("runtime_cv", out.workload.runtime_cv);
  out.workload.cpus_min = int(keys.get_int("cpus_min", out.workload.cpus_min));
  out.workload.cpus_max = int(keys.get_int("cpus_max", out.workload.cpus_max));
  out.workload.input_bytes_mean =
      std::uint64_t(keys.get_double("input_mb", 0.0) * 1e6);
  out.workload.output_bytes_mean =
      std::uint64_t(keys.get_double("output_mb", 0.0) * 1e6);
  out.workload.vo_skew = keys.get_double("vo_skew", out.workload.vo_skew);

  out.wan.min_latency_ms = keys.get_double("wan_min_ms", out.wan.min_latency_ms);
  out.wan.max_latency_ms = keys.get_double("wan_max_ms", out.wan.max_latency_ms);
  out.wan.bandwidth_bps =
      keys.get_double("wan_bandwidth_mbps", out.wan.bandwidth_bps / 1e6) * 1e6;
  out.wan.loss_rate = keys.get_double("wan_loss", out.wan.loss_rate);
  out.wan.envelope_factor =
      keys.get_double("envelope_factor", out.wan.envelope_factor);

  out.install_uslas = keys.get_bool("uslas", out.install_uslas);
  out.dynamic_provisioning =
      keys.get_bool("dynamic_provisioning", out.dynamic_provisioning);
  out.max_dynamic_dps = int(keys.get_int("max_dynamic_dps", out.max_dynamic_dps));
  out.saturation_response_s =
      keys.get_double("saturation_response_s", out.saturation_response_s);

  // Fault injection / failover: events ';'-separated on one line, e.g.
  //   fault_plan = at=120 crash dp=0; at=300 restart dp=0
  const std::string plan_text = keys.get_string("fault_plan", "");
  if (!plan_text.empty()) {
    out.fault_plan = keys.take(sim::FaultPlan::parse(plan_text), out.fault_plan);
  }
  out.enable_failover = keys.get_bool("failover", out.enable_failover);
  out.failover_backups =
      int(keys.get_int("failover_backups", out.failover_backups));
  out.attempt_timeout = sim::Duration::seconds(
      keys.get_double("attempt_timeout_s", out.attempt_timeout.to_seconds()));
  out.overload_control = keys.get_bool("overload", out.overload_control);

  // Dynamic membership: detector thresholds are multiples of the
  // exchange interval; join knobs are wall-clock seconds.
  out.membership = keys.get_bool("membership", out.membership);
  out.membership_options.suspect_after =
      keys.get_double("suspect_after", out.membership_options.suspect_after);
  out.membership_options.dead_after =
      keys.get_double("dead_after", out.membership_options.dead_after);
  out.membership_options.join_snapshot_timeout = sim::Duration::seconds(
      keys.get_double("join_timeout_s",
                      out.membership_options.join_snapshot_timeout.to_seconds()));
  out.membership_options.join_retry_backoff = sim::Duration::seconds(
      keys.get_double("join_backoff_s",
                      out.membership_options.join_retry_backoff.to_seconds()));

  // Partition tolerance: staleness/throttle knobs are wall-clock
  // seconds; checksums switch every endpoint to v3 (CRC-32C) frames.
  out.partition_tolerance =
      keys.get_bool("partition_tolerance", out.partition_tolerance);
  out.partition_options.staleness_threshold = sim::Duration::seconds(
      keys.get_double("staleness_s",
                      out.partition_options.staleness_threshold.to_seconds()));
  out.partition_options.delta_pull_min_gap = sim::Duration::seconds(
      keys.get_double("delta_pull_gap_s",
                      out.partition_options.delta_pull_min_gap.to_seconds()));
  out.frame_checksums = keys.get_bool("checksums", out.frame_checksums);

  // Economic brokering: `allocator = karma` turns on the credit banks,
  // `placement = market` the client-side bid/price path; either one
  // enables the price/bid wire extensions.
  out.economy_options.allocator = keys.take(
      parse_allocator(keys.get_string("allocator", "proportional")),
      out.economy_options.allocator);
  out.market_placement = keys.take(
      parse_placement(keys.get_string("placement", "p2c")), out.market_placement);
  out.economy_options.epoch = sim::Duration::seconds(keys.get_double(
      "economy_epoch_s", out.economy_options.epoch.to_seconds()));
  out.economy_options.initial_credit_epochs = keys.get_double(
      "initial_credit_epochs", out.economy_options.initial_credit_epochs);
  out.economy_options.scarce_free_fraction = keys.get_double(
      "scarce_free_fraction", out.economy_options.scarce_free_fraction);
  // Brokered capacity the banks ration, in CPUs (0 = the whole grid).
  // Entitlements only bind when demand can exceed a VO's share of this.
  out.economy_options.capacity_cpus = keys.get_double(
      "economy_capacity_cpus", out.economy_options.capacity_cpus);
  out.workload.strategic_vo =
      int(keys.get_int("strategic_vo", out.workload.strategic_vo));
  out.workload.strategic_factor =
      keys.get_double("strategic_factor", out.workload.strategic_factor);
  out.workload.budget_mean = keys.get_double("budget_mean", out.workload.budget_mean);
  out.workload.deadline_slack =
      keys.get_double("deadline_slack", out.workload.deadline_slack);

  // Durable decision points: WAL + checkpoint recovery; `request_ids`
  // additionally stamps selection reports for exactly-once dispatch.
  out.durability = keys.get_bool("durability", out.durability);
  out.durability_options.checkpoint_interval = sim::Duration::minutes(
      keys.get_double("checkpoint_minutes",
                      out.durability_options.checkpoint_interval.to_seconds() / 60.0));
  out.durability_options.dedup_window = std::size_t(
      keys.get_int("dedup_window", long(out.durability_options.dedup_window)));
  out.durability_options.disk.write_mb_per_s = keys.get_double(
      "disk_write_mb_s", out.durability_options.disk.write_mb_per_s);
  out.durability_options.disk.fsync_latency = sim::Duration::micros(std::int64_t(
      keys.get_double("disk_fsync_us",
                      double(out.durability_options.disk.fsync_latency.us()))));
  out.request_ids = keys.get_bool("request_ids", out.request_ids);

  if (const auto error = keys.error()) return Fail::failure(*error);

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
  if (out.economy_options.initial_credit_epochs < 0) {
    return Fail::failure("initial_credit_epochs must be >= 0");
  }
  if (out.economy_options.scarce_free_fraction < 0 ||
      out.economy_options.scarce_free_fraction > 1) {
    return Fail::failure("scarce_free_fraction must be in [0, 1]");
  }
  if (out.workload.strategic_vo >= out.workload.n_vos) {
    return Fail::failure("strategic_vo must be < vos");
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
  if (const Status<> plan = check_fault_plan(out); !plan.ok()) {
    return Fail::failure(plan.error());
  }
  return out;
}

}  // namespace digruber::experiments
