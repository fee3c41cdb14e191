// Layer probes. Each probe times calls into one layer's public functions,
// sized from the workload's own timed run (site count, records per
// exchange, queue depth, frame size, the run's query schedule), and turns
// the per-call cost into an estimated share of the run's host time:
// calls in the run x cost per call / wall_s. Nothing here instruments the
// program: the layers are measured from outside.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>

#include "digruber/digruber/durability.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/durable/disk.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/economy/economy.hpp"
#include "digruber/gruber/engine.hpp"
#include "digruber/gruber/selectors.hpp"
#include "digruber/net/rpc.hpp"
#include "digruber/net/sim_transport.hpp"
#include "digruber/net/wire/crc32c.hpp"
#include "digruber/net/wire/frame.hpp"
#include "digruber/overlay/overlay.hpp"
#include "digruber/workload/generator.hpp"
#include "perf.hpp"

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;
using dg::sim::Duration;
using dg::sim::Time;
namespace proto = dg::digruber;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a computed value observable, so the timed call is not elided.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Host time and call count of one timed round.
struct Timed {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  Timed& operator+=(const Timed& other) {
    seconds += other.seconds;
    calls += other.calls;
    return *this;
  }
  [[nodiscard]] double per_call() const { return calls ? seconds / double(calls) : 0.0; }
};

/// `calls` back-to-back calls of `fn(i)`, timed as one round.
template <class Fn>
Timed time_calls(std::uint64_t calls, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) fn(i);
  return Timed{seconds_since(t0), calls};
}

/// The probe rule: the median over `plan.batches` of the per-call cost,
/// each batch accumulating rounds until it has timed `plan.min_batch_s`.
template <class Round>
double per_call_s(const ProbePlan& plan, Round&& round) {
  std::vector<double> per_call;
  for (int b = 0; b < plan.batches; ++b) {
    Timed batch;
    do {
      batch += round();
    } while (batch.seconds < plan.min_batch_s);
    per_call.push_back(batch.per_call());
  }
  return median(per_call);
}

// ---------------------------------------------------------------- sim

/// Sized like the transport's packet-delivery closure, so std::function
/// allocates as it does for most events of a run.
struct Closure {
  std::array<std::uint64_t, 5> pad{};
};

/// Hold model: `depth` pending events, each rescheduling itself when it
/// fires, so dispatch runs at a constant queue depth.
class HoldModel {
 public:
  HoldModel(std::size_t depth, std::uint64_t seed)
      : rng_(seed), spread_us_(2 * depth + 1) {
    for (std::size_t i = 0; i < depth; ++i) arm();
  }

  /// Dispatch `events` events (schedule_at plus dispatch each).
  Timed dispatch(std::uint64_t events) {
    budget_ = events;
    const auto t0 = Clock::now();
    sim_.run();
    return Timed{seconds_since(t0), events};
  }

  dg::sim::Simulation& sim() { return sim_; }
  Duration random_delay() {
    return Duration::micros(1 + std::int64_t(rng_.uniform_index(spread_us_)));
  }

 private:
  void arm() {
    sim_.schedule_after(random_delay(), [this, closure = Closure{}] {
      keep(closure);
      fire();
    });
  }
  void fire() {
    if (--budget_ == 0) sim_.stop();
    arm();
  }

  dg::sim::Simulation sim_{1};
  dg::Rng rng_;
  std::uint64_t spread_us_;
  std::uint64_t budget_ = 0;
};

// ------------------------------------------------------------- gruber

dg::overlay::Options overlay_options(const dg::experiments::ScenarioConfig& config) {
  dg::overlay::Options options = config.overlay_options;
  if (options.seed == 0) options.seed = config.seed ^ 0x07E121A7ULL;  // as run_scenario
  return options;
}

dg::NodeId node_of(std::size_t dp) { return dg::NodeId(1000 + dp); }

/// A strategy for point `self` rebuilt over the full `n`-point roster.
std::unique_ptr<dg::overlay::Strategy> roster_strategy(const dg::overlay::Options& options,
                                                       std::size_t self, std::size_t n,
                                                       std::vector<dg::NodeId>& peers) {
  auto strategy = dg::overlay::make_strategy(options, dg::DpId(self));
  dg::overlay::View view;
  view.self = dg::DpId(self);
  peers.clear();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;
    view.peers.push_back({dg::DpId(j), node_of(j)});
    peers.push_back(node_of(j));
  }
  strategy->rebuild(view);
  return strategy;
}

/// Relay hops from every point to `viewer` over one round of the overlay's
/// push edges (1 everywhere under the mesh, -1 if unreachable). The viewer
/// is the point whose summed distance is the median, so its view lags like
/// a typical point's.
struct RelayPaths {
  std::size_t viewer = 0;
  std::vector<int> hops;
};

RelayPaths relay_paths(const dg::experiments::ScenarioConfig& config) {
  const std::size_t n = std::size_t(std::max(1, config.n_dps));
  const dg::overlay::Options options = overlay_options(config);
  std::vector<std::vector<std::size_t>> pushes(n);
  std::vector<dg::NodeId> peers, targets;
  for (std::size_t d = 0; d < n; ++d) {
    const auto strategy = roster_strategy(options, d, n, peers);
    targets.clear();
    strategy->select(1, peers, targets);
    for (const dg::NodeId t : targets) pushes[d].push_back(std::size_t(t.value() - 1000));
  }
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::size_t> frontier{s};
    dist[s][s] = 0;
    for (std::size_t k = 0; k < frontier.size(); ++k) {
      for (const std::size_t t : pushes[frontier[k]]) {
        if (t < n && dist[s][t] < 0) {
          dist[s][t] = dist[s][frontier[k]] + 1;
          frontier.push_back(t);
        }
      }
    }
  }
  std::vector<std::pair<long, std::size_t>> totals;
  for (std::size_t v = 0; v < n; ++v) {
    long total = 0;
    for (std::size_t s = 0; s < n; ++s) total += dist[s][v] < 0 ? long(n) : dist[s][v];
    totals.emplace_back(total, v);
  }
  std::sort(totals.begin(), totals.end());
  RelayPaths paths;
  paths.viewer = totals[n / 2].second;
  for (std::size_t s = 0; s < n; ++s) paths.hops.push_back(dist[s][paths.viewer]);
  return paths;
}

/// A fresh GRUBER engine on the workload's own grid, replaying the run's
/// hour at the run's selection schedule: every handled query becomes a
/// dispatch record at its completion time. The viewing point sees its own
/// records at once and a peer's after the exchange ticks its relay path
/// takes, so records that expire in flight never reach it, as in the run.
/// The viewer's share of the queries calls `candidates`. The
/// active-record population a query scans therefore matches the run's.
class EngineReplay {
 public:
  EngineReplay(const dg::experiments::ScenarioConfig& config, const RunSummary& run)
      : catalog_(dg::grid::VoCatalog::uniform(config.workload.n_vos,
                                              config.workload.groups_per_vo)),
        tree_(dg::usla::AllocationTree::build(
                  config.install_uslas ? dg::experiments::default_agreements(catalog_)
                                       : std::vector<dg::usla::Agreement>{},
                  catalog_)
                  .value()) {
    // Same construction order as run_scenario, so the same seed draws the
    // same topology and background load.
    dg::sim::Simulation sim(config.seed);
    dg::Rng topo_rng = sim.rng().fork();
    const auto spec = dg::grid::TopologySpec::osg_scaled(config.grid_scale, topo_rng);
    dg::grid::Grid grid(sim, spec);
    if (config.background_util > 0) {
      for (const auto& site : grid.sites()) {
        const double lo = std::max(0.0, config.background_util * 0.5);
        const double hi = std::min(0.95, config.background_util * 1.5);
        site->reserve_local(std::int32_t(topo_rng.uniform(lo, hi) *
                                         double(site->total_cpus())));
      }
    }
    bases_ = grid.snapshot_all();

    auto ids = std::make_shared<dg::workload::JobIdAllocator>();
    dg::workload::JobFactory jobs(config.workload, catalog_, ids,
                                  dg::Rng(config.seed ^ 0x9E7F0B3ULL));
    dg::Rng site_rng(config.seed ^ 0x51735ULL);
    const auto selector =
        dg::gruber::make_selector(config.selector, dg::Rng(config.seed ^ 0x5E1EC7ULL));
    const std::size_t n_dps = std::size_t(std::max(1, config.n_dps));
    const std::int64_t interval_us = std::max<std::int64_t>(1, config.exchange_interval.us());
    const RelayPaths paths = relay_paths(config);

    std::vector<std::int64_t> completions;
    completions.reserve(run.handled_spans.size());
    for (const auto& span : run.handled_spans) completions.push_back(span.second);
    std::sort(completions.begin(), completions.end());

    // Sites come from the workload's selector over the loads a point sees
    // at selection time, so records pile up on the sites the run favours
    // (which sets how many distinct VOs each site's scan meets).
    dg::gruber::GruberEngine chooser(catalog_, tree_);
    chooser.view().bootstrap(bases_);
    std::priority_queue<std::pair<std::int64_t, std::size_t>,
                        std::vector<std::pair<std::int64_t, std::size_t>>, std::greater<>>
        pending;  // (visible at, record index)
    for (std::size_t i = 0; i < completions.size(); ++i) {
      const std::int64_t done = completions[i];
      const Time when = Time::zero() + Duration::micros(done);
      while (!pending.empty() && pending.top().first <= done) {
        chooser.record(records_[pending.top().second].second);
        pending.pop();
      }
      const dg::grid::Job job = jobs.next(when);
      const std::size_t origin = i % n_dps;
      dg::gruber::DispatchRecord r;
      r.origin = dg::DpId(origin);
      r.seq = i;
      const auto site = selector->select(chooser.all_loads(when), job);
      r.site = site ? *site : dg::SiteId(site_rng.uniform_index(bases_.size()));
      r.vo = job.vo;
      r.group = job.group;
      r.user = job.user;
      r.cpus = job.cpus;
      r.when = when;
      r.est_runtime = job.runtime;
      // Every point ticks on the same interval grid; each relay hop waits
      // for the holder's next tick.
      const int hops = paths.hops[origin];
      std::int64_t visible = done;
      if (hops < 0) {
        visible = std::numeric_limits<std::int64_t>::max();
      } else if (hops > 0) {
        visible = (done / interval_us + hops) * interval_us;
      }
      records_.emplace_back(visible, r);
      pending.emplace(visible, i);
    }
    std::stable_sort(records_.begin(), records_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });

    for (std::size_t i = paths.viewer; i < run.handled_spans.size(); i += n_dps) {
      const std::int64_t issued = run.handled_spans[i].first;
      queries_.emplace_back(issued, jobs.next(Time::zero() + Duration::micros(issued)));
    }
  }

  [[nodiscard]] const std::vector<dg::grid::SiteSnapshot>& bases() const { return bases_; }
  [[nodiscard]] std::size_t record_count() const { return records_.size(); }
  [[nodiscard]] const dg::gruber::DispatchRecord& record(std::size_t i) const {
    return records_[i].second;
  }

  /// One replay of the hour. Query k's candidates and digest calls are
  /// timed into batch k % batches.
  struct Pass {
    std::vector<Timed> candidates;
    std::vector<Timed> digest;
    double active_per_site = 0.0;
  };
  Pass replay(int batches, Duration digest_lookback, Duration digest_slack) const {
    Pass pass;
    pass.candidates.resize(std::size_t(batches));
    pass.digest.resize(std::size_t(batches));
    dg::gruber::GruberEngine engine(catalog_, tree_);
    engine.view().bootstrap(bases_);
    std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>> expiry;
    double active_sum = 0.0;
    std::size_t next = 0;
    for (std::size_t k = 0; k < queries_.size(); ++k) {
      const std::int64_t now_us = queries_[k].first;
      while (next < records_.size() && records_[next].first <= now_us) {
        const dg::gruber::DispatchRecord& r = records_[next].second;
        engine.record(r);
        expiry.push(r.when.us() + r.est_runtime.us());
        ++next;
      }
      while (!expiry.empty() && expiry.top() <= now_us) expiry.pop();
      active_sum += double(expiry.size());

      const Time now = Time::zero() + Duration::micros(now_us);
      const std::size_t b = k % std::size_t(batches);
      auto t0 = Clock::now();
      const auto candidates = engine.candidates(queries_[k].second, now);
      pass.candidates[b] += Timed{seconds_since(t0), 1};
      keep(candidates);
      t0 = Clock::now();
      const auto digest = engine.view().digest(now - digest_lookback, now + digest_slack);
      pass.digest[b] += Timed{seconds_since(t0), 1};
      keep(digest);
    }
    if (!queries_.empty() && !bases_.empty()) {
      pass.active_per_site =
          active_sum / double(queries_.size()) / double(bases_.size());
    }
    return pass;
  }

  /// Record every replay record, in arrival order, into a fresh engine.
  Timed record_all() const {
    dg::gruber::GruberEngine engine(catalog_, tree_);
    engine.view().bootstrap(bases_);
    return time_calls(records_.size(),
                      [&](std::uint64_t i) { engine.record(records_[i].second); });
  }

 private:
  dg::grid::VoCatalog catalog_;
  dg::usla::AllocationTree tree_;
  std::vector<dg::grid::SiteSnapshot> bases_;
  std::vector<std::pair<std::int64_t, dg::gruber::DispatchRecord>> records_;
  std::vector<std::pair<std::int64_t, dg::grid::Job>> queries_;
};

struct Replayed {
  double candidates_s = 0.0;
  double digest_s = 0.0;
  double active_per_site = 0.0;
};

/// Replays until every batch of both timed calls holds `min_batch_s`.
Replayed replay_engine(const EngineReplay& replay, const ProbePlan& plan,
                       Duration lookback, Duration slack) {
  const std::size_t n = std::size_t(plan.batches);
  std::vector<Timed> candidates(n), digest(n);
  Replayed out;
  constexpr int kMaxPasses = 64;
  for (int pass_no = 0; pass_no < kMaxPasses; ++pass_no) {
    const EngineReplay::Pass pass = replay.replay(plan.batches, lookback, slack);
    if (pass_no == 0) out.active_per_site = pass.active_per_site;
    for (std::size_t b = 0; b < n; ++b) {
      candidates[b] += pass.candidates[b];
      digest[b] += pass.digest[b];
    }
    const auto full = [&](const std::vector<Timed>& batches) {
      return std::all_of(batches.begin(), batches.end(), [&](const Timed& t) {
        return t.seconds >= plan.min_batch_s;
      });
    };
    if (full(candidates) && full(digest)) break;
  }
  std::vector<double> c, d;
  for (std::size_t b = 0; b < n; ++b) {
    c.push_back(candidates[b].per_call());
    d.push_back(digest[b].per_call());
  }
  out.candidates_s = median(c);
  out.digest_s = median(d);
  return out;
}

}  // namespace

Metrics probe_layers(const dg::experiments::ScenarioConfig& config,
                     const RunSummary& run, const NetCounts& net,
                     const ProbePlan& plan) {
  Metrics m;
  const double wall = run.wall_s > 0 ? run.wall_s : 1.0;
  const std::uint64_t seed = config.seed;

  // --- sim: schedule_at + dispatch at the run's queue depth. Running jobs
  // each hold a completion event; every client holds a think or timeout
  // timer and every decision point an exchange timer.
  const std::size_t depth = std::size_t(
      (run.window_s > 0 ? run.grid_cpu_seconds / run.window_s : 0.0) +
      2.0 * double(config.n_clients) + double(config.n_dps));
  constexpr std::uint64_t kEventsPerRound = 20'000;
  HoldModel hold(depth, seed);
  const double event_s = per_call_s(plan, [&] { return hold.dispatch(kEventsPerRound); });
  const double cancel_s = per_call_s(plan, [&] {
    HoldModel fresh(depth, seed);
    std::vector<dg::sim::EventId> ids(kEventsPerRound);
    for (auto& id : ids) {
      id = fresh.sim().schedule_after(fresh.random_delay(), [c = Closure{}] { keep(c); });
    }
    return time_calls(ids.size(), [&](std::uint64_t i) { fresh.sim().cancel(ids[i]); });
  });
  const double sim_share = double(run.sim_events) * event_s / wall;
  m.push_back({"sim.events", double(run.sim_events), "count"});
  m.push_back({"sim.events_per_s", double(run.sim_events) / wall, "1/s"});
  m.push_back({"sim.event_ns", event_s * 1e9, "ns"});
  m.push_back({"sim.cancel_ns", cancel_s * 1e9, "ns"});
  m.push_back({"sim.busy_share_est", sim_share, "ratio"});

  // --- overlay: per-round target selection at the workload's point count.
  std::vector<dg::NodeId> peers;
  const auto strategy = roster_strategy(overlay_options(config), 0,
                                        std::size_t(std::max(1, config.n_dps)), peers);
  std::vector<dg::NodeId> targets;
  std::uint64_t round_no = 0;
  const double select_s = per_call_s(plan, [&] {
    return time_calls(10'000, [&](std::uint64_t) {
      targets.clear();
      strategy->select(round_no++, peers, targets);
      keep(targets);
    });
  });

  // --- gruber: candidates, record and digest on the replayed population.
  const EngineReplay replay(config, run);
  const bool sparse = config.overlay_options.kind != dg::overlay::Kind::kMesh;
  const Duration slack = config.partition_options.digest_slack;
  const Duration lookback =
      config.exchange_interval * (1.0 + double(strategy->ttl())) + slack;
  const Replayed engine = replay_engine(replay, plan, lookback, slack);
  const double record_s = per_call_s(plan, [&] { return replay.record_all(); });
  std::uint64_t digest_calls = 0;
  if (config.partition_tolerance) digest_calls += run.dp_queries;  // every reply
  if (config.partition_tolerance || sparse) {
    digest_calls += run.overlay_rounds + run.exchanges_received;
  }
  const double gruber_share =
      (double(run.dp_queries) * engine.candidates_s +
       double(run.selections + run.records_applied) * record_s) /
      wall;
  const double digest_share = double(digest_calls) * engine.digest_s / wall;
  m.push_back({"gruber.candidates_us", engine.candidates_s * 1e6, "us"});
  m.push_back({"gruber.active_records_per_site", engine.active_per_site, "count"});
  m.push_back({"gruber.record_ns", record_s * 1e9, "ns"});
  m.push_back({"gruber.digest_us", engine.digest_s * 1e6, "us"});
  m.push_back({"gruber.busy_share_est", gruber_share, "ratio"});
  m.push_back({"gruber.digest_busy_share_est", digest_share, "ratio"});

  // --- wire: codec at the run's message sizes, CRC at its mean frame.
  proto::GetSiteLoadsReply reply;
  for (const dg::grid::SiteSnapshot& base : replay.bases()) {
    dg::gruber::SiteLoad load;
    load.site = base.site;
    load.total_cpus = base.total_cpus;
    load.free_estimate = base.free_cpus;
    load.raw_free = base.free_cpus;
    load.queued = base.queued_jobs;
    reply.candidates.push_back(load);
  }
  const dg::net::Buffer reply_bytes = dg::net::wire::encode_buffer(reply);
  const double loads_encode_s = per_call_s(plan, [&] {
    return time_calls(200, [&](std::uint64_t) {
      const dg::net::Buffer encoded = dg::net::wire::encode_buffer(reply);
      keep(encoded);
    });
  });
  const double loads_decode_s = per_call_s(plan, [&] {
    return time_calls(200, [&](std::uint64_t) {
      proto::GetSiteLoadsReply out;
      keep(dg::net::wire::decode(reply_bytes.span(), out));
      keep(out);
    });
  });

  const std::uint64_t carried = run.records_applied + run.records_duplicate;
  const std::size_t per_exchange = std::max<std::size_t>(
      1, std::size_t(std::llround(run.exchanges_received
                                      ? double(carried) / double(run.exchanges_received)
                                      : 1.0)));
  proto::ExchangeMessage exchange;
  exchange.from = dg::DpId(1);
  for (std::size_t i = 0; i < per_exchange && i < replay.record_count(); ++i) {
    exchange.dispatches.push_back(replay.record(i));
  }
  const dg::net::Buffer exchange_bytes = dg::net::wire::encode_buffer(exchange);
  const double exchange_encode_s = per_call_s(plan, [&] {
    return time_calls(200, [&](std::uint64_t) {
      const dg::net::Buffer frame = dg::net::wire::make_frame(
          proto::kExchange, dg::net::wire::FrameKind::kOneWay, 1, exchange);
      keep(frame);
    });
  });
  const double exchange_decode_s = per_call_s(plan, [&] {
    return time_calls(200, [&](std::uint64_t) {
      proto::ExchangeMessage out;
      keep(dg::net::wire::decode(exchange_bytes.span(), out));
      keep(out);
    });
  });

  const std::size_t frame_size = std::max<std::size_t>(
      1, run.frames_encoded ? std::size_t(run.frame_bytes / run.frames_encoded) : 1);
  std::vector<std::uint8_t> frame(frame_size);
  dg::Rng fill(seed);
  for (auto& byte : frame) byte = std::uint8_t(fill.uniform_index(256));
  const double crc_s = per_call_s(plan, [&] {
    return time_calls(2'000, [&](std::uint64_t) { keep(dg::net::wire::crc32c(frame)); });
  });
  const double crc_s_per_kib = crc_s * 1024.0 / double(frame_size);
  const double wire_share =
      (double(run.dp_queries) * (loads_encode_s + loads_decode_s) +
       double(run.exchange_frames) * exchange_encode_s +
       double(run.exchanges_received) * exchange_decode_s) /
      wall;
  // Checksummed frames pay one CRC when built and one when parsed.
  const double crc_share =
      config.frame_checksums
          ? double(run.frame_bytes + net.delivered_bytes) / 1024.0 * crc_s_per_kib / wall
          : 0.0;
  m.push_back({"wire.site_loads_encode_us", loads_encode_s * 1e6, "us"});
  m.push_back({"wire.site_loads_decode_us", loads_decode_s * 1e6, "us"});
  m.push_back({"wire.exchange_encode_us", exchange_encode_s * 1e6, "us"});
  m.push_back({"wire.exchange_decode_us", exchange_decode_s * 1e6, "us"});
  m.push_back({"wire.crc32c_ns_per_kib", crc_s_per_kib * 1e9, "ns"});
  m.push_back({"wire.busy_share_est", wire_share, "ratio"});
  m.push_back({"wire.crc_busy_share_est", crc_share, "ratio"});

  // --- net: an RpcClient -> RpcServer echo over the simulated transport.
  {
    dg::sim::Simulation sim(seed);
    dg::net::SimTransport transport(sim, dg::net::WanModel(config.wan, seed));
    dg::net::RpcServer server(sim, transport, config.profile);
    server.register_typed<proto::GetSiteLoadsRequest, proto::Ack>(
        proto::kGetSiteLoads, [](const proto::GetSiteLoadsRequest&, dg::NodeId) {
          return std::pair{proto::Ack{}, Duration::zero()};
        });
    dg::net::RpcClient client(sim, transport);
    proto::GetSiteLoadsRequest request;
    request.vo = dg::VoId(1);
    std::uint64_t replies = 0;
    const double roundtrip_s = per_call_s(plan, [&] {
      return time_calls(1'000, [&](std::uint64_t) {
        client.call<proto::GetSiteLoadsRequest, proto::Ack>(
            server.node(), proto::kGetSiteLoads, request, Duration::seconds(60),
            [&replies](dg::Result<proto::Ack> ack) { replies += ack.ok(); });
        sim.run();
      });
    });
    keep(replies);
    m.push_back({"net.rpc_roundtrip_us", roundtrip_s * 1e6, "us"});
  }
  m.push_back({"net.packets", double(net.packets), "count"});
  m.push_back({"net.bytes", double(net.bytes), "B"});
  m.push_back({"net.drops", double(net.drops), "count"});
  m.push_back({"container.utilization", run.container_utilization, "ratio"});
  m.push_back({"container.sojourn_s", run.container_sojourn_s, "sim_s"});

  // --- digruber: decision-point and client counters of the run.
  const double carried_d = double(carried);
  m.push_back({"dp.queries", double(run.dp_queries), "count"});
  m.push_back({"dp.records_applied", double(run.records_applied), "count"});
  m.push_back({"dp.records_duplicate", double(run.records_duplicate), "count"});
  m.push_back({"dp.duplicate_ratio",
               carried ? double(run.records_duplicate) / carried_d : 0.0, "ratio"});
  m.push_back({"dp.exchange_bytes", double(run.exchange_bytes), "B"});
  m.push_back({"dp.accuracy", run.accuracy, "ratio"});
  m.push_back({"client.failovers", double(run.failovers), "count"});
  m.push_back({"client.retries", double(run.report_retries), "count"});
  m.push_back({"client.fallbacks", double(run.fallbacks), "count"});
  m.push_back({"usla.entitlement_breaches", double(run.entitlement_breaches), "count"});

  m.push_back({"overlay.select_us", select_s * 1e6, "us"});
  m.push_back({"overlay.mean_fanout", run.mean_fanout, "count"});

  // --- durable: one WAL append of the run's mean payload (a dispatch
  // frame's when the run kept no log).
  double durable_share = 0.0;
  {
    dg::durable::SimDisk disk(config.durability_options.disk, 1);
    std::size_t payload_size = dg::net::wire::encoded_size(proto::WalDispatch{});
    const std::size_t framing = dg::durable::kWalFrameHeader + 1;  // + type byte
    if (run.wal_appends && run.wal_bytes / run.wal_appends > framing) {
      payload_size = std::size_t(run.wal_bytes / run.wal_appends) - framing;
    }
    const std::vector<std::uint8_t> payload(payload_size, 0x5A);
    const double append_s = per_call_s(plan, [&] {
      if (disk.log().size() > (std::size_t(64) << 20)) disk.truncate_log();
      return time_calls(2'000, [&](std::uint64_t) {
        keep(dg::durable::wal_append(disk, 1, payload));
      });
    });
    durable_share = double(run.wal_appends) * append_s / wall;
    m.push_back({"durable.wal_appends", double(run.wal_appends), "count"});
    m.push_back({"durable.fsyncs", double(run.fsyncs), "count"});
    m.push_back({"durable.wal_append_us", append_s * 1e6, "us"});
    m.push_back({"durable.busy_share_est", durable_share, "ratio"});
  }

  // --- economy: the karma gate per query and arbitration at the VO count.
  double economy_share = 0.0;
  {
    dg::economy::EconomyOptions options = config.economy_options;
    options.enabled = true;
    options.allocator = dg::economy::Allocator::kKarma;
    if (options.capacity_cpus <= 0) options.capacity_cpus = double(run.total_cpus);
    const std::size_t n_vos = std::size_t(std::max(1, config.workload.n_vos));
    std::vector<std::pair<dg::VoId, double>> shares;
    std::vector<std::pair<dg::VoId, double>> demands;
    for (std::size_t v = 0; v < n_vos; ++v) {
      shares.emplace_back(dg::VoId(v), 1.0 / double(n_vos));
      demands.emplace_back(dg::VoId(v), double(1 + (v * 13) % 40) * 60.0);
    }
    dg::economy::CreditBank bank(options, shares);
    const Time now = Time::from_seconds(1.0);
    const double admit_s = per_call_s(plan, [&] {
      return time_calls(10'000, [&](std::uint64_t i) {
        const dg::VoId vo(i % n_vos);
        bank.charge(vo, 600.0, now);
        keep(bank.admit(vo, now, 0.5));
      });
    });
    const double arbitrate_s = per_call_s(plan, [&] {
      return time_calls(1'000, [&](std::uint64_t) {
        keep(bank.arbitrate(demands, options.capacity_cpus * 60.0, now));
      });
    });
    // Every query passes the gate and every applied record is charged:
    // counting both at the pair's cost bounds the layer from above.
    if (config.economy_options.allocator == dg::economy::Allocator::kKarma) {
      economy_share =
          double(run.dp_queries + run.selections + run.records_applied) * admit_s / wall;
    }
    m.push_back({"economy.charge_admit_ns", admit_s * 1e9, "ns"});
    m.push_back({"economy.arbitrate_us", arbitrate_s * 1e6, "us"});
    m.push_back({"economy.priced_dispatches", double(run.priced_dispatches), "count"});
    m.push_back({"economy.busy_share_est", economy_share, "ratio"});
  }

  m.push_back({"partition.degraded_refusals", double(run.degraded_refusals), "count"});
  m.push_back({"partition.delta_pulls", double(run.delta_pulls), "count"});

  const double attributed = sim_share + gruber_share + digest_share + wire_share +
                            crc_share + durable_share + economy_share;
  m.push_back({"host.unattributed_share", 1.0 - attributed, "ratio"});
  return m;
}

}  // namespace perf
