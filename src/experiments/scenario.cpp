#include "digruber/experiments/scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "digruber/common/log.hpp"
#include "digruber/digruber/client.hpp"
#include "digruber/digruber/infrastructure_monitor.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::experiments {

std::vector<usla::Agreement> default_agreements(const grid::VoCatalog& catalog) {
  std::vector<usla::Agreement> agreements;
  usla::Agreement agreement;
  agreement.name = "equal-shares";
  agreement.context_provider = "grid";
  agreement.context_consumer = "all-vos";

  const double vo_pct = 100.0 / double(catalog.vo_count());
  for (std::size_t v = 0; v < catalog.vo_count(); ++v) {
    const VoId vo(v);
    usla::ServiceTerm term;
    term.name = catalog.vo_name(vo) + "-share";
    term.provider = usla::EntityRef{usla::EntityRef::Kind::kGrid, ""};
    term.consumer = usla::EntityRef{usla::EntityRef::Kind::kVo, catalog.vo_name(vo)};
    term.share = usla::ShareSpec{vo_pct, usla::BoundKind::kTarget};
    agreement.terms.push_back(std::move(term));

    const auto& groups = catalog.groups_of(vo);
    const double group_pct = 100.0 / double(groups.size());
    for (const GroupId group : groups) {
      usla::ServiceTerm gterm;
      gterm.name = catalog.group_name(group) + "-share";
      gterm.provider = usla::EntityRef{usla::EntityRef::Kind::kVo, catalog.vo_name(vo)};
      gterm.consumer =
          usla::EntityRef{usla::EntityRef::Kind::kGroup, catalog.group_name(group)};
      gterm.share = usla::ShareSpec{group_pct, usla::BoundKind::kTarget};
      agreement.terms.push_back(std::move(gterm));
    }
  }
  agreement.goals.push_back(usla::Goal{"accuracy", ">", 0.9});
  agreements.push_back(std::move(agreement));
  return agreements;
}

double query_service_seconds(const net::ContainerProfile& profile,
                             std::size_t n_sites, sim::Duration eval_cost_per_site) {
  // The capacity model's own byte sizes, not those of the encoded protocol
  // frames (a SiteLoad encodes to 24 bytes, not 20): a small request, a
  // reply of 20 bytes per candidate site, and the short selection-report
  // exchange. tab3_grubsim and futurework_cws_core print results of them.
  const std::size_t loads_request = 128;
  const std::size_t loads_reply = 32 + n_sites * 20;
  const std::size_t report_request = 160;
  const std::size_t report_reply = 16;

  net::ContainerProfile p = profile;  // service_time is pure; reuse directly
  sim::Simulation scratch;
  net::ServiceContainer container(scratch, p);
  const sim::Duration loads = container.service_time(
      loads_request, loads_reply, eval_cost_per_site * double(n_sites));
  const sim::Duration report =
      container.service_time(report_request, report_reply, sim::Duration::millis(5));
  return (loads + report).to_seconds();
}

double dp_capacity_qps(const net::ContainerProfile& profile, std::size_t n_sites,
                       sim::Duration eval_cost_per_site) {
  const double per_query = query_service_seconds(profile, n_sites, eval_cost_per_site);
  return per_query > 0 ? double(profile.workers) / per_query : 0.0;
}

namespace {

/// Book-keeping shared by the tester operation closures.
struct Shared {
  sim::Simulation* sim = nullptr;
  grid::Grid* grid = nullptr;
  const usla::UslaEvaluator* evaluator = nullptr;
  workload::TraceLog trace;
  std::vector<std::shared_ptr<metrics::RequestSample>> samples;
  std::unordered_map<NodeId, std::uint32_t> dp_index;
  double window_s = 0.0;
  std::uint64_t jobs_started = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t entitlement_breaches = 0;
  std::int32_t entitlement_worst_excess = 0;
  /// Brokered granted CPU-seconds per VO (cpus x runtime at dispatch, jobs
  /// a decision point placed only) — the allocation the karma gate governs.
  std::vector<double> brokered_granted;
};

}  // namespace

double oracle_accuracy(const grid::Grid& grid,
                       const usla::UslaEvaluator& evaluator, VoId vo,
                       SiteId selected, std::int32_t believed_free) {
  const auto free_at = [](const grid::Site& site) {
    return site.is_down() ? 0 : site.free_cpus();
  };
  if (believed_free >= 0) {
    // Knowledge accuracy: how much of the free capacity the decision point
    // believed in actually exists. Fresh state -> 1.0; staleness (unseen
    // peer dispatches) inflates the belief and drags this down.
    if (believed_free == 0) return 1.0;
    return std::min(1.0, double(free_at(grid.site(selected))) /
                             double(believed_free));
  }
  // Blind (fallback) pick: rate it against the best admissible room.
  std::int32_t best_room = 0;
  std::int32_t selected_room = 0;
  for (const auto& site : grid.sites()) {
    const double cap = evaluator.cap_fraction(vo, site->id());
    const auto allowed = std::int32_t(cap * double(site->total_cpus()));
    const std::int32_t room =
        std::min(free_at(*site), std::max(0, allowed - site->running_for_vo(vo)));
    best_room = std::max(best_room, room);
    if (site->id() == selected) selected_room = room;
  }
  return best_room > 0 ? double(selected_room) / double(best_room) : 1.0;
}

Status<> check_fault_plan(const ScenarioConfig& config) {
  const sim::FaultPlan& plan = config.fault_plan;
  // Events in firing order (by time, ties in plan order): each join adds
  // the next point, so an event may name only the initial points and those
  // that joins before it added.
  std::size_t points = std::size_t(config.n_dps);
  for (const sim::FaultEvent& e : plan.events()) {
    if (e.kind == sim::FaultKind::kDpJoin) {
      ++points;
    } else if (const std::size_t dp = sim::max_dp_index(e); dp >= points) {
      return Status<>::failure("fault_plan names dp " + std::to_string(dp) +
                               " in '" + sim::describe(e) + "' but only " +
                               std::to_string(points) +
                               " points exist by then (dps + joins before it)");
    }
  }
  if (!config.membership) {
    for (const sim::FaultEvent& e : plan.events()) {
      if (e.kind == sim::FaultKind::kDpJoin || e.kind == sim::FaultKind::kDpLeave) {
        return Status<>::failure("fault_plan uses join/leave but membership is off");
      }
    }
  }
  return {};
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  if (config.n_dps < 1) throw std::invalid_argument("scenario needs >= 1 decision point");
  if (config.n_clients < 1) throw std::invalid_argument("scenario needs >= 1 client");
  if (const Status<> plan = check_fault_plan(config); !plan.ok()) {
    throw std::invalid_argument(plan.error());
  }
  // Market placement routes jobs across decision points by quoted price,
  // so it needs the multi-target attempt path (the legacy single-shot
  // client binds to exactly one point and never chooses).
  const bool failover = config.enable_failover || config.membership ||
                        config.market_placement || !config.fault_plan.empty();

  sim::Simulation sim(config.seed);
  net::SimTransport transport(sim, net::WanModel(config.wan, config.seed ^ 0xA11CEULL));

  // Install the caller's tracer (if any) for the duration of this run and
  // stamp events with this scenario's simulation clock. The session object
  // restores any previously-current tracer on scope exit.
  std::optional<trace::TraceSession> trace_session;
  if (config.tracer) {
    config.tracer->bind_clock(&sim);
    trace_session.emplace(*config.tracer);
    config.tracer->instant(trace::Category::kScenario, 0, "scenario.start", {},
                           std::int64_t(config.n_dps),
                           std::int64_t(config.n_clients));
  }

  // --- Emulated grid (OSG x scale) and VO catalog. ------------------------
  Rng topo_rng = sim.rng().fork();
  const grid::TopologySpec spec = grid::TopologySpec::osg_scaled(config.grid_scale, topo_rng);
  grid::Grid grid(sim, spec);
  if (config.background_util > 0) {
    for (const auto& site : grid.sites()) {
      const double lo = std::max(0.0, config.background_util * 0.5);
      const double hi = std::min(0.95, config.background_util * 1.5);
      const double frac = topo_rng.uniform(lo, hi);
      site->reserve_local(std::int32_t(frac * double(site->total_cpus())));
    }
  }
  const grid::VoCatalog catalog = grid::VoCatalog::uniform(
      config.workload.n_vos, config.workload.groups_per_vo);

  // --- USLAs. --------------------------------------------------------------
  std::vector<usla::Agreement> agreements;
  if (config.install_uslas) agreements = default_agreements(catalog);
  Result<usla::AllocationTree> tree = usla::AllocationTree::build(agreements, catalog);
  if (!tree.ok()) throw std::runtime_error("usla build failed: " + tree.error());

  // --- Decision points. ----------------------------------------------------
  const usla::UslaEvaluator oracle_evaluator(tree.value(), catalog);

  Shared shared;
  shared.sim = &sim;
  shared.grid = &grid;
  shared.evaluator = &oracle_evaluator;
  shared.window_s = config.duration.to_seconds();
  shared.brokered_granted.assign(catalog.vo_count(), 0.0);

  std::vector<std::unique_ptr<digruber::DecisionPoint>> dps;
  std::vector<std::unique_ptr<digruber::DiGruberClient>> clients;

  digruber::DecisionPointOptions dp_options;
  dp_options.profile = config.profile;
  dp_options.exchange_interval = config.exchange_interval;
  dp_options.dissemination = config.dissemination;
  dp_options.saturation_response_s = config.saturation_response_s;
  if (config.overload_control) dp_options.profile.overload_control = true;
  if (config.membership) {
    dp_options.membership = config.membership_options;
    dp_options.membership.enabled = true;
  }
  if (config.partition_tolerance) {
    dp_options.partition = config.partition_options;
    dp_options.partition.enabled = true;
  }
  if (config.frame_checksums) dp_options.frame_checksums = true;
  if (config.durability) {
    dp_options.durability = config.durability_options;
    dp_options.durability.enabled = true;
  }
  dp_options.overlay = config.overlay_options;
  if (dp_options.overlay.seed == 0) {
    // Derived arithmetically from the scenario seed (no rng draws), so
    // default runs stay bit-identical and gossip replays with the seed.
    dp_options.overlay.seed = config.seed ^ 0x07E121A7ULL;
  }
  dp_options.overlay_audit = config.overlay_audit;
  const bool economy_on =
      config.economy_options.enabled ||
      config.economy_options.allocator == economy::Allocator::kKarma ||
      config.market_placement;
  if (economy_on) {
    dp_options.economy = config.economy_options;
    dp_options.economy.enabled = true;
    if (dp_options.economy.capacity_cpus <= 0) {
      dp_options.economy.capacity_cpus = double(grid.total_cpus());
    }
  }

  std::unique_ptr<digruber::InfrastructureMonitor> monitor;
  auto reconnect_all = [&] {
    std::vector<digruber::DecisionPoint*> raw;
    raw.reserve(dps.size());
    for (auto& dp : dps) raw.push_back(dp.get());
    digruber::connect(raw);
  };
  auto add_dp = [&] {
    if (dp_options.durability.enabled) {
      // Per-DP disk seed: fault injection (bit rot) must hit independent
      // offsets on each decision point's device.
      dp_options.durability.disk_seed =
          config.seed ^ (0xD15CULL << 32) ^ std::uint64_t(dps.size());
    }
    auto dp = std::make_unique<digruber::DecisionPoint>(
        sim, transport, DpId(dps.size()), catalog, tree.value(), dp_options);
    dp->bootstrap(grid.snapshot_all());
    shared.dp_index.emplace(dp->node(), std::uint32_t(dps.size()));
    dps.push_back(std::move(dp));
  };
  // Runtime join: the new decision point gets NO grid bootstrap and no
  // static wiring — it fetches a state snapshot from a live seed, refuses
  // queries until the snapshot lands, then announces itself; the mesh
  // (and the client fleet) learn it through membership gossip.
  auto join_dp = [&] {
    std::vector<NodeId> seeds;
    for (const auto& dp : dps) {
      if (dp->running() && dp->serving()) seeds.push_back(dp->node());
    }
    if (dp_options.durability.enabled) {
      dp_options.durability.disk_seed =
          config.seed ^ (0xD15CULL << 32) ^ std::uint64_t(dps.size());
    }
    auto joiner = std::make_unique<digruber::DecisionPoint>(
        sim, transport, DpId(dps.size()), catalog, tree.value(), dp_options);
    shared.dp_index.emplace(joiner->node(), std::uint32_t(dps.size()));
    joiner->join(std::move(seeds));
    dps.push_back(std::move(joiner));
  };

  if (config.dynamic_provisioning) {
    monitor = std::make_unique<digruber::InfrastructureMonitor>(
        sim, transport, [&](const digruber::SaturationSignal& signal) {
          if (int(dps.size()) >= config.max_dynamic_dps) return;
          log::info("scenario", "provisioning decision point ", dps.size(),
                    " after saturation of dp ", signal.from.value());
          if (config.membership) {
            // Provision via the runtime-join path: clients learn the new
            // point from membership updates instead of a forced rebind
            // (rebinding onto a still-bootstrapping DP would only draw
            // drain NACKs).
            join_dp();
            return;
          }
          add_dp();
          reconnect_all();
          for (std::size_t i = 0; i < clients.size(); ++i) {
            clients[i]->rebind(dps[i % dps.size()]->node());
          }
        });
    dp_options.infrastructure_monitor = monitor->node();
  }

  for (int d = 0; d < config.n_dps; ++d) add_dp();
  reconnect_all();
  if (config.membership) {
    // Deployment-time member set: every initial decision point knows every
    // other as alive at incarnation 0.
    std::vector<digruber::MemberInfo> members;
    members.reserve(dps.size());
    for (const auto& dp : dps) {
      digruber::MemberInfo info;
      info.dp = dp->id();
      info.node = dp->node().value();
      members.push_back(info);
    }
    for (auto& dp : dps) dp->seed_membership(members);
  }

  // --- Client fleet. -------------------------------------------------------
  std::vector<SiteId> all_sites;
  all_sites.reserve(grid.site_count());
  for (std::size_t s = 0; s < grid.site_count(); ++s) all_sites.push_back(SiteId(s));

  auto ids = std::make_shared<workload::JobIdAllocator>();
  std::vector<workload::JobFactory> factories;
  factories.reserve(std::size_t(config.n_clients));

  diperf::Collector collector;
  diperf::Controller controller(sim, collector);

  digruber::ClientOptions client_options;
  client_options.timeout = config.client_timeout;
  if (failover) client_options.attempt_timeout = config.attempt_timeout;
  if (config.overload_control) client_options.overload_aware = true;
  if (config.membership) client_options.membership_aware = true;
  if (config.frame_checksums) client_options.frame_checksums = true;
  if (config.market_placement) client_options.market_placement = true;
  if (config.request_ids) client_options.request_ids = true;

  for (int c = 0; c < config.n_clients; ++c) {
    Rng client_rng = sim.rng().fork();
    // Static random binding of each submission host to one decision point.
    const std::size_t dp = client_rng.uniform_index(dps.size());
    // With failover, the next `failover_backups` points (deployment order,
    // wrapping) back the primary. Fault-free configs keep the one-DP
    // binding and the legacy single-shot client path.
    std::vector<NodeId> targets{dps[dp]->node()};
    if (failover) {
      const std::size_t backups =
          std::min(std::size_t(std::max(0, config.failover_backups)), dps.size() - 1);
      for (std::size_t b = 1; b <= backups; ++b) {
        targets.push_back(dps[(dp + b) % dps.size()]->node());
      }
    }
    clients.push_back(std::make_unique<digruber::DiGruberClient>(
        sim, transport, ClientId(std::uint64_t(c)), std::move(targets), all_sites,
        gruber::make_selector(config.selector, client_rng.fork()),
        client_rng.fork(), client_options));
    factories.emplace_back(config.workload, catalog, ids, client_rng.fork());
  }

  for (int c = 0; c < config.n_clients; ++c) {
    digruber::DiGruberClient* client = clients[std::size_t(c)].get();
    workload::JobFactory* factory = &factories[std::size_t(c)];
    auto op = [&shared, &sim, &grid, client, factory](std::function<void(bool)> done) {
      grid::Job job = factory->next(sim.now());
      const sim::Time t0 = sim.now();
      client->schedule(
          std::move(job), [&shared, &grid, client, t0, done = std::move(done)](
                              grid::Job job, digruber::QueryOutcome outcome) {
            // Trace entry for GRUB-SIM.
            workload::QueryTrace trace;
            trace.client = client->id();
            // Attribute the query to the decision point that actually
            // answered (differs from the primary after a failover).
            const auto dp_it = shared.dp_index.find(outcome.served_by.valid()
                                                        ? outcome.served_by
                                                        : client->decision_point());
            trace.dp_index = dp_it != shared.dp_index.end() ? dp_it->second : 0;
            trace.issued = t0;
            trace.response_s = outcome.response.to_seconds();
            trace.handled = outcome.handled_by_gruber;
            shared.trace.add(trace);

            // Metric sample; accuracy is sampled by the oracle *before*
            // this job occupies the site.
            auto sample = std::make_shared<metrics::RequestSample>();
            sample->issued_s = t0.to_seconds();
            sample->handled = outcome.handled_by_gruber;
            sample->response_s = outcome.response.to_seconds();
            grid::Site& selected = grid.site(outcome.site);
            sample->dispatched = true;
            sample->accuracy = oracle_accuracy(grid, *shared.evaluator, job.vo,
                                               outcome.site, outcome.believed_free);
            shared.samples.push_back(sample);

            // Ground-truth entitlement audit, sampled before this job
            // occupies the site: a brokered placement that pushes the VO
            // past its USLA cap means the admitting view could not see
            // capacity already committed elsewhere (the split-brain
            // over-commit signature — see usla::VoOverCommit).
            if (outcome.handled_by_gruber) {
              if (std::size_t(job.vo.value()) < shared.brokered_granted.size()) {
                shared.brokered_granted[std::size_t(job.vo.value())] +=
                    double(job.cpus) * job.runtime.to_seconds();
              }
              const std::int32_t cap = shared.evaluator->vo_cap_cpus(
                  outcome.site, job.vo, selected.total_cpus());
              const std::int32_t after =
                  selected.running_for_vo(job.vo) + job.cpus;
              if (after > cap) {
                ++shared.entitlement_breaches;
                shared.entitlement_worst_excess =
                    std::max(shared.entitlement_worst_excess, after - cap);
              }
            }

            job.handled_by_gruber = outcome.handled_by_gruber;
            job.accuracy = sample->accuracy;
            const double window_s = shared.window_s;
            Shared* sh = &shared;
            selected.submit(std::move(job), [sample, window_s, sh](const grid::Job& fin) {
              if (fin.state == grid::JobState::kCompleted) {
                sample->started = true;
                sample->qtime_s = fin.queue_time().to_seconds();
                sample->cpu_seconds_in_window = metrics::cpu_seconds_in_window(
                    fin.started.to_seconds(), fin.completed.to_seconds(), fin.cpus,
                    window_s);
                ++sh->jobs_completed;
                ++sh->jobs_started;
              }
            });
            done(outcome.handled_by_gruber);
          });
    };
    controller.add_tester(std::make_unique<diperf::Tester>(
        sim, ClientId(std::uint64_t(c)), std::move(op), config.think, collector));
  }

  // --- Fault plan. ---------------------------------------------------------
  // Indices in the plan name decision points by deployment order; the
  // applier resolves them to live objects and (both of) their transport
  // addresses at fire time, so restarts and provisioning stay consistent.
  if (!config.fault_plan.empty()) {
    log::info("scenario", "fault plan armed:\n", config.fault_plan.describe());
    config.fault_plan.arm(sim, [&](const sim::FaultEvent& event) {
      auto nodes_of = [&dps](std::size_t i) {
        return std::array<NodeId, 2>{dps[i]->node(), dps[i]->peer_node()};
      };
      auto each_link = [&](std::size_t a, std::size_t b, auto&& fn) {
        for (const NodeId na : nodes_of(a)) {
          for (const NodeId nb : nodes_of(b)) fn(na, nb);
        }
      };
      auto peers_of = [&dps](const sim::FaultEvent& e) {
        std::vector<std::size_t> peers;
        if (e.all_peers) {
          for (std::size_t i = 0; i < dps.size(); ++i) {
            if (i != e.dp) peers.push_back(i);
          }
        } else {
          peers.push_back(e.peer);
        }
        return peers;
      };
      if (auto* t = trace::current()) {
        t->instant(trace::Category::kScenario, 0, sim::trace_name(event.kind),
                   {}, std::int64_t(event.dp));
      }
      // check_fault_plan bounded each index the event names by the points
      // that exist when it fires, and dps only grows, so every index here
      // is in range.
      switch (event.kind) {
        case sim::FaultKind::kDpCrash:
          dps[event.dp]->crash();
          break;
        case sim::FaultKind::kDpRestart:
          dps[event.dp]->restart(grid.snapshot_all());
          break;
        case sim::FaultKind::kPartition:
          // Each partition event describes the complete island layout.
          // Unlisted decision points stay on island 0; so do clients,
          // unless the event asks for a client split — round-robin across
          // the islands, so both sides keep taking queries against
          // divergent views (genuine split-brain pressure).
          transport.heal_partition();
          for (std::size_t k = 0; k < event.islands.size(); ++k) {
            for (const std::size_t i : event.islands[k]) {
              for (const NodeId n : nodes_of(i)) {
                transport.set_island(n, std::uint32_t(k));
              }
            }
          }
          if (event.split_clients && !event.islands.empty()) {
            for (std::size_t c = 0; c < clients.size(); ++c) {
              transport.set_island(clients[c]->node(),
                                   std::uint32_t(c % event.islands.size()));
            }
          }
          break;
        case sim::FaultKind::kHeal:
          transport.heal_partition();
          break;
        case sim::FaultKind::kLinkDegrade: {
          net::LinkOverride degraded;
          degraded.latency_factor = event.latency_factor;
          degraded.extra_loss = event.extra_loss;
          for (const std::size_t p : peers_of(event)) {
            each_link(event.dp, p, [&](NodeId a, NodeId b) {
              transport.wan().set_link_override(a, b, degraded);
            });
          }
          break;
        }
        case sim::FaultKind::kLinkRestore:
          for (const std::size_t p : peers_of(event)) {
            each_link(event.dp, p, [&](NodeId a, NodeId b) {
              transport.wan().clear_link_override(a, b);
            });
          }
          break;
        case sim::FaultKind::kDpJoin:
          join_dp();
          break;
        case sim::FaultKind::kDpLeave:
          dps[event.dp]->leave();
          break;
        case sim::FaultKind::kOneWayPartition:
          // Asymmetric cut: event.dp's frames toward the peer(s) vanish,
          // but the reverse direction keeps flowing — the pathological
          // case for flooding, since the cut point keeps *hearing* rounds
          // while its own records silently stop propagating.
          for (const std::size_t p : peers_of(event)) {
            each_link(event.dp, p, [&](NodeId a, NodeId b) {
              transport.block_direction(a, b);
            });
          }
          break;
        case sim::FaultKind::kOneWayHeal:
          for (const std::size_t p : peers_of(event)) {
            each_link(event.dp, p, [&](NodeId a, NodeId b) {
              transport.unblock_direction(a, b);
            });
          }
          break;
        case sim::FaultKind::kCorrupt:
          transport.set_corruption(event.corrupt_rate);
          break;
        case sim::FaultKind::kDiskTorn:
          dps[event.dp]->inject_disk_tear();
          break;
        case sim::FaultKind::kDiskBitRot:
          dps[event.dp]->inject_disk_rot();
          break;
        case sim::FaultKind::kDiskStall:
          dps[event.dp]->set_disk_stall(event.latency_factor);
          break;
        case sim::FaultKind::kDiskRestore:
          dps[event.dp]->set_disk_stall(1.0);
          break;
      }
    });
  }

  // --- Ramp schedule and run. ----------------------------------------------
  const sim::Duration span = config.ramp_span > sim::Duration::zero()
                                 ? config.ramp_span
                                 : config.duration * 0.5;
  const sim::Duration spacing = span * (1.0 / double(config.n_clients));
  controller.schedule(sim::Duration::seconds(1), spacing,
                      sim::Time::zero() + config.duration);
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kScenario, 0, "ramp.begin", {},
               spacing.us(), span.us());
  }

  sim.run_until(sim::Time::zero() + config.duration);
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kScenario, 0, "scenario.window_end", {},
               std::int64_t(sim.events_processed()));
  }
  // Ground-truth USLA audit at window end, before the drain empties the
  // sites (post-drain everything is trivially within cap). Every scenario
  // reports this, not just the partition bench.
  std::uint64_t overcommits_final = 0;
  std::int32_t overcommit_worst = 0;
  for (const usla::VoOverCommit& oc :
       oracle_evaluator.over_commit_audit(grid.snapshot_all())) {
    ++overcommits_final;
    overcommit_worst = std::max(overcommit_worst, oc.excess());
  }
  for (auto& dp : dps) dp->stop();
  sim.run();  // drain in-flight queries and running jobs
  if (auto* t = trace::current()) {
    t->instant(trace::Category::kScenario, 0, "scenario.end", {},
               std::int64_t(sim.events_processed()),
               std::int64_t(dps.size()));
  }

  // --- Harvest. --------------------------------------------------------------
  ScenarioResult result;
  result.config = config;
  result.sites = grid.site_count();
  result.total_cpus = grid.total_cpus();
  result.jobs_completed = shared.jobs_completed;
  result.jobs_started = shared.jobs_started;
  result.entitlement_breaches = shared.entitlement_breaches;
  result.entitlement_worst_excess = shared.entitlement_worst_excess;
  result.overcommits_final = overcommits_final;
  result.overcommit_worst_excess = overcommit_worst;
  result.grid_cpu_seconds = grid.cpu_seconds_consumed();
  result.final_dps = int(dps.size());
  result.sim_events = sim.events_processed();

  metrics::MetricsAccumulator accumulator(shared.window_s, grid.total_cpus());
  for (const auto& sample : shared.samples) accumulator.add(*sample);
  result.handled = accumulator.compute(metrics::Slice::kHandled);
  result.not_handled = accumulator.compute(metrics::Slice::kNotHandled);
  result.all = accumulator.compute(metrics::Slice::kAll);

  for (const auto& dp : dps) {
    const digruber::DpCounters& c = dp->counters();
    DpStats stats;
    static_cast<digruber::DpCounters&>(stats) = c;
    const net::ServiceContainer& container = dp->server().container();
    stats.refused = container.refused();
    stats.container_utilization =
        container.utilization(sim::Time::zero() + config.duration);
    stats.mean_sojourn_s = dp->response_stats().mean();
    stats.submitted = container.submitted();
    stats.completed = container.completed();
    stats.shed_deadline = container.shed_deadline();
    stats.lifo_pickups = container.lifo_pickups();
    stats.aborted = container.aborted();
    stats.queue_residue =
        container.queue_depth() + std::size_t(container.busy_workers());
    if (const digruber::MembershipTable* table = dp->membership()) {
      stats.serving = dp->serving();
      stats.left = dp->left();
      stats.suspicions = table->counters().suspicions;
      stats.deaths_declared = table->counters().deaths;
      stats.refutations = table->counters().refutations;
      if (dp->serving_since().to_seconds() > 0.0) {
        stats.serving_since_s = dp->serving_since().to_seconds();
      }
      stats.membership_transitions = table->transitions();
    }
    if (const economy::CreditBank* bank = dp->bank()) {
      stats.economy = bank->stats();
    }
    if (const durable::SimDisk* disk = dp->disk()) {
      stats.last_recovery_s = dp->last_recovery_cost().to_seconds();
      const durable::DiskCounters& dc = disk->counters();
      stats.wal_appends = dc.appends;
      stats.wal_bytes = dc.bytes_appended;
      stats.fsyncs = dc.fsyncs;
      stats.checkpoints_written = dc.checkpoints_written;
      stats.log_truncations = dc.log_truncations;
      stats.disk_torn_tails = dc.torn_tails;
      stats.disk_bit_flips = dc.bit_flips;
    }
    stats.running = dp->running();
    if (config.overlay_audit) {
      stats.applied_keys = dp->applied_keys();
      stats.own_records = dp->own_record_log();
    }
    result.overlay.exchanges_sent += c.exchanges_sent;
    result.overlay.rounds += c.overlay_rounds;
    result.overlay.max_hops =
        std::max(result.overlay.max_hops, c.overlay_max_hops);
    result.overlay.relays_suppressed += c.overlay_relays_suppressed;
    result.overlay.rebuilds += c.overlay_rebuilds;
    result.overlay.grave_probes += c.overlay_grave_probes;
    result.overlay.bytes_sent += c.overlay_bytes_sent;
    result.dps.push_back(stats);
  }

  {
    // Fairness: delivered CPU time per VO / per group across all sites.
    // Every VO and group submits statistically identical load with equal
    // entitlements, so raw delivered time is directly comparable.
    std::map<VoId, double> per_vo;
    std::map<GroupId, double> per_group;
    for (const auto& site : grid.sites()) {
      for (const auto& [vo, seconds] : site->cpu_seconds_per_vo()) {
        per_vo[vo] += seconds;
      }
      for (const auto& [group, seconds] : site->cpu_seconds_per_group()) {
        per_group[group] += seconds;
      }
    }
    std::vector<double> vo_values, group_values;
    for (std::size_t v = 0; v < catalog.vo_count(); ++v) {
      vo_values.push_back(per_vo.count(VoId(v)) ? per_vo[VoId(v)] : 0.0);
    }
    for (std::size_t g = 0; g < catalog.group_count(); ++g) {
      group_values.push_back(per_group.count(GroupId(g)) ? per_group[GroupId(g)] : 0.0);
    }
    result.vo_fairness = metrics::fairness(vo_values);
    result.group_fairness = metrics::fairness(group_values);
    result.brokered_vo_fairness = metrics::fairness(shared.brokered_granted);
  }

  if (economy_on) {
    metrics::EconomyCounters& eco = result.economy;
    for (const auto& dp : dps) {
      if (const economy::CreditBank* bank = dp->bank()) {
        const economy::BankStats stats = bank->stats();
        eco.epochs_settled += stats.epochs_settled;
        eco.credits_initial += stats.initial_total;
        eco.credits_earned += stats.earned;
        eco.credits_spent += stats.spent;
        eco.credits_expired_pool += stats.expired_pool;
        eco.credits_expired_cap += stats.expired_cap;
      }
      const digruber::DpCounters& c = dp->counters();
      eco.credit_denials += c.credit_denials;
      eco.grace_admissions += c.grace_admissions;
      eco.priced_replies += c.priced_replies;
      eco.priced_selections += c.priced_selections;
    }
    for (const auto& client : clients) {
      const digruber::ClientCounters& c = client->counters();
      eco.priced_dispatches += c.priced_dispatches;
      eco.budget_rejections += c.budget_rejections;
      eco.market_fallbacks += c.market_fallbacks;
    }
  }

  {
    metrics::ResilienceCounters& res = result.resilience;
    for (const auto& client : clients) {
      const digruber::ClientCounters& c = client->counters();
      res.failovers += c.failovers;
      res.breaker_trips += c.breaker_trips;
      res.all_dps_down_fallbacks += c.all_dps_down_fallbacks;
    }
    for (const auto& dp : dps) {
      const digruber::DpCounters& c = dp->counters();
      res.dp_restarts += c.restarts;
      res.resync_records += c.pull(digruber::PullReason::kCatchUp).applied;
      res.catchups_served += c.pull(digruber::PullReason::kCatchUp).served;
      res.gap_resyncs += c.gap_resyncs;
    }
    res.drops_loss = transport.packets_dropped(net::DropCause::kLoss);
    res.drops_partition = transport.packets_dropped(net::DropCause::kPartition);
    res.drops_unknown_destination =
        transport.packets_dropped(net::DropCause::kUnknownDestination);
  }

  {
    metrics::OverloadCounters& ov = result.overload;
    for (const auto& dp : dps) {
      const net::ServiceContainer& container = dp->server().container();
      ov.submitted += container.submitted();
      ov.shed_queue_full += container.refused();
      ov.shed_deadline += container.shed_deadline();
      ov.lifo_pickups += container.lifo_pickups();
      ov.aborted += container.aborted();
    }
    for (const auto& client : clients) {
      const digruber::ClientCounters& c = client->counters();
      ov.overload_nacks += c.overload_nacks;
      ov.retry_after_honored += c.retry_after_honored;
      ov.retries_budget_denied += c.retries_budget_denied;
      ov.p2c_decisions += c.p2c_decisions;
      result.clients.queries += c.queries;
      result.clients.handled += c.handled;
      result.clients.fallbacks += c.fallbacks;
      result.clients.starvations += c.starvations;
      result.clients.report_retries += c.report_retries;
      result.clients.dedup_replies += c.dedup_replies;
    }
    for (const auto& site : grid.sites()) {
      if (site->free_cpus() < 0) ++result.sites_overcommitted;
    }
  }

  if (config.durability) {
    metrics::DurabilityCounters& dur = result.durability;
    for (const auto& dp : dps) {
      if (const durable::SimDisk* disk = dp->disk()) {
        const durable::DiskCounters& dc = disk->counters();
        dur.wal_appends += dc.appends;
        dur.wal_bytes += dc.bytes_appended;
        dur.fsyncs += dc.fsyncs;
        dur.checkpoints_written += dc.checkpoints_written;
        dur.log_truncations += dc.log_truncations;
        dur.torn_tails += dc.torn_tails;
        dur.bit_flips += dc.bit_flips;
      }
      const digruber::DpCounters& c = dp->counters();
      dur.recoveries += c.recoveries;
      dur.replay_frames += c.replay_frames;
      dur.replay_records += c.replay_records;
      dur.replay_dedup_entries += c.replay_dedup_entries;
      dur.replay_truncations += c.replay_truncations;
      dur.checkpoint_fallbacks += c.checkpoint_fallbacks;
      dur.replay_mismatches += c.replay_mismatches;
      dur.dedup_hits += c.dedup_hits;
      dur.duplicate_dispatches += c.duplicate_dispatches;
    }
  }

  if (config.membership) {
    metrics::MembershipCounters& mem = result.membership;
    for (const auto& dp : dps) {
      if (const digruber::MembershipTable* table = dp->membership()) {
        mem.suspicions += table->counters().suspicions;
        mem.deaths_declared += table->counters().deaths;
        mem.refutations += table->counters().refutations;
        mem.joins_observed += table->counters().joins_observed;
        mem.leaves_observed += table->counters().leaves_observed;
      }
      if (dp->join_started_at().to_seconds() > 0.0) {
        ++mem.joins_started;
        if (dp->serving_since().to_seconds() > 0.0) ++mem.joins_completed;
      }
      const digruber::DpCounters& c = dp->counters();
      mem.join_snapshot_retries += c.join_retries;
      mem.join_snapshot_records += c.pull(digruber::PullReason::kJoin).applied;
      mem.snapshots_served += c.pull(digruber::PullReason::kJoin).served;
      mem.drain_nacks += c.drain_nacks;
    }
    for (const auto& client : clients) {
      const digruber::ClientCounters& c = client->counters();
      mem.client_updates_applied += c.membership_updates_applied;
      mem.client_dps_added += c.dps_added;
      mem.client_dps_quarantined += c.dps_quarantined;
      mem.client_drain_redirects += c.drain_redirects;
    }
  }

  {
    metrics::PartitionCounters& pt = result.partition;
    for (const DpStats& stats : result.dps) {
      pt.digest_mismatches += stats.digest_mismatches;
      const digruber::DpCounters::PullCounts& delta =
          stats.pull(digruber::PullReason::kDelta);
      pt.delta_pulls_sent += delta.sent;
      pt.delta_pulls_served += delta.served;
      pt.delta_records_applied += delta.applied;
      pt.delta_conflicts += stats.delta_conflicts;
      pt.double_commits += stats.double_commits;
      pt.delta_converged += stats.delta_converged;
      pt.degraded_refusals += stats.degraded_refusals;
      pt.degraded_replies += stats.degraded_replies;
    }
    for (const auto& client : clients) {
      pt.client_degraded_redirects += client->counters().degraded_redirects;
      pt.client_degraded_hints += client->counters().degraded_hints_seen;
    }
    for (const auto& dp : dps) {
      pt.frames_bad_checksum +=
          dp->server().requests_bad(net::BadFrameCause::kChecksum);
    }
    pt.packets_corrupted = transport.packets_corrupted();
  }

  result.samples.reserve(shared.samples.size());
  for (const auto& sample : shared.samples) result.samples.push_back(*sample);

  result.model = diperf::fit_model(collector, 60.0, shared.window_s);
  result.collector = std::move(collector);
  result.trace = std::move(shared.trace);
  return result;
}

}  // namespace digruber::experiments
