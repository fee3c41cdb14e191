// Physics campaign: the workload the paper's introduction motivates — an
// LHC-style collaboration running a staged analysis over a shared grid.
//
// Demonstrates:
//   * a USLA document giving three VOs different fair-share bounds,
//   * Euryale running a DagMan workflow (prepare -> N parallel analyses
//     -> merge) with file staging and replica registration,
//   * fault tolerance: a site is taken down mid-campaign and the affected
//     jobs re-plan onto other sites,
//   * a per-VO usage report against the agreed shares at the end.
//
//   ./physics_campaign
#include <iomanip>
#include <iostream>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
#include "digruber/euryale/dagman.hpp"
#include "digruber/net/sim_transport.hpp"

using namespace digruber;
namespace broker = ::digruber::digruber;

int main() {
  sim::Simulation sim(/*seed=*/42);
  net::SimTransport transport(sim, net::WanModel(net::WanParams{}, 3));

  // An OSG-2005-sized grid (30 sites, ~3000 CPUs).
  Rng topo_rng = sim.rng().fork();
  grid::Grid grid(sim, grid::TopologySpec::osg2005());

  // Three physics VOs with distinct USLA bounds: CMS holds a hard cap,
  // ATLAS a target (may burst), CDF only a lower-limit guarantee.
  grid::VoCatalog catalog;
  const VoId cms = catalog.add_vo("cms");
  const VoId atlas = catalog.add_vo("atlas");
  const VoId cdf = catalog.add_vo("cdf");
  const GroupId higgs = catalog.add_group(cms, "cms.higgs");
  catalog.add_group(atlas, "atlas.top");
  catalog.add_group(cdf, "cdf.qcd");
  const UserId alice = catalog.add_user(higgs, "alice");

  const auto agreement = usla::parse_agreement(R"(
agreement lhc-campaign
context provider=osg consumer=lhc
term cms: grid -> vo:cms cpu 45+
term atlas: grid -> vo:atlas cpu 35
term cdf: grid -> vo:cdf cpu 10-
term higgs: vo:cms -> group:cms.higgs cpu 70+
goal qtime < 600
goal accuracy > 0.9
)");
  const auto tree = usla::AllocationTree::build({agreement.value()}, catalog);
  if (!tree.ok()) {
    std::cerr << "usla error: " << tree.error() << "\n";
    return 1;
  }
  std::cout << "installed agreement:\n" << usla::format_agreement(agreement.value());

  // Broker + submission host + Euryale planner.
  broker::DecisionPointOptions options;
  options.profile = net::ContainerProfile::gt4();
  options.eval_cost_per_site = sim::Duration::millis(1);
  broker::DecisionPoint dp(sim, transport, DpId(0), catalog, tree.value(), options);
  dp.bootstrap(grid.snapshot_all());

  std::vector<SiteId> all_sites;
  for (std::size_t s = 0; s < grid.site_count(); ++s) all_sites.push_back(SiteId(s));
  broker::DiGruberClient client(sim, transport, ClientId(0), dp.node(), all_sites,
                                  gruber::make_selector("top-k", topo_rng.fork()),
                                  topo_rng.fork());
  euryale::ReplicaRegistry registry;
  euryale::PlannerOptions planner_options;
  planner_options.transfer_bandwidth_bps = 100e6;  // campaign data moves on fast links
  euryale::EuryalePlanner planner(sim, grid, client, registry, planner_options);

  // The campaign DAG: prepare -> 8 parallel analyses -> merge.
  auto make_job = [&](std::uint64_t id, double minutes, int cpus,
                      std::uint64_t in_mb, std::uint64_t out_mb) {
    grid::Job job;
    job.id = JobId(id);
    job.vo = cms;
    job.group = higgs;
    job.user = alice;
    job.cpus = cpus;
    job.runtime = sim::Duration::minutes(minutes);
    job.input_bytes = in_mb * 1'000'000;
    job.output_bytes = out_mb * 1'000'000;
    return job;
  };

  euryale::DagMan dag(planner);
  dag.add_node("prepare", make_job(1, 20, 4, 500, 200));
  for (int i = 0; i < 8; ++i) {
    const std::string name = "analysis-" + std::to_string(i);
    dag.add_node(name, make_job(std::uint64_t(10 + i), 45, 2, 200, 50));
    dag.add_edge("prepare", name);
  }
  dag.add_node("merge", make_job(99, 15, 8, 400, 100));
  for (int i = 0; i < 8; ++i) dag.add_edge("analysis-" + std::to_string(i), "merge");

  // Fault injection: the largest site dies one hour in, for 30 minutes.
  sim.schedule_after(sim::Duration::hours(1), [&] {
    grid::Site& victim = const_cast<grid::Site&>(grid.best_site());
    std::cout << "\n*** t=" << sim.now() << ": site '" << victim.name()
              << "' goes down for 30 minutes ***\n\n";
    victim.take_down(sim::Duration::minutes(30));
  });

  // Competing background VOs keep the grid busy while the campaign runs.
  Rng bg_rng = sim.rng().fork();
  std::uint64_t bg_id = 1000;
  sim::PeriodicTimer background(sim, sim::Duration::seconds(20), [&] {
    grid::Job job;
    job.id = JobId(bg_id++);
    job.vo = bg_rng.bernoulli(0.6) ? atlas : cdf;
    job.group = GroupId(job.vo == atlas ? 1 : 2);
    job.user = alice;
    job.cpus = int(bg_rng.uniform_int(1, 4));
    job.runtime = sim::Duration::minutes(bg_rng.uniform(10, 60));
    planner.run(std::move(job), [](const euryale::PlannerOutcome&) {});
  });

  bool campaign_done = false;
  dag.run([&](int succeeded, int failed, int blocked) {
    campaign_done = true;
    std::cout << "campaign finished at t=" << sim.now() << ": " << succeeded
              << " succeeded, " << failed << " failed, " << blocked
              << " blocked\n";
  });

  sim.run_until(sim::Time::zero() + sim::Duration::hours(6));
  background.stop();
  dp.stop();
  sim.run();

  if (!campaign_done) {
    std::cout << "campaign still running at the 6 h horizon\n";
  }

  // Final report: per-VO consumption vs agreed shares.
  std::cout << "\n--- campaign report ---\n";
  std::cout << "euryale: " << planner.jobs_succeeded() << " jobs succeeded, "
            << planner.replans() << " replans, " << planner.jobs_abandoned()
            << " abandoned, " << planner.bytes_staged() / 1'000'000
            << " MB staged\n";
  std::cout << "replica registry: " << registry.file_count() << " files; hottest:\n";
  for (const auto& [file, popularity] : registry.hottest(3)) {
    std::cout << "  " << file << " (" << popularity << " accesses)\n";
  }
  std::cout << "decision point: " << dp.counters().queries << " queries, "
            << dp.counters().selections << " selections recorded\n";

  std::map<VoId, std::int32_t> running;
  for (const auto& site : grid.sites()) {
    for (const VoId vo : {cms, atlas, cdf}) {
      running[vo] += site->running_for_vo(vo);
    }
  }
  std::cout << "cpu-hours consumed: "
            << std::fixed << std::setprecision(1)
            << grid.cpu_seconds_consumed() / 3600.0 << "\n";
  return 0;
}
