// Quickstart: the smallest complete DI-GRUBER deployment.
//
// Builds a five-site grid on the discrete-event substrate, stands up one
// decision point (a GRUBER engine behind a GT3-style Web-service
// container), binds a client to it, and brokers a handful of jobs — the
// full two-round-trip query path: fetch USLA-filtered site loads, run the
// client-side selector, report the selection back.
//
//   ./quickstart
#include <iostream>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
#include "digruber/net/sim_transport.hpp"

using namespace digruber;
namespace broker = ::digruber::digruber;

int main() {
  // 1. A simulation and a WAN to run it over.
  sim::Simulation sim(/*seed=*/2026);
  net::SimTransport transport(sim, net::WanModel(net::WanParams{}, 1));

  // 2. A small grid: five sites of varying size.
  grid::TopologySpec spec;
  spec.sites.push_back({"uchicago", {{64, 1.0}}});
  spec.sites.push_back({"anl", {{256, 1.2}}});
  spec.sites.push_back({"fnal", {{512, 1.0}}});
  spec.sites.push_back({"ucsd", {{128, 0.9}}});
  spec.sites.push_back({"bnl", {{96, 1.1}}});
  grid::Grid grid(sim, spec);

  // 3. VOs and USLAs: two collaborations with fair-share targets.
  grid::VoCatalog catalog;
  const VoId cms = catalog.add_vo("cms");
  const VoId atlas = catalog.add_vo("atlas");
  const GroupId higgs = catalog.add_group(cms, "cms.higgs");
  const GroupId top = catalog.add_group(atlas, "atlas.top");
  const UserId alice = catalog.add_user(higgs, "alice");
  catalog.add_user(top, "bob");

  const auto agreement = usla::parse_agreement(R"(
agreement quickstart-shares
context provider=grid consumer=physics
term cms: grid -> vo:cms cpu 60+
term atlas: grid -> vo:atlas cpu 40+
goal accuracy > 0.9
)");
  if (!agreement.ok()) {
    std::cerr << "usla parse error: " << agreement.error() << "\n";
    return 1;
  }
  const auto tree = usla::AllocationTree::build({agreement.value()}, catalog);
  if (!tree.ok()) {
    std::cerr << "usla build error: " << tree.error() << "\n";
    return 1;
  }

  // 4. One decision point, bootstrapped with the grid's current state.
  broker::DecisionPointOptions options;
  options.profile = net::ContainerProfile::gt3();
  broker::DecisionPoint dp(sim, transport, DpId(0), catalog, tree.value(), options);
  dp.bootstrap(grid.snapshot_all());

  // 5. A submission host bound to that decision point.
  broker::DiGruberClient client(
      sim, transport, ClientId(0), dp.node(),
      {SiteId(0), SiteId(1), SiteId(2), SiteId(3), SiteId(4)},
      gruber::make_selector("least-used", Rng(7)), Rng(8));

  // 6. Broker and run five jobs.
  for (int i = 0; i < 5; ++i) {
    grid::Job job;
    job.id = JobId(std::uint64_t(i));
    job.vo = i % 2 ? atlas : cms;
    job.group = i % 2 ? top : higgs;
    job.user = alice;
    job.cpus = 8;
    job.runtime = sim::Duration::minutes(30);

    client.schedule(std::move(job), [&](grid::Job job, broker::QueryOutcome out) {
      std::cout << "job " << job.id << " (vo " << catalog.vo_name(job.vo)
                << ") -> site '" << grid.site(out.site).name() << "' in "
                << out.response.to_seconds() << " s"
                << (out.handled_by_gruber ? "" : " [random fallback]") << "\n";
      grid.site(out.site).submit(std::move(job), [&](const grid::Job& done) {
        std::cout << "  job " << done.id << " finished at t=" << done.completed
                  << " (queued " << done.queue_time().to_seconds() << " s)\n";
      });
    });
  }

  // Run to a horizon: the decision point's periodic exchange timer keeps
  // the event queue non-empty, so bound the run and then drain.
  sim.run_until(sim::Time::zero() + sim::Duration::hours(2));
  dp.stop();
  sim.run();

  std::cout << "\ndecision point served " << dp.counters().queries
            << " queries, recorded " << dp.counters().selections
            << " selections\n"
            << "grid consumed " << grid.cpu_seconds_consumed() / 3600.0
            << " cpu-hours across " << grid.site_count() << " sites\n";
  return 0;
}
