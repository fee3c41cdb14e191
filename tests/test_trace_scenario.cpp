// End-to-end tracing: span propagation across the rpc layer and failover
// retries, fault markers, and the zero-perturbation guarantee (a traced
// run produces the identical simulation as an untraced one).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "digruber/experiments/scenario.hpp"
#include "digruber/trace/export.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::experiments {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.name = "trace-test";
  cfg.seed = 11;
  cfg.n_dps = 3;
  cfg.n_clients = 12;
  cfg.duration = sim::Duration::minutes(10);
  cfg.grid_scale = 1;
  cfg.workload.n_vos = 3;
  cfg.workload.groups_per_vo = 2;
  return cfg;
}

sim::Time at(double seconds) { return sim::Time::from_seconds(seconds); }

ScenarioConfig faulted_config() {
  ScenarioConfig cfg = small_config();
  cfg.fault_plan.add({.at = at(120), .kind = sim::FaultKind::kDpCrash, .dp = 0});
  cfg.fault_plan.add({.at = at(270), .kind = sim::FaultKind::kDpRestart, .dp = 0});
  cfg.fault_plan.add(
      {.at = at(360), .kind = sim::FaultKind::kPartition, .islands = {{0}, {1, 2}}});
  cfg.fault_plan.add({.at = at(450), .kind = sim::FaultKind::kHeal});
  return cfg;
}

TEST(TraceScenario, TracingDoesNotPerturbTheRun) {
  // Identical config with and without a tracer: every simulation-visible
  // number must match exactly. Tracing draws no randomness and schedules
  // no events, so even a traced run stays byte-reproducible.
  const ScenarioResult plain = run_scenario(faulted_config());

  trace::Tracer tracer;
  ScenarioConfig traced_cfg = faulted_config();
  traced_cfg.tracer = &tracer;
  const ScenarioResult traced = run_scenario(traced_cfg);

  EXPECT_EQ(plain.sim_events, traced.sim_events);
  EXPECT_EQ(plain.jobs_completed, traced.jobs_completed);
  EXPECT_EQ(plain.trace.entries(), traced.trace.entries());
  EXPECT_DOUBLE_EQ(plain.all.response_s, traced.all.response_s);
  EXPECT_DOUBLE_EQ(plain.all.accuracy, traced.all.accuracy);
  EXPECT_EQ(plain.resilience.failovers, traced.resilience.failovers);
  EXPECT_EQ(plain.resilience.drops_partition, traced.resilience.drops_partition);
  EXPECT_GT(tracer.total_recorded(), 0u);
}

TEST(TraceScenario, TracerUninstalledAfterRun) {
  trace::Tracer tracer;
  ScenarioConfig cfg = small_config();
  cfg.tracer = &tracer;
  run_scenario(cfg);
  EXPECT_EQ(trace::current(), nullptr);
}

TEST(TraceScenario, QuerySpansPropagateAcrossRpcFailover) {
  trace::Tracer tracer;
  ScenarioConfig cfg = faulted_config();
  cfg.tracer = &tracer;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_GT(r.resilience.failovers, 0u);

  // Find a query trace that needed more than one attempt (its primary was
  // down): it must carry a failover marker, and the rpc serve span of the
  // decision point that finally answered must be stitched into the SAME
  // trace id — that is the cross-process correlation the subsystem exists
  // to provide.
  trace::Tracer::Filter failovers;
  failovers.name = "query.failover";
  const std::vector<trace::TraceEvent> markers = tracer.query(failovers);
  ASSERT_FALSE(markers.empty());

  bool found_correlated = false;
  for (const trace::TraceEvent& marker : markers) {
    trace::Tracer::Filter in_trace;
    in_trace.trace = marker.trace;
    const std::vector<trace::TraceEvent> events = tracer.query(in_trace);

    std::size_t attempt_begins = 0;
    bool has_serve = false, has_net = false, has_dp_handler = false;
    std::set<std::uint64_t> actors_by_cat[std::size_t(trace::Category::kCount)];
    for (const trace::TraceEvent& e : events) {
      actors_by_cat[std::size_t(e.category)].insert(e.actor);
      const std::string name = e.name;
      if (name == "query.attempt" && e.kind == trace::EventKind::kBegin) {
        ++attempt_begins;
      }
      if (name == "rpc.serve") has_serve = true;
      if (name == "net.deliver" || name == "net.send") has_net = true;
      if (name == "dp.get_site_loads") has_dp_handler = true;
    }
    if (attempt_begins >= 2 && has_serve && has_net && has_dp_handler) {
      // Client + at least one rpc actor + transport all in one tree.
      EXPECT_FALSE(actors_by_cat[std::size_t(trace::Category::kClient)].empty());
      EXPECT_FALSE(actors_by_cat[std::size_t(trace::Category::kRpc)].empty());
      found_correlated = true;
      break;
    }
  }
  EXPECT_TRUE(found_correlated)
      << "no failover trace correlates client attempts with a dp serve";

  // Fault markers recorded at the plan's times, on the scenario track.
  trace::Tracer::Filter scenario;
  scenario.category = trace::Category::kScenario;
  std::set<std::string> names;
  for (const trace::TraceEvent& e : tracer.query(scenario)) names.insert(e.name);
  EXPECT_TRUE(names.count("scenario.start"));
  EXPECT_TRUE(names.count("fault.crash"));
  EXPECT_TRUE(names.count("fault.restart"));
  EXPECT_TRUE(names.count("fault.partition"));
  EXPECT_TRUE(names.count("fault.heal"));
  EXPECT_TRUE(names.count("scenario.end"));
}

TEST(TraceScenario, ServeSpanJoinsCallerTrace) {
  // Even without faults, every brokering query's rpc.serve span on the
  // decision point must join the client's trace (propagation through the
  // correlation side channel, not the wire).
  trace::Tracer tracer;
  ScenarioConfig cfg = small_config();
  cfg.tracer = &tracer;
  run_scenario(cfg);

  trace::Tracer::Filter roots;
  roots.name = "query";
  roots.category = trace::Category::kClient;
  const std::vector<trace::TraceEvent> queries = tracer.query(roots);
  ASSERT_FALSE(queries.empty());

  std::size_t joined = 0, inspected = 0;
  for (const trace::TraceEvent& q : queries) {
    if (q.kind != trace::EventKind::kBegin) continue;
    ++inspected;
    trace::Tracer::Filter serves;
    serves.trace = q.trace;
    serves.name = "rpc.serve";
    if (!tracer.query(serves).empty()) ++joined;
    if (inspected >= 50) break;
  }
  // Ring wrap can drop old events, but the vast majority of retained query
  // roots must have a correlated serve span.
  EXPECT_GT(joined * 10, inspected * 8);
}

TEST(TraceScenario, ChromeExportOfScenarioIsBalanced) {
  trace::Tracer tracer;
  ScenarioConfig cfg = faulted_config();
  cfg.tracer = &tracer;
  run_scenario(cfg);

  std::ostringstream os;
  trace::write_chrome_trace(os, tracer);
  const std::string json = os.str();
  EXPECT_GT(json.size(), 1000u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("fault.crash"), std::string::npos);
  EXPECT_NE(json.find("query.failover"), std::string::npos);
  EXPECT_NE(json.find("rpc.serve"), std::string::npos);
}

}  // namespace
}  // namespace digruber::experiments
