#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/common/stats.hpp"
#include "digruber/sim/simulation.hpp"

namespace digruber::diperf {

/// One completed client operation, as reported to the collector.
struct RequestRecord {
  ClientId client;
  sim::Time start;
  double response_s = 0.0;
  bool ok = true;
};

/// DiPerF's controller/collector: aggregates per-client metric streams
/// into the load / response-time / throughput time series plotted in
/// every figure of the paper.
class Collector {
 public:
  void client_started(ClientId client, sim::Time when);
  void client_stopped(ClientId client, sim::Time when);
  void record(RequestRecord record);

  struct Bucket {
    double t_s = 0.0;          // bucket start
    double load = 0.0;         // concurrent active clients
    double response_avg_s = 0.0;
    double throughput_qps = 0.0;
    std::uint64_t completions = 0;
  };

  /// Time series over [0, end_s) in `bucket_s` buckets.
  [[nodiscard]] std::vector<Bucket> series(double bucket_s, double end_s) const;

  /// Distribution of all response times (the summary row under each figure).
  [[nodiscard]] Summary response_summary() const;
  /// Peak bucket throughput.
  [[nodiscard]] double peak_throughput(double bucket_s, double end_s) const;
  /// Sustained throughput: mean over the top half of the load ramp.
  [[nodiscard]] double plateau_throughput(double bucket_s, double end_s) const;

  [[nodiscard]] const std::vector<RequestRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  std::vector<RequestRecord> records_;
  std::map<ClientId, std::pair<sim::Time, sim::Time>> client_spans_;
  std::uint64_t failures_ = 0;
};

/// A DiPerF tester: one simulated client machine running a closed loop —
/// issue the operation, await completion (the operation owns its timeout
/// semantics), think, repeat.
class Tester {
 public:
  /// The operation calls `done(ok, response_seconds)` exactly once.
  using Operation = std::function<void(std::function<void(bool ok)> done)>;

  Tester(sim::Simulation& sim, ClientId id, Operation op, sim::Duration think,
         Collector& collector);

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

 private:
  void issue();

  sim::Simulation& sim_;
  ClientId id_;
  Operation op_;
  sim::Duration think_;
  Collector& collector_;
  bool running_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t generation_ = 0;  // invalidates in-flight ops after stop()
};

/// DiPerF controller: starts testers on a slow ramp (the "varied slowly
/// the participation of clients" protocol) and stops them at the end of
/// the measurement window.
class Controller {
 public:
  Controller(sim::Simulation& sim, Collector& collector);

  void add_tester(std::unique_ptr<Tester> tester);

  /// Schedule the run: tester i starts at `first_start + i * spacing`; all
  /// testers stop at `end`.
  void schedule(sim::Duration first_start, sim::Duration spacing, sim::Time end);

 private:
  sim::Simulation& sim_;
  Collector& collector_;
  std::vector<std::unique_ptr<Tester>> testers_;
};

/// Performance model fitted from a run (used for saturation bounds by the
/// decision points and GRUB-SIM): service capacity and the response-vs-
/// load relation.
struct PerfModel {
  double peak_qps = 0.0;
  double plateau_qps = 0.0;
  LinearFit response_vs_load;

  /// Load (concurrent clients) beyond which mean response exceeds
  /// `response_limit_s` under the linear model.
  [[nodiscard]] double saturation_load(double response_limit_s) const;
};

PerfModel fit_model(const Collector& collector, double bucket_s, double end_s);

}  // namespace digruber::diperf
