// digruber-perf: the end-to-end benchmark of the DI-GRUBER simulator.
//
//   digruber-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out FILE.json]
//   digruber-perf --all [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//   digruber-perf --smoke --benchmark BENCHMARK.json
//
// Every simulation is single-threaded and processes run one at a time.
// With --trace 0 it measures what a user of the simulator sees:
// the workload's hour runs in a fresh child process, repeated while the
// next repetition fits in --seconds of host time, and the medians of its
// wall time and peak RSS are reported. A workload that pools seeds runs
// each pooled seed at least once and takes its simulated metrics over all
// of their queries. After its timed run each child also times the set-up
// (the shortest window that returns, repeated). With
// --trace 1 one process runs the hour untraced, then with a trace::Tracer
// installed (the sim-time ledger and the tracing overhead), then times
// every layer's public functions from outside, sized from the untraced
// run. --all runs each workload in its own process, one after another.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// attempted counts brokering queries and failed the queries no decision
// point handled. A failed correctness check is reported on standard error
// and makes the exit code 1.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "perf.hpp"

namespace {

using perf::Metric;
using perf::Metrics;
using perf::RunSummary;
namespace dg = digruber;

constexpr std::size_t kSetupRuns = 5;
constexpr double kSetupSeconds = 0.5;
constexpr double kMaxAttributedShare = 1.05;

struct Options {
  std::string workload;
  bool all = false;
  bool smoke = false;
  std::uint64_t seed = 7;
  double seconds = 0.0;
  int trace = 0;
  std::string out;
  std::string out_dir;
  std::string benchmark;
};

/// Outcome of one workload in one mode.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failed_checks;

  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Shortest round-trip form of `value`; JSON null if it is not finite.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void check_finite(Outcome& out) {
  for (const Metric& m : out.metrics) {
    out.check(std::isfinite(m.value), m.name + " is not finite");
  }
}

void check_run(Outcome& out, const RunSummary& run, const char* which) {
  out.check(run.conserved(), std::string(which) + ": queries != handled + fallbacks");
  out.check(run.sites_overcommitted == 0, std::string(which) + ": sites over-committed");
}

/// What a timed child process reports about its one run of the window.
struct ColdRun {
  /// Fixed-size part, sent first through the pipe.
  struct Head {
    double wall_s = 0.0;
    double rss_mb = 0.0;
    std::uint64_t digest = 0;
    std::uint64_t queries = 0;
    std::uint64_t handled = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t breaches = 0;
    std::uint64_t completed = 0;
    std::uint64_t sim_events = 0;
    double window_s = 0.0;
    bool conserved = false;
    bool overcommitted = true;
  } head;
  std::vector<double> setup_s;          // host time of each set-up run
  std::vector<std::int64_t> responses;  // every query's response, in us
};

/// Host times of set-up runs, repeated until enough time is spent for a
/// steady median.
std::vector<double> time_setup(const dg::experiments::ScenarioConfig& setup_config) {
  std::vector<double> setup;
  double spent = 0.0;
  while (setup.size() < kSetupRuns || spent < kSetupSeconds) {
    setup.push_back(perf::timed_run(setup_config).wall_s);
    spent += setup.back();
  }
  return setup;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= std::size_t(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= std::size_t(n);
  }
  return true;
}

template <class T>
bool write_vector(int fd, const std::vector<T>& values) {
  const std::uint64_t n = values.size();
  return write_all(fd, &n, sizeof n) && write_all(fd, values.data(), n * sizeof(T));
}

template <class T>
bool read_vector(int fd, std::vector<T>& values) {
  std::uint64_t n = 0;
  if (!read_all(fd, &n, sizeof n)) return false;
  values.resize(n);
  return read_all(fd, values.data(), n * sizeof(T));
}

/// Runs `config` once in a fresh child process, so every repetition starts
/// from an empty heap, as a user's run does, and its peak RSS is the run's
/// alone; the child then times `setup_config`. Waits for the child.
ColdRun cold_run(const dg::experiments::ScenarioConfig& config,
                 const dg::experiments::ScenarioConfig& setup_config) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const RunSummary s = perf::timed_run(config);
      ColdRun r;
      r.head = {s.wall_s,    peak_rss_mb(), s.digest,       s.queries,
                s.handled,   s.fallbacks,   s.entitlement_breaches,
                s.completed, s.sim_events,  s.window_s,     s.conserved(),
                s.sites_overcommitted != 0};
      r.setup_s = time_setup(setup_config);
      const bool sent = write_all(fds[1], &r.head, sizeof r.head) &&
                        write_vector(fds[1], r.setup_s) &&
                        write_vector(fds[1], s.responses);
      if (!sent) code = 1;
    } catch (const std::exception& e) {
      std::cerr << "timed run: " << e.what() << "\n";
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  ColdRun r;
  const bool got = read_all(fds[0], &r.head, sizeof r.head) &&
                   read_vector(fds[0], r.setup_s) && read_vector(fds[0], r.responses);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("timed child process failed");
  }
  return r;
}

/// Repeats the workload's window, each time in a fresh child process, until
/// the next repetition would not fit in `opt.seconds` (every pooled seed
/// runs at least once). Repetition i runs pooled seed i mod `workload.seeds`.
/// Host times are medians over all repetitions; the simulated metrics pool
/// the queries of the first run of each pooled seed.
Outcome measure_end_to_end(const perf::Workload& workload, const Options& opt,
                           dg::sim::Duration window) {
  Outcome out;
  const int seeds = workload.seeds;
  std::vector<dg::experiments::ScenarioConfig> configs, setup_configs;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = perf::pooled_seed(opt.seed, i);
    configs.push_back(perf::make_config(workload, seed, window));
    // The shortest window that returns builds the whole deployment and
    // brokers about one query per tester before the drain.
    setup_configs.push_back(perf::make_config(workload, seed, perf::kMinWindow));
  }
  std::vector<ColdRun> pooled;  // the first run of each pooled seed
  std::vector<double> walls, rss, setup;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (int(i) >= seeds && elapsed + elapsed / double(i) > opt.seconds) break;
    const std::size_t s = i % std::size_t(seeds);
    ColdRun run = cold_run(configs[s], setup_configs[s]);
    out.check(run.head.conserved, "timed run: queries != handled + fallbacks");
    out.check(!run.head.overcommitted, "timed run: sites over-committed");
    walls.push_back(run.head.wall_s);
    rss.push_back(run.head.rss_mb);
    setup.insert(setup.end(), run.setup_s.begin(), run.setup_s.end());
    if (s < pooled.size()) {
      out.check(run.head.digest == pooled[s].head.digest, "repeated run changed result_digest");
    } else {
      pooled.push_back(std::move(run));
    }
  }

  std::vector<std::int64_t> responses;
  std::uint64_t handled = 0, breaches = 0, completed = 0;
  double window_s = 0.0;
  for (const ColdRun& run : pooled) {
    responses.insert(responses.end(), run.responses.begin(), run.responses.end());
    out.attempted += run.head.queries;
    out.failed += run.head.fallbacks;
    handled += run.head.handled;
    breaches += run.head.breaches;
    completed += run.head.completed;
    window_s += run.head.window_s;
    out.digest = out.digest * 0x100000001b3ULL ^ run.head.digest;
  }
  const double p50_s = double(perf::percentile(responses, 0.50)) / 1e6;
  const double p99_s = double(perf::percentile(responses, 0.99)) / 1e6;
  out.metrics = {
      {"wall_s", perf::median(walls), "s"},
      {"setup_s", perf::median(setup), "s"},
      {"peak_rss_mb", perf::median(rss), "MB"},
      {"query_p50_s", p50_s, "sim_s"},
      {"query_p99_s", p99_s, "sim_s"},
      {"throughput_qps", window_s > 0 ? double(completed) / window_s : 0.0, "1/sim_s"},
      {"handled_share", out.attempted ? double(handled) / double(out.attempted) : 0.0,
       "ratio"},
      {"usla_ok_share", handled ? 1.0 - double(breaches) / double(handled) : 1.0, "ratio"},
  };
  std::cerr << workload.name << ": " << out.attempted << " queries over " << pooled.size()
            << " seed(s), " << pooled.front().head.sim_events
            << " sim events in the first; timed runs (s):";
  for (const double w : walls) std::cerr << " " << number(w);
  std::cerr << "\n";
  return out;
}

/// Largest event count any one ring recorded.
std::uint64_t busiest_ring(const dg::trace::Tracer& tracer) {
  std::uint64_t most = 0;
  for (const auto& [category, actor] : tracer.actors()) {
    most = std::max(most, tracer.ring_stats(category, actor).recorded);
  }
  return most;
}

Outcome measure_layers(const perf::Workload& workload, const Options& opt,
                       dg::sim::Duration window, const perf::ProbePlan& plan) {
  Outcome out;
  auto config = perf::make_config(workload, opt.seed, window);
  const RunSummary base = perf::timed_run(config);
  check_run(out, base, "untraced run");

  // Rings must hold the whole run. The busiest ring is a decision point's:
  // about five events per query it serves plus one per WAL append. Twice
  // that leaves headroom; if it still falls short the run is repeated once
  // with the exact size the first attempt saw.
  dg::trace::TracerOptions trace_options;
  trace_options.ring_capacity = std::max<std::size_t>(
      1 << 14, 2 * (5 * base.max_dp_queries + base.max_dp_wal_appends));
  RunSummary traced;
  perf::Ledger ledger;
  std::uint64_t trace_events = 0, trace_dropped = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    dg::trace::Tracer tracer(trace_options);
    config.tracer = &tracer;
    traced = perf::timed_run(config);
    config.tracer = nullptr;
    trace_events = tracer.total_recorded();
    trace_dropped = tracer.total_dropped();
    std::cerr << workload.name << ": " << tracer.actors().size() << " trace rings of "
              << trace_options.ring_capacity << " events, busiest " << busiest_ring(tracer)
              << "\n";
    if (trace_dropped == 0 || attempt == 1) {
      ledger = perf::build_ledger(tracer, config.client_timeout);
      break;
    }
    std::cerr << workload.name << ": trace rings of " << trace_options.ring_capacity
              << " events dropped " << trace_dropped << "; retrying\n";
    trace_options.ring_capacity = std::size_t(busiest_ring(tracer));
  }
  check_run(out, traced, "traced run");
  out.check(trace_dropped == 0, "trace dropped events");
  out.check(traced.digest == base.digest, "traced result_digest != untraced");
  out.check(ledger.query_spans == base.queries, "query spans != queries");
  out.check(ledger.p50_us == base.p50_us && ledger.p99_us == base.p99_us,
            "ledger percentiles != end-to-end percentiles");

  out.metrics = perf::probe_layers(config, base, ledger.net, plan);
  double attributed = 0.0;
  for (const Metric& m : out.metrics) {
    if (m.name.ends_with("busy_share_est")) attributed += m.value;
  }
  // Above the limit the probes over-attribute and their sizing is wrong.
  // Single-batch smoke probes on a two-minute window are too coarse to tell.
  if (plan.min_batch_s > 0) {
    out.check(attributed <= kMaxAttributedShare,
              "busy-share estimates sum to " + number(attributed) + " > 1.05");
  }
  const Metrics ledger_metrics = {
      {"simtime.query_p50_s", double(ledger.p50_us) / 1e6, "sim_s"},
      {"simtime.query_p99_s", double(ledger.p99_us) / 1e6, "sim_s"},
      {"simtime.serve_share", ledger.serve_share, "ratio"},
      {"simtime.wan_share", ledger.wan_share, "ratio"},
      {"simtime.client_share", ledger.client_share, "ratio"},
      {"trace.events", double(trace_events), "count"},
      {"trace.dropped", double(trace_dropped), "count"},
      {"trace.overhead_share", traced.wall_s / base.wall_s - 1.0, "ratio"},
  };
  out.metrics.insert(out.metrics.end(), ledger_metrics.begin(), ledger_metrics.end());
  out.attempted = base.queries;
  out.failed = base.fallbacks;
  out.digest = base.digest;
  return out;
}

void write_json_body(std::ostream& os, const Outcome& out) {
  os << "\"correct\": " << (out.failed_checks.empty() ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool write_record(const std::string& path, const perf::Workload& workload,
                  const Options& opt, const Outcome& out) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"workload\": \"" << workload.name << "\", \"seed\": " << opt.seed
     << ", \"trace\": " << opt.trace << ", \"result_digest\": \"" << hex(out.digest)
     << "\", \"checks_failed\": [";
  for (std::size_t i = 0; i < out.failed_checks.size(); ++i) {
    os << (i ? ", " : "") << "\"" << out.failed_checks[i] << "\"";
  }
  os << "], \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << cpu_model() << "\", \"compiler\": \"" << __VERSION__
     << "\", \"build_type\": \"" << DIGRUBER_PERF_BUILD_TYPE << "\"}, ";
  write_json_body(os, out);
  os << "}\n";
  return bool(os);
}

int run_one(const perf::Workload& workload, const Options& opt) {
  const dg::sim::Duration hour = dg::sim::Duration::hours(1);
  Outcome out = opt.trace ? measure_layers(workload, opt, hour, perf::ProbePlan{})
                          : measure_end_to_end(workload, opt, hour);
  check_finite(out);
  for (const Metric& m : out.metrics) {
    std::cerr << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& what : out.failed_checks) {
    std::cerr << "CHECK FAILED (" << workload.name << "): " << what << "\n";
  }
  if (!opt.out.empty() && !write_record(opt.out, workload, opt, out)) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  std::cout << "result_digest: " << hex(out.digest) << "\n{";
  write_json_body(std::cout, out);
  std::cout << "}" << std::endl;
  return out.failed_checks.empty() ? 0 : 1;
}

/// Each workload in a fresh child process, one after another.
int run_all(const char* self, const Options& opt) {
  if (!opt.out_dir.empty()) std::filesystem::create_directories(opt.out_dir);
  int failures = 0;
  for (const perf::Workload& workload : perf::workloads()) {
    std::vector<std::string> args = {self,
                                     "--workload", std::string(workload.name),
                                     "--seed", std::to_string(opt.seed),
                                     "--seconds", number(opt.seconds),
                                     "--trace", std::to_string(opt.trace)};
    if (!opt.out_dir.empty()) {
      args.push_back("--out");
      args.push_back(opt.out_dir + "/" + std::string(workload.name) + ".json");
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      std::perror("execv");
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << workload.name << ": child failed\n";
      ++failures;
    }
  }
  return failures ? 1 : 0;
}

/// Metric names listed under `section` in BENCHMARK.json.
std::vector<std::string> benchmark_names(const std::string& text, const std::string& section) {
  std::vector<std::string> names;
  const std::size_t key = text.find("\"" + section + "\"");
  if (key == std::string::npos) return names;
  const std::size_t open = text.find('[', key);
  const std::size_t close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string body = text.substr(open, close - open);
  for (std::size_t at = body.find("\"name\""); at != std::string::npos;
       at = body.find("\"name\"", at)) {
    const std::size_t colon = body.find(':', at);
    const std::size_t first = body.find('"', colon);
    const std::size_t last = body.find('"', first + 1);
    if (colon == std::string::npos || first == std::string::npos ||
        last == std::string::npos) {
      break;
    }
    names.push_back(body.substr(first + 1, last - first - 1));
    at = last + 1;
  }
  return names;
}

/// Every workload in a two-minute window with one batch per probe; checks
/// that each mode produces exactly the metrics BENCHMARK.json names for it,
/// all finite, and that every correctness check holds.
int run_smoke(const Options& opt) {
  std::ifstream in(opt.benchmark);
  if (!in) {
    std::cerr << "cannot read " << opt.benchmark << "\n";
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<std::string> end_to_end = benchmark_names(text.str(), "end_to_end");
  const std::vector<std::string> per_layer = benchmark_names(text.str(), "per_layer");
  if (end_to_end.empty() || per_layer.empty()) {
    std::cerr << opt.benchmark << " lists no metrics\n";
    return 1;
  }
  const dg::sim::Duration window = dg::sim::Duration::minutes(2);
  int failures = 0;
  const auto verify = [&](const perf::Workload& w, Outcome out,
                          const std::vector<std::string>& expected) {
    check_finite(out);
    for (const std::string& what : out.failed_checks) {
      std::cerr << w.name << ": CHECK FAILED: " << what << "\n";
      ++failures;
    }
    std::set<std::string> seen;
    for (const Metric& m : out.metrics) {
      seen.insert(m.name);
      if (std::find(expected.begin(), expected.end(), m.name) == expected.end()) {
        std::cerr << w.name << ": metric " << m.name << " is not in the benchmark\n";
        ++failures;
      }
    }
    for (const std::string& name : expected) {
      if (!seen.count(name)) {
        std::cerr << w.name << ": missing metric " << name << "\n";
        ++failures;
      }
    }
  };
  for (const perf::Workload& w : perf::workloads()) {
    verify(w, measure_end_to_end(w, opt, window), end_to_end);
    verify(w, measure_layers(w, opt, window, perf::ProbePlan{1, 0.0}), per_layer);
  }
  std::cerr << "smoke: " << perf::workloads().size() << " workloads, " << failures
            << " failure(s)\n";
  return failures ? 1 : 0;
}

int usage(int code) {
  (code ? std::cerr : std::cout)
      << "usage: digruber-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
         " [--out FILE]\n"
         "       digruber-perf --all [--seed N] [--seconds S] [--trace 0|1]"
         " [--out-dir DIR]\n"
         "       digruber-perf --smoke --benchmark BENCHMARK.json\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        opt.trace = t == "1";
      } else if (arg == "--out") {
        opt.out = value();
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else if (arg == "--benchmark") {
        opt.benchmark = value();
      } else if (arg == "--all") {
        opt.all = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(0);
      } else {
        std::cerr << "unknown argument " << arg << "\n";
        return usage(2);
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage(2);
    }
  }

  try {
    if (opt.smoke) {
      if (opt.benchmark.empty()) return usage(2);
      return run_smoke(opt);
    }
    if (opt.all) return run_all(argv[0], opt);
    const perf::Workload* workload = perf::find_workload(opt.workload);
    if (!workload) {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return usage(2);
    }
    return run_one(*workload, opt);
  } catch (const std::exception& e) {
    std::cerr << "digruber-perf: " << e.what() << "\n";
    return 1;
  }
}
