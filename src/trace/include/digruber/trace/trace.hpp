#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "digruber/sim/time.hpp"

namespace digruber::sim {
class Simulation;
}

namespace digruber::trace {

/// Event taxonomy. Spans are begin/end pairs sharing a span id; instants
/// are point events; counters carry a sampled value in `a0`.
enum class EventKind : std::uint8_t { kBegin = 0, kEnd, kInstant, kCounter };

/// Actor namespaces: each (category, actor id) pair owns one ring buffer
/// and renders as one track in the Chrome-trace export.
enum class Category : std::uint8_t {
  kClient = 0,  // submission hosts (actor = ClientId)
  kDp,          // decision points (actor = DpId)
  kRpc,         // rpc endpoints (actor = NodeId)
  kNet,         // transport (actor = NodeId of the packet's src/dst)
  kScenario,    // experiment harness phase markers (actor = 0)
  kCount,
};
const char* category_name(Category category);

/// Correlation handle: `trace` ties every event of one logical operation
/// (e.g. a client query and all its retries, handlers, and packets)
/// together; `span` identifies one begin/end pair within it.
struct SpanContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  [[nodiscard]] bool valid() const { return span != 0; }
};

/// One recorded event. `name` must be a static-lifetime string literal —
/// the recorder stores the pointer, never a copy.
struct TraceEvent {
  std::uint64_t seq = 0;  // global record order (stable sort key at equal ts)
  EventKind kind = EventKind::kInstant;
  Category category = Category::kScenario;
  const char* name = "";
  std::uint64_t actor = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;     // parent span id (0 = root)
  sim::Time ts;                 // simulation time
  std::int64_t a0 = 0;          // event-specific args (documented per site)
  std::int64_t a1 = 0;
};

struct TracerOptions {
  /// Events kept per (category, actor) ring; older events are overwritten
  /// and counted as dropped.
  std::size_t ring_capacity = std::size_t(1) << 14;
};

/// Low-overhead event/span recorder. One instance per traced run; install
/// it with TraceSession so instrumented code (which never takes a tracer
/// parameter) finds it via trace::current(). All recording is in-memory
/// into fixed-size per-actor rings — no I/O, no allocation past ring
/// warm-up, no simulator events, no RNG draws — so enabling tracing never
/// perturbs a deterministic run.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  /// Stamp subsequent events from this simulation's clock. Call once per
  /// run, before events arrive.
  void bind_clock(const sim::Simulation* sim);
  [[nodiscard]] sim::Time now() const;

  /// Begin a span. A default (invalid) parent starts a new trace tree;
  /// passing an existing context makes this a child in the same trace.
  SpanContext begin(Category category, std::uint64_t actor, const char* name,
                    SpanContext parent = {}, std::int64_t a0 = 0,
                    std::int64_t a1 = 0);
  void end(Category category, std::uint64_t actor, const char* name,
           SpanContext ctx, std::int64_t a0 = 0, std::int64_t a1 = 0);
  void instant(Category category, std::uint64_t actor, const char* name,
               SpanContext ctx = {}, std::int64_t a0 = 0, std::int64_t a1 = 0);
  void counter(Category category, std::uint64_t actor, const char* name,
               std::int64_t value);

  /// Ambient-context stack: the innermost pushed span is picked up by
  /// layers with no explicit context plumbing (transport, rpc). The sim is
  /// single-threaded, so a plain stack is exact.
  void push_context(SpanContext ctx);
  void pop_context();
  [[nodiscard]] SpanContext ambient() const;

  /// RPC propagation side channel: the client registers its span under the
  /// caller's (node, correlation) key at call time; the server takes it on
  /// request arrival, joining the handler into the caller's trace without
  /// widening the wire format (which would perturb the WAN model).
  void propagate_rpc(std::uint64_t node, std::uint64_t correlation, SpanContext ctx);
  [[nodiscard]] SpanContext take_rpc(std::uint64_t node, std::uint64_t correlation);
  /// Forget a registered context (timeout / client shutdown); no-op if the
  /// server already took it.
  void drop_rpc(std::uint64_t node, std::uint64_t correlation);

  /// Query API (tests, exporters, inspection).
  struct Filter {
    std::optional<Category> category;
    std::optional<std::uint64_t> actor;
    std::optional<std::uint64_t> trace;
    const char* name = nullptr;  // exact string match when set
    sim::Time from = sim::Time::zero();
    sim::Time to = sim::Time::max();  // exclusive
  };
  /// Matching events across all rings, ordered by (ts, seq).
  [[nodiscard]] std::vector<TraceEvent> query(const Filter& filter) const;
  [[nodiscard]] std::vector<TraceEvent> query() const { return query(Filter{}); }

  struct RingStats {
    std::uint64_t recorded = 0;  // total ever recorded into the ring
    std::uint64_t dropped = 0;   // overwritten by wrap (recorded - kept)
    std::size_t kept = 0;        // currently retrievable
    std::size_t capacity = 0;
  };
  [[nodiscard]] RingStats ring_stats(Category category, std::uint64_t actor) const;
  [[nodiscard]] std::vector<std::pair<Category, std::uint64_t>> actors() const;
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] const TracerOptions& options() const { return options_; }

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // capacity-bounded, wraps at head
    std::size_t head = 0;
    std::uint64_t recorded = 0;
  };

  Ring& ring_for(Category category, std::uint64_t actor);
  void record(Category category, std::uint64_t actor, TraceEvent event);

  TracerOptions options_;
  const sim::Simulation* sim_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_span_ = 1;
  std::uint64_t next_trace_ = 1;
  std::vector<SpanContext> context_stack_;
  // std::map keeps actors() / query() iteration deterministic.
  std::map<std::pair<std::uint8_t, std::uint64_t>, Ring> rings_;
  std::unordered_map<std::uint64_t, SpanContext> rpc_contexts_;
};

/// The installed tracer, or nullptr when tracing is off. Instrumentation
/// sites gate on this — one load and branch on the hot path.
Tracer* current();

/// RAII installation of a tracer as trace::current() (restores the
/// previous one on destruction, so sessions nest).
class TraceSession {
 public:
  explicit TraceSession(Tracer& tracer);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  Tracer* previous_;
};

/// RAII ambient-context push; no-op (and zero-cost) when tracing is off.
class ContextGuard {
 public:
  explicit ContextGuard(SpanContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace digruber::trace
