#include "digruber/trace/trace.hpp"

#include <algorithm>
#include <cstring>

#include "digruber/sim/simulation.hpp"

namespace digruber::trace {

namespace {

Tracer* g_current = nullptr;

/// (node, correlation) -> one 64-bit map key. Node ids are assigned
/// sequentially from 1 and correlations from 1 per client, so both stay
/// far below their allotted bit widths in any realistic run.
std::uint64_t rpc_key(std::uint64_t node, std::uint64_t correlation) {
  return (node << 40) ^ (correlation & ((std::uint64_t(1) << 40) - 1));
}

}  // namespace

const char* category_name(Category category) {
  switch (category) {
    case Category::kClient:
      return "client";
    case Category::kDp:
      return "dp";
    case Category::kRpc:
      return "rpc";
    case Category::kNet:
      return "net";
    case Category::kScenario:
      return "scenario";
    case Category::kCount:
      break;
  }
  return "?";
}

Tracer* current() { return g_current; }

TraceSession::TraceSession(Tracer& tracer) : previous_(g_current) {
  g_current = &tracer;
}

TraceSession::~TraceSession() { g_current = previous_; }

ContextGuard::ContextGuard(SpanContext ctx) : tracer_(g_current) {
  if (tracer_) tracer_->push_context(ctx);
}

ContextGuard::~ContextGuard() {
  if (tracer_) tracer_->pop_context();
}

Tracer::Tracer(TracerOptions options) : options_(options) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

void Tracer::bind_clock(const sim::Simulation* sim) { sim_ = sim; }

sim::Time Tracer::now() const {
  return sim_ ? sim_->now() : sim::Time::zero();
}

Tracer::Ring& Tracer::ring_for(Category category, std::uint64_t actor) {
  Ring& ring = rings_[{std::uint8_t(category), actor}];
  if (ring.events.capacity() == 0) ring.events.reserve(options_.ring_capacity);
  return ring;
}

void Tracer::record(Category category, std::uint64_t actor, TraceEvent event) {
  event.seq = next_seq_++;
  event.category = category;
  event.actor = actor;
  event.ts = now();
  Ring& ring = ring_for(category, actor);
  ++ring.recorded;
  if (ring.events.size() < options_.ring_capacity) {
    ring.events.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot (that event is now dropped).
  ring.events[ring.head] = event;
  ring.head = (ring.head + 1) % options_.ring_capacity;
}

SpanContext Tracer::begin(Category category, std::uint64_t actor,
                          const char* name, SpanContext parent, std::int64_t a0,
                          std::int64_t a1) {
  SpanContext ctx;
  ctx.trace = parent.trace ? parent.trace : next_trace_++;
  ctx.span = next_span_++;
  TraceEvent event;
  event.kind = EventKind::kBegin;
  event.name = name;
  event.trace = ctx.trace;
  event.span = ctx.span;
  event.parent = parent.span;
  event.a0 = a0;
  event.a1 = a1;
  record(category, actor, event);
  return ctx;
}

void Tracer::end(Category category, std::uint64_t actor, const char* name,
                 SpanContext ctx, std::int64_t a0, std::int64_t a1) {
  TraceEvent event;
  event.kind = EventKind::kEnd;
  event.name = name;
  event.trace = ctx.trace;
  event.span = ctx.span;
  event.a0 = a0;
  event.a1 = a1;
  record(category, actor, event);
}

void Tracer::instant(Category category, std::uint64_t actor, const char* name,
                     SpanContext ctx, std::int64_t a0, std::int64_t a1) {
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.name = name;
  event.trace = ctx.trace;
  event.span = ctx.span;
  event.a0 = a0;
  event.a1 = a1;
  record(category, actor, event);
}

void Tracer::counter(Category category, std::uint64_t actor, const char* name,
                     std::int64_t value) {
  TraceEvent event;
  event.kind = EventKind::kCounter;
  event.name = name;
  event.a0 = value;
  record(category, actor, event);
}

void Tracer::push_context(SpanContext ctx) { context_stack_.push_back(ctx); }

void Tracer::pop_context() {
  if (!context_stack_.empty()) context_stack_.pop_back();
}

SpanContext Tracer::ambient() const {
  return context_stack_.empty() ? SpanContext{} : context_stack_.back();
}

void Tracer::propagate_rpc(std::uint64_t node, std::uint64_t correlation,
                           SpanContext ctx) {
  rpc_contexts_[rpc_key(node, correlation)] = ctx;
}

SpanContext Tracer::take_rpc(std::uint64_t node, std::uint64_t correlation) {
  const auto it = rpc_contexts_.find(rpc_key(node, correlation));
  if (it == rpc_contexts_.end()) return {};
  SpanContext ctx = it->second;
  rpc_contexts_.erase(it);
  return ctx;
}

void Tracer::drop_rpc(std::uint64_t node, std::uint64_t correlation) {
  rpc_contexts_.erase(rpc_key(node, correlation));
}

std::vector<TraceEvent> Tracer::query(const Filter& filter) const {
  std::vector<TraceEvent> out;
  for (const auto& [key, ring] : rings_) {
    if (filter.category && std::uint8_t(*filter.category) != key.first) continue;
    if (filter.actor && *filter.actor != key.second) continue;
    for (const TraceEvent& event : ring.events) {
      if (filter.trace && event.trace != *filter.trace) continue;
      if (filter.name && std::strcmp(filter.name, event.name) != 0) continue;
      if (event.ts < filter.from || event.ts >= filter.to) continue;
      out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.seq < b.seq;
  });
  return out;
}

Tracer::RingStats Tracer::ring_stats(Category category, std::uint64_t actor) const {
  RingStats stats;
  stats.capacity = options_.ring_capacity;
  const auto it = rings_.find({std::uint8_t(category), actor});
  if (it == rings_.end()) return stats;
  stats.recorded = it->second.recorded;
  stats.kept = it->second.events.size();
  stats.dropped = stats.recorded - stats.kept;
  return stats;
}

std::vector<std::pair<Category, std::uint64_t>> Tracer::actors() const {
  std::vector<std::pair<Category, std::uint64_t>> out;
  out.reserve(rings_.size());
  for (const auto& [key, ring] : rings_) {
    out.emplace_back(Category(key.first), key.second);
  }
  return out;
}

std::uint64_t Tracer::total_recorded() const {
  std::uint64_t total = 0;
  for (const auto& [key, ring] : rings_) total += ring.recorded;
  return total;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [key, ring] : rings_) total += ring.recorded - ring.events.size();
  return total;
}

}  // namespace digruber::trace
