#include "digruber/net/rpc.hpp"

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "digruber/common/log.hpp"
#include "digruber/trace/trace.hpp"

namespace digruber::net {

namespace {
constexpr std::string_view kOverloadPrefix = "overloaded:";
constexpr std::string_view kDrainSuffix = ":drain";
constexpr std::string_view kDegradedSuffix = ":degraded";

bool has_suffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

std::string make_overload_error(const wire::OverloadNack& nack) {
  std::string error =
      std::string(kOverloadPrefix) + std::to_string(nack.retry_after_us);
  // The retry_after number is parsed with strtoll, which stops at the
  // first non-digit, so a reason tag can follow it.
  if (nack.reason == kNackDraining) error += kDrainSuffix;
  if (nack.reason == kNackDegraded) error += kDegradedSuffix;
  return error;
}

bool parse_overload_error(const std::string& error, sim::Duration& retry_after,
                          std::uint8_t& reason) {
  if (error.size() <= kOverloadPrefix.size() ||
      error.compare(0, kOverloadPrefix.size(), kOverloadPrefix) != 0) {
    return false;
  }
  const std::int64_t us = std::strtoll(error.c_str() + kOverloadPrefix.size(),
                                       nullptr, 10);
  retry_after = sim::Duration::micros(us < 0 ? 0 : us);
  if (has_suffix(error, kDrainSuffix)) {
    reason = kNackDraining;
  } else if (has_suffix(error, kDegradedSuffix)) {
    reason = kNackDegraded;
  } else {
    reason = kNackQueueFull;
  }
  return true;
}

RpcServer::RpcServer(sim::Simulation& sim, Transport& transport,
                     ContainerProfile profile)
    : sim_(sim),
      transport_(transport),
      node_(transport.attach(*this)),
      container_(sim, std::move(profile)) {}

RpcServer::~RpcServer() {
  if (attached_) transport_.detach(node_);
}

void RpcServer::shutdown() {
  if (!attached_) return;
  transport_.detach(node_);
  attached_ = false;
  container_.abort_all();
}

bool RpcServer::restart() {
  if (attached_) return false;
  if (!transport_.reattach(node_, *this)) return false;
  attached_ = true;
  return true;
}

void RpcServer::register_method(std::uint16_t method, Method handler,
                                Priority priority) {
  methods_[method] = Registered{std::move(handler), priority};
}

void RpcServer::count_bad(BadFrameCause cause) {
  ++bad_;
  ++bad_by_cause_[std::size_t(cause)];
}

void RpcServer::on_packet(Packet packet) {
  wire::FrameHeader header;
  Buffer body;  // zero-copy slice of the frame: safe to queue past the packet
  switch (wire::parse_frame_ex(packet.payload, header, body)) {
    case wire::FrameParse::kOk:
      break;
    case wire::FrameParse::kBadHeader:
      count_bad(BadFrameCause::kHeader);
      return;
    case wire::FrameParse::kBodySizeMismatch:
      // The header parsed but promised a different body than the packet
      // carries. Decoding the bytes anyway would hand handlers a silently
      // truncated (or padded) message; refuse before dispatch instead.
      count_bad(BadFrameCause::kBodySize);
      return;
    case wire::FrameParse::kBadChecksum:
      // A v3 frame arrived damaged in flight (injected bit flips, or a
      // hostile sender). Drop before dispatch; the caller times out and
      // retries on an undamaged path.
      count_bad(BadFrameCause::kChecksum);
      return;
  }
  const auto kind = static_cast<wire::FrameKind>(header.kind);
  if (kind != wire::FrameKind::kRequest && kind != wire::FrameKind::kOneWay) {
    count_bad(BadFrameCause::kKind);
    return;
  }
  const auto it = methods_.find(header.method);
  if (it == methods_.end()) {
    count_bad(BadFrameCause::kUnknownMethod);
    log::debug("rpc", "no handler for method ", header.method);
    return;
  }
  ++received_;

  const NodeId from = packet.src;
  const std::uint64_t correlation = header.correlation;
  const std::uint16_t method = header.method;
  const bool wants_reply = kind == wire::FrameKind::kRequest;

  if (gate_) {
    wire::OverloadNack nack;
    nack.reason = kNackDraining;
    if (gate_(method, nack)) {
      if (auto* t = trace::current()) {
        t->instant(trace::Category::kRpc, node_.value(),
                   nack.reason == kNackDegraded ? "rpc.degraded_nack"
                                                : "rpc.drain_nack",
                   t->take_rpc(from.value(), correlation),
                   std::int64_t(method), nack.retry_after_us);
      }
      if (wants_reply) {
        transport_.send(
            Packet{node_, from,
                   wire::make_frame(method, wire::FrameKind::kOverloaded,
                                    correlation, nack, 0, checksums_)});
      }
      return;
    }
  }

  // Serve span: request arrival -> reply sent, joining the caller's trace
  // via the propagation side channel (zero wire-format impact). Covers the
  // container's queue wait plus modelled service time — the sojourn.
  trace::SpanContext serve_ctx;
  if (auto* t = trace::current()) {
    const trace::SpanContext caller = t->take_rpc(from.value(), correlation);
    serve_ctx = t->begin(trace::Category::kRpc, node_.value(), "rpc.serve",
                         caller, std::int64_t(method),
                         std::int64_t(packet.payload.size()));
  }

  // Deadline-aware admission input: only v2 frames carry one.
  sim::Time deadline = sim::Time::zero();
  if (header.version >= wire::FrameHeader::kDeadlineVersion &&
      header.deadline_us > 0) {
    deadline = sim::Time::zero() + sim::Duration::micros(header.deadline_us);
  }

  auto send_nack = [this, from, correlation, method](std::uint8_t reason,
                                                     sim::Duration retry_after) {
    wire::OverloadNack nack;
    nack.reason = reason;
    nack.retry_after_us = retry_after.us();
    transport_.send(Packet{node_, from,
                           wire::make_frame(method, wire::FrameKind::kOverloaded,
                                            correlation, nack, 0, checksums_)});
  };

  const Admission admission = container_.submit_ex(
      packet.payload.size(),
      [this, body, from, serve_ctx, handler = &it->second.handler]() -> Served {
        // Ambient serve context while the handler runs, so handler-level
        // events (and anything the handler sends) correlate to this serve.
        trace::ContextGuard guard(serve_ctx);
        return (*handler)(body.span(), from);
      },
      [this, from, correlation, method, wants_reply,
       serve_ctx](Buffer reply) {
        trace::ContextGuard guard(serve_ctx);
        if (auto* t = trace::current()) {
          t->end(trace::Category::kRpc, node_.value(), "rpc.serve", serve_ctx,
                 std::int64_t(method), std::int64_t(reply.size()));
        }
        if (!wants_reply) return;
        transport_.send(Packet{
            node_, from,
            wire::frame_from_body(method, wire::FrameKind::kReply, correlation,
                                  reply.span(), 0, checksums_)});
      },
      it->second.priority, deadline,
      // Pickup-time shed: the deadline expired while the request queued.
      [this, from, correlation, method, wants_reply, send_nack,
       serve_ctx](sim::Duration retry_after) {
        trace::ContextGuard guard(serve_ctx);
        if (auto* t = trace::current()) {
          t->end(trace::Category::kRpc, node_.value(), "rpc.serve", serve_ctx,
                 std::int64_t(method), -1);
          t->instant(trace::Category::kRpc, node_.value(), "overload.shed",
                     serve_ctx, std::int64_t(method), retry_after.us());
        }
        if (wants_reply) send_nack(1, retry_after);
      });
  if (!admission.accepted() && wants_reply) {
    const bool overload = container_.profile().overload_control;
    if (auto* t = trace::current()) {
      t->end(trace::Category::kRpc, node_.value(), "rpc.serve", serve_ctx,
             std::int64_t(method), -1);
      t->instant(trace::Category::kRpc, node_.value(),
                 overload ? "overload.shed" : "rpc.refused", serve_ctx,
                 std::int64_t(method));
    }
    trace::ContextGuard guard(serve_ctx);
    if (overload) {
      // Typed rejection: distinguishable from network loss, and carries the
      // server's own drain estimate so the caller backs off usefully.
      send_nack(admission.result == AdmitResult::kDeadline ? 1 : 0,
                admission.retry_after);
    } else {
      // Connection refused: tell the caller immediately.
      const std::string reason = "refused";
      transport_.send(Packet{node_, from,
                             wire::make_frame(method, wire::FrameKind::kError,
                                              correlation, reason, 0,
                                              checksums_)});
    }
  }
}

RpcClient::RpcClient(sim::Simulation& sim, Transport& transport)
    : sim_(sim), transport_(transport), node_(transport.attach(*this)) {}

RpcClient::~RpcClient() {
  if (attached_) transport_.detach(node_);
  // In-flight calls must not leak: their `done` contract is exactly-once.
  fail_all_pending("client shutdown");
}

void RpcClient::shutdown() {
  if (!attached_) return;
  transport_.detach(node_);
  attached_ = false;
  fail_all_pending("client shutdown");
}

bool RpcClient::restart() {
  if (attached_) return false;
  if (!transport_.reattach(node_, *this)) return false;
  attached_ = true;
  return true;
}

void RpcClient::fail_all_pending(const std::string& reason) {
  // Swap out first: a done callback may issue fresh calls through this
  // client, which must land in a clean pending_ map.
  std::unordered_map<std::uint64_t, Pending> failing;
  failing.swap(pending_);
  for (auto& [correlation, pending] : failing) {
    sim_.cancel(pending.timeout_event);
    if (auto* t = trace::current()) t->drop_rpc(node_.value(), correlation);
    pending.done(RawResult::failure(reason));
  }
}

void RpcClient::call_raw(NodeId server, std::uint16_t method,
                         std::vector<std::uint8_t> body, sim::Duration timeout,
                         CallOptions options,
                         std::function<void(RawResult)> done) {
  const std::uint64_t correlation = next_correlation_++;
  ++sent_;
  call_frame(server, correlation,
             wire::frame_from_body(method, wire::FrameKind::kRequest,
                                   correlation, body, options.deadline.us(),
                                   checksums_),
             timeout, std::move(done));
}

void RpcClient::call_frame(NodeId server, std::uint64_t correlation,
                           Buffer frame, sim::Duration timeout,
                           std::function<void(RawResult)> done) {
  // Register the ambient span under (node, correlation) so the server's
  // handler joins the caller's trace when the request arrives.
  if (auto* t = trace::current()) {
    const trace::SpanContext ctx = t->ambient();
    if (ctx.valid()) t->propagate_rpc(node_.value(), correlation, ctx);
  }

  const sim::EventId timeout_event = sim_.schedule_after(timeout, [this, correlation] {
    const auto it = pending_.find(correlation);
    if (it == pending_.end()) return;
    auto done = std::move(it->second.done);
    pending_.erase(it);
    ++timed_out_;
    if (auto* t = trace::current()) {
      // The request may still be in flight or queued server-side; forget
      // the propagated context if nobody took it.
      t->drop_rpc(node_.value(), correlation);
      t->instant(trace::Category::kRpc, node_.value(), "rpc.timeout",
                 t->ambient(), std::int64_t(correlation));
    }
    done(RawResult::failure("timeout"));
  });
  pending_.emplace(correlation, Pending{timeout_event, std::move(done)});
  transport_.send(Packet{node_, server, std::move(frame)});
}

void RpcClient::on_packet(Packet packet) {
  wire::FrameHeader header;
  Buffer body;  // shares the frame's storage: free to outlive the packet
  if (!wire::parse_frame(packet.payload, header, body)) return;

  const auto it = pending_.find(header.correlation);
  if (it == pending_.end()) {
    ++late_;  // late reply after timeout (or never ours): discard
    if (auto* t = trace::current()) {
      t->instant(trace::Category::kRpc, node_.value(), "rpc.late_reply", {},
                 std::int64_t(header.correlation));
    }
    return;
  }

  auto pending = std::move(it->second);
  pending_.erase(it);
  sim_.cancel(pending.timeout_event);

  switch (static_cast<wire::FrameKind>(header.kind)) {
    case wire::FrameKind::kReply:
      pending.done(std::move(body));
      break;
    case wire::FrameKind::kError: {
      std::string reason;
      if (!wire::decode(body, reason)) reason = "malformed error";
      pending.done(RawResult::failure(reason));
      break;
    }
    case wire::FrameKind::kOverloaded: {
      wire::OverloadNack nack;
      if (!wire::decode(body, nack)) {
        pending.done(RawResult::failure("malformed overload nack"));
        break;
      }
      ++overloaded_;
      pending.done(RawResult::failure(make_overload_error(nack)));
      break;
    }
    default:
      pending.done(RawResult::failure("unexpected frame kind"));
      break;
  }
}

}  // namespace digruber::net
