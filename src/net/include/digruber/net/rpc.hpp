#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "digruber/common/result.hpp"
#include "digruber/net/container.hpp"
#include "digruber/net/transport.hpp"
#include "digruber/net/wire/frame.hpp"
#include "digruber/sim/simulation.hpp"

namespace digruber::net {

/// OverloadNack reason codes. kQueueFull / kDeadline come from the
/// container's admission control; kDraining is a membership-layer refusal
/// (the server exists but is joining or leaving and must not take query
/// work). kNackDegraded is a partition-tolerance refusal: the server is
/// healthy but its view of the mesh is too stale to admit query work
/// accurately — callers should reroute, NOT quarantine (the condition
/// clears as soon as connectivity heals).
inline constexpr std::uint8_t kNackQueueFull = 0;
inline constexpr std::uint8_t kNackDeadline = 1;
inline constexpr std::uint8_t kNackDraining = 2;
inline constexpr std::uint8_t kNackDegraded = 3;

/// In-process form of a typed overload rejection, carried through the
/// Result error channel as "overloaded:<retry_after_us>" (legacy reasons),
/// "overloaded:<retry_after_us>:drain" (kNackDraining), or
/// "overloaded:<retry_after_us>:degraded" (kNackDegraded). The wire form
/// is wire::OverloadNack; these helpers are the bridge.
[[nodiscard]] std::string make_overload_error(const wire::OverloadNack& nack);
/// True iff `error` is an overload rejection; extracts the retry hint and
/// the reason code.
bool parse_overload_error(const std::string& error, sim::Duration& retry_after,
                          std::uint8_t& reason);

/// Why an incoming packet was rejected before reaching a handler. Split by
/// cause so a frame whose header claims more (or fewer) body bytes than the
/// packet carries is distinguishable from outright header corruption.
enum class BadFrameCause : std::uint8_t {
  kHeader = 0,       // truncated header or unsupported version
  kBodySize,         // header body_size disagrees with bytes present
  kKind,             // parseable, but not a request/one-way frame
  kUnknownMethod,    // no handler registered for the method id
  kChecksum,         // v3 frame whose CRC-32C trailer failed verification
  kCount,
};

/// RPC server: an Endpoint that routes request frames through a
/// ServiceContainer (modelling GT3/GT4 per-request costs) into registered
/// method handlers, and sends reply frames back.
class RpcServer : public Endpoint {
 public:
  /// A method receives the decoded-frame body and the caller's address and
  /// returns the encoded reply plus its compute cost.
  using Method = std::function<Served(std::span<const std::uint8_t> body, NodeId from)>;

  RpcServer(sim::Simulation& sim, Transport& transport, ContainerProfile profile);
  ~RpcServer() override;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] ServiceContainer& container() { return container_; }
  [[nodiscard]] const ServiceContainer& container() const { return container_; }

  /// Crash semantics: detach from the network and abort queued and
  /// in-flight requests (their completions never fire). Idempotent.
  void shutdown();
  /// Come back at the same address after `shutdown`. Returns false if the
  /// address could not be re-acquired (or the server is already up).
  bool restart();
  [[nodiscard]] bool attached() const { return attached_; }

  /// `priority` classes requests for overload control: control-class
  /// methods (state exchange, catch-up) are never shed behind query
  /// traffic. Ignored while the container's overload control is off.
  void register_method(std::uint16_t method, Method handler,
                       Priority priority = Priority::kQuery);

  /// Pre-admission refusal gate. When set, every request/one-way frame is
  /// offered to the gate before touching the container; returning true
  /// rejects it with the typed Overloaded NACK the gate filled in (the
  /// handler never runs and no container slot is consumed). This is how a
  /// draining or still-joining decision point refuses query traffic at
  /// the door while control frames keep flowing.
  using RefusalGate =
      std::function<bool(std::uint16_t method, wire::OverloadNack& nack)>;
  void set_refusal_gate(RefusalGate gate) { gate_ = std::move(gate); }

  /// Convenience: register a typed handler `Reply(const Request&, NodeId)`
  /// with a fixed-or-computed handler cost returned alongside the reply.
  template <class Request, class Reply>
  void register_typed(std::uint16_t method,
                      std::function<std::pair<Reply, sim::Duration>(const Request&, NodeId)> fn) {
    register_method(method, [fn = std::move(fn)](std::span<const std::uint8_t> body,
                                                 NodeId from) -> Served {
      Request request{};
      if (!wire::decode(body, request)) {
        return Served{};  // malformed: swallow; client will time out
      }
      auto [reply, cost] = fn(request, from);
      return Served{wire::encode_buffer(reply), cost};
    });
  }

  /// Emit CRC-32C (wire v3) trailers on every frame this server sends
  /// (replies, NACKs). Verification of incoming v3 frames is always on.
  void set_frame_checksums(bool enabled) { checksums_ = enabled; }

  [[nodiscard]] std::uint64_t requests_received() const { return received_; }
  [[nodiscard]] std::uint64_t requests_bad() const { return bad_; }
  /// Rejected-packet count for one cause (sums to `requests_bad`).
  [[nodiscard]] std::uint64_t requests_bad(BadFrameCause cause) const {
    return bad_by_cause_[std::size_t(cause)];
  }

  void on_packet(Packet packet) override;

 private:
  struct Registered {
    Method handler;
    Priority priority = Priority::kQuery;
  };

  void count_bad(BadFrameCause cause);

  sim::Simulation& sim_;
  Transport& transport_;
  NodeId node_;
  ServiceContainer container_;
  std::unordered_map<std::uint16_t, Registered> methods_;
  RefusalGate gate_;
  bool attached_ = true;
  bool checksums_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t bad_ = 0;
  std::array<std::uint64_t, std::size_t(BadFrameCause::kCount)> bad_by_cause_{};
};

/// RPC client: issues requests with per-call timeouts; late or unknown
/// replies are discarded (the server may still have done the work — that
/// asymmetry is what produces the paper's "requests NOT handled by
/// GRUBER" population).
class RpcClient : public Endpoint {
 public:
  /// Raw replies are zero-copy slices of the reply frame's shared storage;
  /// holding one past `done` is safe and costs no copy.
  using RawResult = Result<Buffer>;

  RpcClient(sim::Simulation& sim, Transport& transport);
  /// Destruction fails every in-flight call with "client shutdown" — a
  /// `done` callback always fires exactly once, even across teardown.
  ~RpcClient() override;

  [[nodiscard]] NodeId node() const { return node_; }

  /// Crash semantics: detach and fail in-flight calls with "client
  /// shutdown". Idempotent.
  void shutdown();
  /// Re-acquire the same address after `shutdown`.
  bool restart();
  [[nodiscard]] bool attached() const { return attached_; }

  /// Per-call knobs beyond the timeout.
  struct CallOptions {
    /// Absolute sim-time deadline carried to the server for deadline-aware
    /// admission (zero = none). Attaching one upgrades the request frame to
    /// the v2 header; without it the wire format is unchanged.
    sim::Time deadline = sim::Time::zero();
  };

  /// Raw call; `done` fires exactly once with the reply body or an error
  /// ("timeout", "refused", "overloaded:<us>", or a server error string).
  void call_raw(NodeId server, std::uint16_t method,
                std::vector<std::uint8_t> body, sim::Duration timeout,
                std::function<void(RawResult)> done) {
    call_raw(server, method, std::move(body), timeout, CallOptions{},
             std::move(done));
  }
  void call_raw(NodeId server, std::uint16_t method,
                std::vector<std::uint8_t> body, sim::Duration timeout,
                CallOptions options, std::function<void(RawResult)> done);

  /// Typed call. The request is encoded directly into its frame: one sized
  /// allocation, no intermediate body vector.
  template <class Request, class Reply>
  void call(NodeId server, std::uint16_t method, const Request& request,
            sim::Duration timeout, std::function<void(Result<Reply>)> done) {
    call(server, method, request, timeout, CallOptions{}, std::move(done));
  }
  template <class Request, class Reply>
  void call(NodeId server, std::uint16_t method, const Request& request,
            sim::Duration timeout, CallOptions options,
            std::function<void(Result<Reply>)> done) {
    const std::uint64_t correlation = next_correlation_++;
    ++sent_;
    call_frame(server, correlation,
               wire::make_frame(method, wire::FrameKind::kRequest, correlation,
                                request, options.deadline.us(), checksums_),
               timeout, [done = std::move(done)](RawResult raw) {
                 if (!raw.ok()) {
                   done(Result<Reply>::failure(raw.error()));
                   return;
                 }
                 Reply reply{};
                 if (!wire::decode(raw.value(), reply)) {
                   done(Result<Reply>::failure("malformed reply"));
                   return;
                 }
                 done(std::move(reply));
               });
  }

  /// Emit CRC-32C (wire v3) trailers on every frame this client sends.
  void set_frame_checksums(bool enabled) { checksums_ = enabled; }

  /// One-way notification (no reply, no timeout).
  template <class Request>
  void notify(NodeId server, std::uint16_t method, const Request& request) {
    transport_.send(Packet{node_, server,
                           wire::make_frame(method, wire::FrameKind::kOneWay,
                                            next_correlation_++, request, 0,
                                            checksums_)});
  }

  /// One-way fan-out: the request is serialized exactly once and the same
  /// shared frame is handed to every destination (a refcount bump per peer,
  /// not a re-encode). This is the state-exchange broadcast primitive: one
  /// ExchangeMessage encode per round, regardless of mesh size.
  template <class Request>
  void notify_all(std::span<const NodeId> servers, std::uint16_t method,
                  const Request& request) {
    if (servers.empty()) return;
    const Buffer frame =
        wire::make_frame(method, wire::FrameKind::kOneWay, next_correlation_++,
                         request, 0, checksums_);
    for (const NodeId server : servers) {
      transport_.send(Packet{node_, server, frame});
    }
  }

  [[nodiscard]] std::uint64_t calls_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t calls_timed_out() const { return timed_out_; }
  /// Calls rejected by a server with a typed overload NACK.
  [[nodiscard]] std::uint64_t calls_overloaded() const { return overloaded_; }
  [[nodiscard]] std::size_t calls_in_flight() const { return pending_.size(); }
  /// Replies that arrived after their call's timeout (or for a correlation
  /// this client never issued) and were discarded.
  [[nodiscard]] std::uint64_t replies_discarded_late() const { return late_; }

  void on_packet(Packet packet) override;

 private:
  struct Pending {
    sim::EventId timeout_event;
    std::function<void(RawResult)> done;
  };

  /// Common tail of every request: register tracing/timeout bookkeeping for
  /// `correlation` and put the already-built frame on the wire.
  void call_frame(NodeId server, std::uint64_t correlation, Buffer frame,
                  sim::Duration timeout, std::function<void(RawResult)> done);

  /// Cancel timers and fail every pending call with `reason`, exactly once
  /// each. Safe against callbacks issuing new calls reentrantly.
  void fail_all_pending(const std::string& reason);

  sim::Simulation& sim_;
  Transport& transport_;
  NodeId node_;
  bool attached_ = true;
  bool checksums_ = false;
  std::uint64_t next_correlation_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t overloaded_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

}  // namespace digruber::net
