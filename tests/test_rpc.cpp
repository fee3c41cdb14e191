#include "digruber/net/rpc.hpp"

#include <gtest/gtest.h>

#include "digruber/net/sim_transport.hpp"

namespace digruber::net {
namespace {

struct EchoRequest {
  std::uint64_t value = 0;
  std::string text;
  template <class A>
  void serialize(A& ar) { ar & value & text; }
};

struct EchoReply {
  std::uint64_t value = 0;
  std::string text;
  template <class A>
  void serialize(A& ar) { ar & value & text; }
};

ContainerProfile fast_profile(std::size_t queue_limit = 4096) {
  ContainerProfile p;
  p.workers = 2;
  p.queue_limit = queue_limit;
  p.base_overhead = sim::Duration::millis(10);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

struct Fixture {
  sim::Simulation sim;
  SimTransport transport;
  RpcServer server;
  RpcClient client;

  explicit Fixture(ContainerProfile profile = fast_profile())
      : transport(sim, WanModel(WanParams{}, 17)),
        server(sim, transport, std::move(profile)),
        client(sim, transport) {
    server.register_typed<EchoRequest, EchoReply>(
        1, [](const EchoRequest& request, NodeId) {
          EchoReply reply;
          reply.value = request.value + 1;
          reply.text = request.text;
          return std::make_pair(reply, sim::Duration::millis(5));
        });
  }
};

TEST(Rpc, CallRoundtrip) {
  Fixture f;
  EchoRequest request;
  request.value = 41;
  request.text = "hello";
  bool done = false;
  f.client.call<EchoRequest, EchoReply>(
      f.server.node(), 1, request, sim::Duration::seconds(30),
      [&](Result<EchoReply> result) {
        ASSERT_TRUE(result.ok()) << result.error();
        EXPECT_EQ(result.value().value, 42u);
        EXPECT_EQ(result.value().text, "hello");
        done = true;
      });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.server.requests_received(), 1u);
  EXPECT_EQ(f.client.calls_timed_out(), 0u);
}

TEST(Rpc, TimeoutFiresWhenServerSlow) {
  ContainerProfile slow = fast_profile();
  slow.workers = 1;
  slow.base_overhead = sim::Duration::seconds(100);
  Fixture f(slow);
  bool failed = false;
  f.client.call<EchoRequest, EchoReply>(
      f.server.node(), 1, EchoRequest{}, sim::Duration::seconds(5),
      [&](Result<EchoReply> result) {
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.error(), "timeout");
        failed = true;
      });
  f.sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.client.calls_timed_out(), 1u);
  // The server still completed the work (wasted effort, as on a real grid).
  EXPECT_EQ(f.server.container().completed(), 1u);
}

TEST(Rpc, LateReplyAfterTimeoutDiscarded) {
  ContainerProfile slow = fast_profile();
  slow.base_overhead = sim::Duration::seconds(10);
  Fixture f(slow);
  int callbacks = 0;
  f.client.call<EchoRequest, EchoReply>(
      f.server.node(), 1, EchoRequest{}, sim::Duration::seconds(1),
      [&](Result<EchoReply>) { ++callbacks; });
  f.sim.run();
  EXPECT_EQ(callbacks, 1);  // exactly once, the timeout
  EXPECT_EQ(f.client.calls_timed_out(), 1u);
  EXPECT_EQ(f.client.replies_discarded_late(), 1u);
}

TEST(Rpc, LossyWanTimeoutsAndLateRepliesAccounted) {
  // A lossy WAN plus a server slower than the call deadline: every call
  // either succeeds or times out (exactly one callback each), and replies
  // that beat the loss coin but miss the deadline land in the late-discard
  // counter instead of resurrecting a completed call.
  sim::Simulation sim;
  WanParams params;
  params.loss_rate = 0.3;
  SimTransport transport(sim, WanModel(params, 23));
  ContainerProfile slow = fast_profile();
  slow.base_overhead = sim::Duration::seconds(3);
  RpcServer server(sim, transport, slow);
  server.register_typed<EchoRequest, EchoReply>(
      1, [](const EchoRequest& request, NodeId) {
        return std::make_pair(EchoReply{request.value + 1, request.text},
                              sim::Duration::zero());
      });
  RpcClient client(sim, transport);

  const int n = 50;
  int ok = 0, timed_out = 0;
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(sim::Time::from_seconds(20.0 * i), [&, i] {
      EchoRequest request;
      request.value = std::uint64_t(i);
      // 3.2 s deadline vs 3 s service time: distant-node jitter decides
      // whether a surviving reply is on time or discarded late.
      client.call<EchoRequest, EchoReply>(
          server.node(), 1, request, sim::Duration::millis(3200),
          [&](Result<EchoReply> result) {
            if (result.ok()) {
              ++ok;
            } else {
              EXPECT_EQ(result.error(), "timeout");
              ++timed_out;
            }
          });
    });
  }
  sim.run();

  EXPECT_EQ(ok + timed_out, n);  // exactly one callback per call
  EXPECT_GT(ok, 0);
  EXPECT_GT(timed_out, 0);
  EXPECT_EQ(client.calls_timed_out(), std::uint64_t(timed_out));
  EXPECT_EQ(client.calls_in_flight(), 0u);
  // Dropped requests/replies plus late-discarded replies cover every
  // timeout; a reply can only be late if neither leg was dropped.
  EXPECT_LE(client.replies_discarded_late(), std::uint64_t(timed_out));
  EXPECT_GT(transport.packets_dropped(DropCause::kLoss), 0u);
}

TEST(Rpc, UnknownMethodTimesOut) {
  Fixture f;
  bool failed = false;
  f.client.call<EchoRequest, EchoReply>(
      f.server.node(), 99, EchoRequest{}, sim::Duration::seconds(2),
      [&](Result<EchoReply> result) { failed = !result.ok(); });
  f.sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.server.requests_bad(), 1u);
}

TEST(Rpc, RefusedWhenQueueFull) {
  ContainerProfile tiny = fast_profile(/*queue_limit=*/0);
  tiny.workers = 1;
  tiny.base_overhead = sim::Duration::seconds(5);
  Fixture f(tiny);
  int refused = 0, ok = 0;
  for (int i = 0; i < 3; ++i) {
    f.client.call<EchoRequest, EchoReply>(
        f.server.node(), 1, EchoRequest{}, sim::Duration::seconds(60),
        [&](Result<EchoReply> result) {
          if (result.ok()) ++ok;
          else if (result.error() == "refused") ++refused;
        });
  }
  f.sim.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(refused, 2);
}

TEST(Rpc, OneWayNotifyDelivered) {
  Fixture f;
  int notified = 0;
  f.server.register_method(7, [&](std::span<const std::uint8_t> body, NodeId) {
    EchoRequest request;
    EXPECT_TRUE(wire::decode(body, request));
    ++notified;
    return Served{};
  });
  EchoRequest request;
  request.value = 5;
  f.client.notify(f.server.node(), 7, request);
  f.sim.run();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(f.client.calls_in_flight(), 0u);
}

TEST(Rpc, NotifyAllSurvivesPeerSetShrinkingMidRound) {
  // The broadcast frame is encoded once and shared by refcount across
  // every destination. A peer departing between the send and the delivery
  // (runtime leave / crash) must not leak, double-free, or misdeliver:
  // the detached destination's copy is dropped with a typed cause and the
  // remaining peers still decode the same bytes. (ASan/UBSan guard the
  // lifetime claims.)
  Fixture f;
  sim::Simulation& sim = f.sim;
  RpcServer second(sim, f.transport, fast_profile());
  RpcServer third(sim, f.transport, fast_profile());
  int delivered = 0;
  for (RpcServer* server : {&f.server, &second, &third}) {
    server->register_method(7, [&](std::span<const std::uint8_t> body, NodeId) {
      EchoRequest request;
      EXPECT_TRUE(wire::decode(body, request));
      EXPECT_EQ(request.value, 5u);
      EXPECT_EQ(request.text, "fan-out");
      ++delivered;
      return Served{};
    });
  }

  {
    // The caller's peer list dies before any packet is delivered; the
    // shared buffer alone must keep the frame bytes alive in flight.
    std::vector<NodeId> peers{f.server.node(), second.node(), third.node()};
    EchoRequest request;
    request.value = 5;
    request.text = "fan-out";
    f.client.notify_all(peers, 7, request);
  }
  // One peer departs while the round is in flight.
  f.transport.detach(third.node());

  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.transport.packets_dropped(DropCause::kUnknownDestination), 1u);
}

TEST(Rpc, ConcurrentCallsCorrelatedCorrectly) {
  Fixture f;
  std::vector<std::uint64_t> replies;
  for (std::uint64_t i = 0; i < 20; ++i) {
    EchoRequest request;
    request.value = i * 100;
    f.client.call<EchoRequest, EchoReply>(
        f.server.node(), 1, request, sim::Duration::seconds(60),
        [&replies, i](Result<EchoReply> result) {
          ASSERT_TRUE(result.ok());
          EXPECT_EQ(result.value().value, i * 100 + 1);
          replies.push_back(i);
        });
  }
  f.sim.run();
  EXPECT_EQ(replies.size(), 20u);
}

TEST(Rpc, MalformedRequestSwallowedByTypedHandler) {
  Fixture f;
  // Send raw garbage as method 1's body: handler must not crash; client
  // gets an empty (malformed) reply.
  bool done = false;
  f.client.call_raw(f.server.node(), 1, {0xde, 0xad}, sim::Duration::seconds(10),
                    [&](RpcClient::RawResult result) {
                      ASSERT_TRUE(result.ok());
                      EXPECT_TRUE(result.value().empty());
                      done = true;
                    });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Rpc, CallRawHonoursFrameChecksums) {
  // Records the header of every frame it receives; declared first so it
  // outlives the transport it is attached to.
  struct HeaderSink : Endpoint {
    std::vector<wire::FrameHeader> headers;
    void on_packet(Packet packet) override {
      wire::FrameHeader header;
      Buffer body;
      if (wire::parse_frame(packet.payload, header, body)) headers.push_back(header);
    }
  } sink;
  Fixture f;
  const NodeId sink_node = f.transport.attach(sink);
  f.client.set_frame_checksums(true);
  f.client.call_raw(sink_node, 1, {0x01, 0x02}, sim::Duration::seconds(10),
                    [](RpcClient::RawResult) {});
  f.client.notify(sink_node, 1, EchoRequest{});
  f.sim.run();
  ASSERT_EQ(sink.headers.size(), 2u);
  for (const wire::FrameHeader& header : sink.headers) {
    EXPECT_EQ(header.version, wire::FrameHeader::kChecksumVersion);
  }
}

TEST(Rpc, BadFramesCountedByCause) {
  Fixture f;
  // Header parses but declares one more body byte than the packet carries:
  // must be refused before dispatch, as a body-size mismatch specifically.
  std::vector<std::uint8_t> short_body =
      wire::make_frame(1, wire::FrameKind::kRequest, 1, EchoRequest{}).to_vector();
  short_body.pop_back();
  f.transport.send(
      Packet{f.client.node(), f.server.node(), Buffer(std::move(short_body))});

  // Too short for even a frame header.
  f.transport.send(Packet{f.client.node(), f.server.node(), {1, 2, 3}});

  // Parseable frame of a kind a server never accepts.
  f.transport.send(Packet{f.client.node(), f.server.node(),
                          wire::make_frame(1, wire::FrameKind::kReply, 9,
                                           EchoRequest{})});

  // Well-formed request for a method nobody registered.
  f.transport.send(Packet{f.client.node(), f.server.node(),
                          wire::make_frame(99, wire::FrameKind::kOneWay, 0,
                                           EchoRequest{})});

  f.sim.run();
  EXPECT_EQ(f.server.requests_received(), 0u);
  EXPECT_EQ(f.server.requests_bad(), 4u);
  EXPECT_EQ(f.server.requests_bad(BadFrameCause::kBodySize), 1u);
  EXPECT_EQ(f.server.requests_bad(BadFrameCause::kHeader), 1u);
  EXPECT_EQ(f.server.requests_bad(BadFrameCause::kKind), 1u);
  EXPECT_EQ(f.server.requests_bad(BadFrameCause::kUnknownMethod), 1u);
}

TEST(Rpc, ClientDestructionFailsPendingCalls) {
  sim::Simulation sim;
  SimTransport transport(sim, WanModel(WanParams{}, 18));
  RpcServer server(sim, transport, fast_profile());
  int invoked = 0;
  {
    RpcClient client(sim, transport);
    client.call<EchoRequest, EchoReply>(server.node(), 1, EchoRequest{},
                                        sim::Duration::seconds(30),
                                        [&](Result<EchoReply> result) {
                                          ++invoked;
                                          ASSERT_FALSE(result.ok());
                                          EXPECT_EQ(result.error(), "client shutdown");
                                        });
  }  // destroyed with call in flight: done fires exactly once, with an error
  EXPECT_EQ(invoked, 1);
  sim.run();  // the cancelled timeout must not re-invoke the callback
  EXPECT_EQ(invoked, 1);
}

}  // namespace
}  // namespace digruber::net
