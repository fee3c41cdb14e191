// Fuzz-style robustness sweep over the wire layer. The Reader's contract
// (archive.hpp) is that hostile input never throws, never reads out of
// bounds, and failed reads yield zero values — these tests drive that
// contract with deterministic Rng-generated corruption over every protocol
// message the broker ships: truncation at every prefix, random bit flips,
// hostile length prefixes, and outright garbage. Run under the asan-ubsan
// preset this doubles as an out-of-bounds-read detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/net/wire/frame.hpp"

namespace digruber::net {
namespace {

namespace proto = ::digruber::digruber;

// One valid frame plus a type-erased decoder for its body, so the sweeps
// below can corrupt any message without knowing its static type.
struct CorpusEntry {
  std::string name;
  Buffer frame;
  std::function<bool(std::span<const std::uint8_t>)> decode_body;
};

template <class T>
CorpusEntry entry(std::string name, std::uint16_t method, wire::FrameKind kind,
                  const T& msg, std::int64_t deadline_us = 0,
                  bool checksum = false) {
  return {std::move(name),
          wire::make_frame(method, kind, 77, msg, deadline_us, checksum),
          [](std::span<const std::uint8_t> body) {
            T out;
            return wire::decode(body, out);
          }};
}

proto::GetSiteLoadsReply make_loads_reply(bool with_hints) {
  proto::GetSiteLoadsReply reply;
  for (std::uint64_t i = 0; i < 5; ++i) {
    gruber::SiteLoad load;
    load.site = SiteId(i);
    load.total_cpus = 64;
    load.free_estimate = std::int32_t(i * 3);
    load.raw_free = load.free_estimate;
    load.queued = 2;
    reply.candidates.push_back(load);
  }
  reply.as_of = sim::Time::from_seconds(12.5);
  if (with_hints) {
    proto::DpLoadHint hint;
    hint.node = 9;
    hint.queue_depth = 4;
    hint.utilization = 0.7;
    hint.est_wait_s = 1.25;
    reply.dp_loads.push_back(hint);
  }
  return reply;
}

// Price-bearing reply: the dp_prices trailer stacks after membership,
// digest, and degraded, so attaching it forces all three (defaults are
// no-ops on receivers — the same rule the DP attach path follows).
proto::GetSiteLoadsReply make_priced_reply() {
  proto::GetSiteLoadsReply reply = make_loads_reply(true);
  reply.has_membership = true;
  reply.has_digest = true;
  reply.has_degraded = true;
  reply.dp_prices = {3.25};  // aligned index-wise with dp_loads
  return reply;
}

proto::ExchangeMessage make_exchange(bool with_hint) {
  proto::ExchangeMessage msg;
  msg.from = DpId(3);
  msg.exchange_round = 41;
  for (std::uint64_t i = 0; i < 4; ++i) {
    gruber::DispatchRecord r;
    r.origin = DpId(i % 2);
    r.seq = i;
    r.site = SiteId(i);
    r.vo = VoId(1);
    r.group = GroupId(2);
    r.user = UserId(3);
    r.cpus = 1;
    r.when = sim::Time::from_seconds(double(i));
    r.est_runtime = sim::Duration::seconds(450);
    msg.dispatches.push_back(r);
  }
  grid::SiteSnapshot snap;
  snap.site = SiteId(1);
  snap.total_cpus = 128;
  snap.free_cpus = 32;
  snap.queued_jobs = 5;
  snap.running_per_vo[VoId(1)] = 7;
  snap.total_storage_bytes = 1 << 20;
  snap.free_storage_bytes = 1 << 18;
  snap.storage_per_vo[VoId(1)] = 1 << 16;
  snap.as_of = sim::Time::from_seconds(40.0);
  msg.snapshots.push_back(snap);
  if (with_hint) {
    msg.has_load = true;
    msg.load.node = 12;
    msg.load.queue_depth = 9;
    msg.load.utilization = 0.4;
    msg.load.est_wait_s = 0.2;
  }
  return msg;
}

// Price-flooding exchange: the price trailer stacks fourth, forcing
// load, membership, and an empty digest ("no digest", not divergence).
proto::ExchangeMessage make_priced_exchange() {
  proto::ExchangeMessage msg = make_exchange(true);
  msg.has_membership = true;
  msg.has_digest = true;
  msg.has_price = true;
  msg.price = 5.75;
  return msg;
}

// Sparse-overlay exchange: the hop trailer stacks fifth (batch-max depth
// plus per-record depths), forcing the four trailers before it.
proto::ExchangeMessage make_hopped_exchange() {
  proto::ExchangeMessage msg = make_exchange(true);
  msg.has_membership = true;
  msg.has_digest = true;
  msg.has_price = true;
  msg.price = 5.75;
  msg.has_hops = true;
  msg.hops = 3;
  msg.hop_depths = {0, 1, 3, 2};  // one depth per dispatch record
  return msg;
}

proto::PullReply make_pull_reply() {
  const proto::ExchangeMessage exchange = make_exchange(true);
  proto::PullReply reply;
  reply.from = DpId(1);
  reply.records = exchange.dispatches;
  reply.bases = exchange.snapshots;
  reply.digest.as_of = sim::Time::from_seconds(30.0);
  reply.digest.horizon = sim::Time::from_seconds(95.0);
  reply.digest.base_hash = 0x0123456789abcdefULL;
  gruber::VoDigest vo;
  vo.vo = VoId(1);
  vo.hash = 0xfeedULL;
  vo.records = 4;
  vo.cpus = 4;
  reply.digest.vos.push_back(vo);
  reply.digest.epochs.push_back(gruber::OriginEpoch{DpId(0), 2, 2});
  reply.membership.epoch = 6;
  reply.membership.members.push_back(
      proto::MemberInfo{DpId(1), 11, proto::MemberState::kAlive, 2});
  reply.membership.members.push_back(
      proto::MemberInfo{DpId(4), 14, proto::MemberState::kSuspect, 0});
  reply.hints.push_back(exchange.load);
  return reply;
}

// Every message the protocol can put on the wire, including the optional
// trailing-field variants, the v2 deadline frame, and the OverloadNack.
std::vector<CorpusEntry> corpus() {
  using wire::FrameKind;
  using proto::Method;
  std::vector<CorpusEntry> out;

  proto::GetSiteLoadsRequest loads_req;
  loads_req.job = JobId(100);
  loads_req.vo = VoId(1);
  loads_req.group = GroupId(2);
  loads_req.user = UserId(3);
  loads_req.cpus = 4;
  out.push_back(entry("GetSiteLoadsRequest", Method::kGetSiteLoads,
                      FrameKind::kRequest, loads_req));
  out.push_back(entry("GetSiteLoadsRequest.v2deadline", Method::kGetSiteLoads,
                      FrameKind::kRequest, loads_req, 123'456'789));
  out.push_back(entry("GetSiteLoadsReply", Method::kGetSiteLoads,
                      FrameKind::kReply, make_loads_reply(false)));
  out.push_back(entry("GetSiteLoadsReply.hints", Method::kGetSiteLoads,
                      FrameKind::kReply, make_loads_reply(true)));
  out.push_back(entry("GetSiteLoadsReply.prices", Method::kGetSiteLoads,
                      FrameKind::kReply, make_priced_reply()));

  proto::GetSiteLoadsRequest bid_req = loads_req;
  bid_req.has_epoch = true;  // the bid trailer stacks after the epoch
  bid_req.has_bid = true;
  bid_req.budget = 42.5;
  bid_req.deadline_s = 1800.0;
  out.push_back(entry("GetSiteLoadsRequest.bid", Method::kGetSiteLoads,
                      FrameKind::kRequest, bid_req));

  proto::ReportSelectionRequest sel;
  sel.job = JobId(100);
  sel.site = SiteId(7);
  sel.vo = VoId(1);
  sel.group = GroupId(2);
  sel.user = UserId(3);
  sel.cpus = 4;
  sel.est_runtime = sim::Duration::seconds(900);
  out.push_back(entry("ReportSelectionRequest", Method::kReportSelection,
                      FrameKind::kRequest, sel));
  out.push_back(entry("ReportSelectionRequest.v2deadline",
                      Method::kReportSelection, FrameKind::kRequest, sel,
                      10'000'000));
  proto::ReportSelectionRequest priced_sel = sel;
  priced_sel.has_bid = true;
  priced_sel.budget = 42.5;
  priced_sel.deadline_s = 1800.0;
  out.push_back(entry("ReportSelectionRequest.bid", Method::kReportSelection,
                      FrameKind::kRequest, priced_sel));
  proto::ReportSelectionRequest rid_sel = sel;
  rid_sel.has_request_id = true;  // stacks after the (forced) bid bytes
  rid_sel.request_client = 31;
  rid_sel.request_seq = 7;
  out.push_back(entry("ReportSelectionRequest.rid", Method::kReportSelection,
                      FrameKind::kRequest, rid_sel));
  out.push_back(
      entry("Ack", Method::kReportSelection, FrameKind::kReply, proto::Ack{}));
  proto::Ack dedup_ack;
  dedup_ack.has_original = true;
  dedup_ack.original_site = SiteId(7);
  out.push_back(entry("Ack.original", Method::kReportSelection,
                      FrameKind::kReply, dedup_ack));

  out.push_back(entry("ExchangeMessage", Method::kExchange, FrameKind::kOneWay,
                      make_exchange(false)));
  out.push_back(entry("ExchangeMessage.hint", Method::kExchange,
                      FrameKind::kOneWay, make_exchange(true)));
  out.push_back(entry("ExchangeMessage.price", Method::kExchange,
                      FrameKind::kOneWay, make_priced_exchange()));
  out.push_back(entry("ExchangeMessage.hops", Method::kExchange,
                      FrameKind::kOneWay, make_hopped_exchange()));
  out.push_back(entry("ExchangeMessage.hops.v3checksum", Method::kExchange,
                      FrameKind::kOneWay, make_hopped_exchange(),
                      /*deadline_us=*/0, /*checksum=*/true));
  out.push_back(entry("ExchangeMessage.v3checksum", Method::kExchange,
                      FrameKind::kOneWay, make_exchange(true),
                      /*deadline_us=*/0, /*checksum=*/true));
  out.push_back(entry("ExchangeMessage.price.v3checksum", Method::kExchange,
                      FrameKind::kOneWay, make_priced_exchange(),
                      /*deadline_us=*/0, /*checksum=*/true));
  out.push_back(entry("GetSiteLoadsReply.v3checksum", Method::kGetSiteLoads,
                      FrameKind::kReply, make_loads_reply(true),
                      /*deadline_us=*/0, /*checksum=*/true));

  proto::CreateInstanceRequest create;
  create.nonce = 0xdeadbeef;
  create.payload = std::string(256, 'x');
  out.push_back(entry("CreateInstanceRequest", Method::kCreateInstance,
                      FrameKind::kRequest, create));
  proto::CreateInstanceReply created;
  created.nonce = 0xdeadbeef;
  created.instance = 17;
  out.push_back(entry("CreateInstanceReply", Method::kCreateInstance,
                      FrameKind::kReply, created));

  // One pull request per reason, and a reply carrying every part a reason
  // can ask for: records, bases, a digest, a membership update and hints.
  const std::pair<const char*, proto::PullReason> reasons[] = {
      {"PullRequest.catchup", proto::PullReason::kCatchUp},
      {"PullRequest.join", proto::PullReason::kJoin},
      {"PullRequest.delta", proto::PullReason::kDelta},
  };
  for (const auto& [name, reason] : reasons) {
    proto::PullRequest pull;
    pull.from = DpId(2);
    pull.reason = reason;
    pull.vos = {VoId(0), VoId(1), VoId(3)};
    pull.want_bases = reason != proto::PullReason::kCatchUp;
    out.push_back(entry(name, Method::kPull, FrameKind::kRequest, pull));
  }
  out.push_back(entry("PullReply", Method::kPull, FrameKind::kReply,
                      make_pull_reply()));
  out.push_back(entry("PullReply.v3checksum", Method::kPull, FrameKind::kReply,
                      make_pull_reply(), /*deadline_us=*/0,
                      /*checksum=*/true));

  proto::SaturationSignal saturation;
  saturation.from = DpId(4);
  saturation.avg_response_s = 2.5;
  saturation.observed_qps = 40.0;
  saturation.queue_depth = 12;
  out.push_back(entry("SaturationSignal", Method::kSaturation,
                      FrameKind::kOneWay, saturation));

  wire::OverloadNack nack;
  nack.reason = 1;
  nack.retry_after_us = 750'000;
  out.push_back(entry("OverloadNack", Method::kGetSiteLoads,
                      FrameKind::kOverloaded, nack));

  return out;
}

// Parse + (when a body survived) decode. The only hard guarantee fuzzed
// inputs get is "no throw, no out-of-bounds"; callers check the returned
// parse result for the cases with a defined outcome.
wire::FrameParse parse_and_decode(const CorpusEntry& e,
                                  std::span<const std::uint8_t> bytes) {
  wire::FrameHeader header;
  std::span<const std::uint8_t> body;
  const wire::FrameParse result = wire::parse_frame_ex(bytes, header, body);
  if (result != wire::FrameParse::kBadHeader) {
    // Body decode on corrupt input may fail or may (for messages with
    // optional trailing fields) succeed on a shorter valid encoding; it
    // must simply never misbehave.
    (void)e.decode_body(body);
  }
  return result;
}

TEST(WireFuzz, FullFramesParseAndDecode) {
  for (const CorpusEntry& e : corpus()) {
    wire::FrameHeader header;
    std::span<const std::uint8_t> body;
    ASSERT_EQ(wire::parse_frame_ex(e.frame, header, body),
              wire::FrameParse::kOk)
        << e.name;
    EXPECT_EQ(body.size(), header.body_size) << e.name;
    EXPECT_TRUE(e.decode_body(body)) << e.name;
  }
}

TEST(WireFuzz, EveryTruncationIsRejected) {
  for (const CorpusEntry& e : corpus()) {
    const std::vector<std::uint8_t> bytes = e.frame.to_vector();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      // A strict prefix can never be kOk: either the header is cut short
      // (kBadHeader) or body_size exceeds what's left (kBodySizeMismatch).
      EXPECT_NE(parse_and_decode(e, prefix), wire::FrameParse::kOk)
          << e.name << " truncated to " << len;
    }
  }
}

TEST(WireFuzz, BitFlipsNeverThrowOrOverread) {
  Rng rng(0x5eed);
  for (const CorpusEntry& e : corpus()) {
    const std::vector<std::uint8_t> original = e.frame.to_vector();
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> mutated = original;
      // 1-3 independent bit flips anywhere in the frame (header or body).
      const std::uint64_t flips = 1 + rng.uniform_index(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t bit = rng.uniform_index(mutated.size() * 8);
        mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
      }
      wire::FrameHeader header;
      std::span<const std::uint8_t> body;
      const wire::FrameParse result =
          wire::parse_frame_ex(mutated, header, body);
      if (result == wire::FrameParse::kOk) {
        // A flip confined to the body keeps the frame well-formed; the
        // typed decode still must not misbehave on the damaged payload.
        EXPECT_EQ(body.size(), header.body_size) << e.name;
        (void)e.decode_body(body);
      }
    }
  }
}

TEST(WireFuzz, HostileBodySizeInHeaderIsAMismatch) {
  for (const CorpusEntry& e : corpus()) {
    std::vector<std::uint8_t> bytes = e.frame.to_vector();
    // body_size sits after version(2) + method(2) + kind(1) +
    // correlation(8) in both v1 and v2 layouts.
    const std::size_t offset = 2 + 2 + 1 + 8;
    ASSERT_GE(bytes.size(), offset + 4) << e.name;
    for (std::size_t i = 0; i < 4; ++i) bytes[offset + i] = 0xff;
    wire::FrameHeader header;
    std::span<const std::uint8_t> body;
    EXPECT_EQ(wire::parse_frame_ex(bytes, header, body),
              wire::FrameParse::kBodySizeMismatch)
        << e.name;
  }
}

TEST(WireFuzz, ChecksumCatchesEveryPayloadBitFlip) {
  // A v1 frame has no payload integrity at all: a body flip that keeps the
  // encoding well-formed silently decodes to wrong values. The v3 trailer
  // closes exactly that gap, so the guarantee worth pinning is total: EVERY
  // single-bit flip anywhere in body or trailer must surface as
  // kBadChecksum — never kOk, never a quiet decode of damaged data.
  const proto::ExchangeMessage msg = make_exchange(true);
  const net::Buffer frame =
      wire::make_frame(proto::Method::kExchange, wire::FrameKind::kOneWay, 7,
                       msg, /*deadline_us=*/0, /*checksum=*/true);
  const std::vector<std::uint8_t> bytes = frame.to_vector();

  wire::FrameHeader header;
  std::span<const std::uint8_t> body;
  ASSERT_EQ(wire::parse_frame_ex(bytes, header, body), wire::FrameParse::kOk);
  ASSERT_EQ(header.version, wire::FrameHeader::kChecksumVersion);
  const std::size_t body_offset = std::size_t(body.data() - bytes.data());

  for (std::size_t bit = body_offset * 8; bit < bytes.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    wire::FrameHeader h;
    std::span<const std::uint8_t> b;
    EXPECT_EQ(wire::parse_frame_ex(mutated, h, b),
              wire::FrameParse::kBadChecksum)
        << "bit " << bit;
  }
}

TEST(WireFuzz, ChecksumFrameWithoutTrailerIsAMismatch) {
  // Cutting the trailer off a v3 frame (or an attacker rewriting version
  // 1 -> 3 on a trailerless frame) must read as a size mismatch, not as a
  // short body with the last 4 payload bytes misread as a CRC.
  const net::Buffer frame =
      wire::make_frame(proto::Method::kGetSiteLoads, wire::FrameKind::kReply,
                       7, make_loads_reply(false), /*deadline_us=*/0,
                       /*checksum=*/true);
  std::vector<std::uint8_t> bytes = frame.to_vector();
  bytes.resize(bytes.size() - wire::FrameHeader::kChecksumTrailerSize);
  wire::FrameHeader header;
  std::span<const std::uint8_t> body;
  EXPECT_EQ(wire::parse_frame_ex(bytes, header, body),
            wire::FrameParse::kBodySizeMismatch);
}

TEST(WireFuzz, ChecksumSurvivesFuzzAndRoundtrips) {
  // Randomized complement to the exhaustive single-bit sweep: multi-bit
  // damage across header+body+trailer never throws, and an undamaged v3
  // frame keeps parsing kOk with the trailer stripped from the body span.
  Rng rng(0xc4c);
  const net::Buffer frame =
      wire::make_frame(proto::Method::kExchange, wire::FrameKind::kOneWay, 7,
                       make_exchange(false), /*deadline_us=*/0,
                       /*checksum=*/true);
  const std::vector<std::uint8_t> original = frame.to_vector();
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> mutated = original;
    const std::uint64_t flips = 1 + rng.uniform_index(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.uniform_index(mutated.size() * 8);
      mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
    wire::FrameHeader header;
    std::span<const std::uint8_t> body;
    const wire::FrameParse result =
        wire::parse_frame_ex(mutated, header, body);
    if (result == wire::FrameParse::kOk) {
      // Damage the checksum failed to catch can only live in the header
      // fields outside the CRC's coverage (e.g. the correlation id).
      proto::ExchangeMessage out;
      (void)wire::decode(body, out);
    }
  }
  wire::FrameHeader header;
  std::span<const std::uint8_t> body;
  ASSERT_EQ(wire::parse_frame_ex(original, header, body),
            wire::FrameParse::kOk);
  EXPECT_EQ(body.size(), header.body_size);
  proto::ExchangeMessage out;
  EXPECT_TRUE(wire::decode(body, out));
  EXPECT_EQ(out.exchange_round, 41u);
}

TEST(WireFuzz, HostileVectorLengthPrefixFailsCleanly) {
  // The first bytes of a GetSiteLoadsReply body are the candidates count;
  // claim 2^32-1 elements and the Reader must refuse (each element needs
  // >= 1 byte) without allocating or overreading.
  const std::vector<std::uint8_t> encoded =
      wire::encode(make_loads_reply(false));
  std::vector<std::uint8_t> hostile = encoded;
  for (std::size_t i = 0; i < 4; ++i) hostile[i] = 0xff;
  proto::GetSiteLoadsReply out;
  EXPECT_FALSE(wire::decode(std::span<const std::uint8_t>(hostile), out));
  EXPECT_TRUE(out.candidates.empty());

  // Same for a string length prefix (CreateInstanceRequest.payload, which
  // follows the 8-byte nonce).
  proto::CreateInstanceRequest create;
  create.nonce = 5;
  create.payload = "hello";
  std::vector<std::uint8_t> hostile_str = wire::encode(create);
  for (std::size_t i = 0; i < 4; ++i) hostile_str[8 + i] = 0xff;
  proto::CreateInstanceRequest out_create;
  EXPECT_FALSE(
      wire::decode(std::span<const std::uint8_t>(hostile_str), out_create));
  EXPECT_TRUE(out_create.payload.empty());
}

TEST(WireFuzz, FailedDecodeYieldsZeroValues) {
  // Reads past the end zero their targets instead of leaving garbage.
  proto::SaturationSignal out;
  out.from = DpId(9);
  out.avg_response_s = 3.5;
  out.observed_qps = 10.0;
  out.queue_depth = 7;
  EXPECT_FALSE(wire::decode(std::span<const std::uint8_t>{}, out));
  EXPECT_EQ(out.from.value(), 0u);
  EXPECT_EQ(out.avg_response_s, 0.0);
  EXPECT_EQ(out.observed_qps, 0.0);
  EXPECT_EQ(out.queue_depth, 0);
}

TEST(WireFuzz, BidAndPriceTrailersRoundTripAndStayOptional) {
  // Values survive the trailer encoding...
  proto::ReportSelectionRequest sel;
  sel.job = JobId(100);
  sel.site = SiteId(7);
  sel.has_bid = true;
  sel.budget = 42.5;
  sel.deadline_s = 1800.0;
  proto::ReportSelectionRequest sel_out;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(wire::encode(sel)),
                           sel_out));
  EXPECT_TRUE(sel_out.has_bid);
  EXPECT_DOUBLE_EQ(sel_out.budget, 42.5);
  EXPECT_DOUBLE_EQ(sel_out.deadline_s, 1800.0);

  const proto::GetSiteLoadsReply priced = make_priced_reply();
  proto::GetSiteLoadsReply priced_out;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(wire::encode(priced)),
                           priced_out));
  ASSERT_EQ(priced_out.dp_prices.size(), 1u);
  EXPECT_DOUBLE_EQ(priced_out.dp_prices[0], 3.25);

  const proto::ExchangeMessage flood = make_priced_exchange();
  proto::ExchangeMessage flood_out;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(wire::encode(flood)),
                           flood_out));
  EXPECT_TRUE(flood_out.has_price);
  EXPECT_DOUBLE_EQ(flood_out.price, 5.75);

  // ...and an absent bid leaves the legacy bytes untouched: the economic
  // fields are a pure suffix, never a layout change.
  proto::ReportSelectionRequest legacy = sel;
  legacy.has_bid = false;
  const std::vector<std::uint8_t> legacy_bytes = wire::encode(legacy);
  const std::vector<std::uint8_t> bid_bytes = wire::encode(sel);
  ASSERT_LT(legacy_bytes.size(), bid_bytes.size());
  EXPECT_TRUE(std::equal(legacy_bytes.begin(), legacy_bytes.end(),
                         bid_bytes.begin()));
}

TEST(WireFuzz, HopsTrailerRoundTripsAndStaysOptional) {
  // Values survive the fifth trailer slot, per-record depths included.
  const proto::ExchangeMessage hopped = make_hopped_exchange();
  proto::ExchangeMessage out;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(wire::encode(hopped)),
                           out));
  EXPECT_TRUE(out.has_hops);
  EXPECT_EQ(out.hops, 3u);
  EXPECT_EQ(out.hop_depths, (std::vector<std::uint32_t>{0, 1, 3, 2}));
  // The hop trailer stacks fifth: every earlier trailer must have
  // survived alongside it.
  EXPECT_TRUE(out.has_price);
  EXPECT_TRUE(out.has_digest);
  EXPECT_TRUE(out.has_membership);

  // Empty hop_depths is the "all records at depth zero" encoding a
  // first-hop frame uses; it must round-trip as empty, not as garbage.
  proto::ExchangeMessage first_hop = make_exchange(true);
  first_hop.has_membership = true;
  first_hop.has_digest = true;
  first_hop.has_price = true;
  first_hop.has_hops = true;
  first_hop.hops = 0;
  proto::ExchangeMessage first_out;
  ASSERT_TRUE(wire::decode(
      std::span<const std::uint8_t>(wire::encode(first_hop)), first_out));
  EXPECT_TRUE(first_out.has_hops);
  EXPECT_EQ(first_out.hops, 0u);
  EXPECT_TRUE(first_out.hop_depths.empty());

  // A mesh frame (no hop trailer) keeps the legacy bytes: the overlay
  // fields are a pure suffix, never a layout change.
  proto::ExchangeMessage mesh = make_hopped_exchange();
  mesh.has_hops = false;
  mesh.hops = 0;
  mesh.hop_depths.clear();
  const std::vector<std::uint8_t> mesh_bytes = wire::encode(mesh);
  const std::vector<std::uint8_t> hop_bytes = wire::encode(hopped);
  ASSERT_LT(mesh_bytes.size(), hop_bytes.size());
  EXPECT_TRUE(std::equal(mesh_bytes.begin(), mesh_bytes.end(),
                         hop_bytes.begin()));
  proto::ExchangeMessage mesh_out;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(mesh_bytes),
                           mesh_out));
  EXPECT_FALSE(mesh_out.has_hops);
}

TEST(WireFuzz, RequestIdTrailerRoundTripsAndStaysOptional) {
  // The request-id trailer stacks after the bid bytes, so stamping a
  // report forces a (possibly all-zero) bid — same stacking rule every
  // optional trailer in the protocol follows.
  proto::ReportSelectionRequest sel;
  sel.job = JobId(100);
  sel.site = SiteId(7);
  sel.has_request_id = true;
  sel.request_client = 31;
  sel.request_seq = 9;
  proto::ReportSelectionRequest out;
  ASSERT_TRUE(
      wire::decode(std::span<const std::uint8_t>(wire::encode(sel)), out));
  EXPECT_TRUE(out.has_request_id);
  EXPECT_EQ(out.request_client, 31u);
  EXPECT_EQ(out.request_seq, 9u);
  // The forced bid bytes decode as present-but-zero; the broker's pricing
  // guard (budget > 0 || deadline > 0) treats that as "no bid".
  EXPECT_TRUE(out.has_bid);
  EXPECT_EQ(out.budget, 0.0);
  EXPECT_EQ(out.deadline_s, 0.0);

  // An unstamped report keeps the legacy bytes: pure suffix, no layout
  // change.
  proto::ReportSelectionRequest legacy = sel;
  legacy.has_request_id = false;
  const std::vector<std::uint8_t> legacy_bytes = wire::encode(legacy);
  const std::vector<std::uint8_t> rid_bytes = wire::encode(sel);
  ASSERT_LT(legacy_bytes.size(), rid_bytes.size());
  EXPECT_TRUE(std::equal(legacy_bytes.begin(), legacy_bytes.end(),
                         rid_bytes.begin()));

  // The dedup-hit ack trailer round-trips the original placement.
  proto::Ack ack;
  ack.has_original = true;
  ack.original_site = SiteId(5);
  proto::Ack ack_out;
  ASSERT_TRUE(
      wire::decode(std::span<const std::uint8_t>(wire::encode(ack)), ack_out));
  EXPECT_TRUE(ack_out.has_original);
  EXPECT_EQ(ack_out.original_site, SiteId(5));
}

TEST(WireFuzz, PullFramesRoundTripEveryField) {
  const proto::PullReply reply = make_pull_reply();
  proto::PullReply out;
  ASSERT_TRUE(
      wire::decode(std::span<const std::uint8_t>(wire::encode(reply)), out));
  EXPECT_EQ(out.from, reply.from);
  EXPECT_EQ(out.records, reply.records);
  ASSERT_EQ(out.bases.size(), reply.bases.size());
  EXPECT_EQ(out.bases[0].free_cpus, reply.bases[0].free_cpus);
  EXPECT_TRUE(out.digest == reply.digest);
  EXPECT_EQ(out.digest.horizon, reply.digest.horizon);
  EXPECT_EQ(out.membership.epoch, 6u);
  ASSERT_EQ(out.membership.members.size(), 2u);
  EXPECT_EQ(out.membership.members[1].state, proto::MemberState::kSuspect);
  ASSERT_EQ(out.hints.size(), 1u);
  EXPECT_EQ(out.hints[0].node, 12u);

  // The archive casts the reason byte without a range check: an
  // out-of-range reason decodes, so the server must refuse it itself.
  proto::PullRequest request;
  request.from = DpId(2);
  request.vos = {VoId(1)};
  std::vector<std::uint8_t> bytes = wire::encode(request);
  const std::size_t reason_offset = wire::encode(request.from).size();
  ASSERT_EQ(bytes[reason_offset], 0u);
  bytes[reason_offset] = 7;
  proto::PullRequest hostile;
  ASSERT_TRUE(wire::decode(std::span<const std::uint8_t>(bytes), hostile));
  EXPECT_EQ(std::uint8_t(hostile.reason), 7u);
  EXPECT_EQ(hostile.vos, request.vos);
}

// ---------------------------------------------------------------------------
// WAL + checkpoint image fuzz: the on-disk framing makes the same promise
// the wire makes — hostile lengths, torn tails, and flipped bits terminate
// the scan cleanly (no throw, no overread). Run under asan-ubsan this is
// the recovery path's out-of-bounds detector.

std::vector<std::uint8_t> wal_corpus_log() {
  durable::SimDisk disk({}, 0x3a11);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> payload(24 + std::size_t(i) * 8,
                                            std::uint8_t(0xA0 + i));
    durable::wal_append(disk, i, payload);
  }
  return disk.log();
}

TEST(WireFuzz, WalScanOfEveryTornPrefixTerminatesCleanly) {
  const std::vector<std::uint8_t> log = wal_corpus_log();
  const durable::WalScan full = durable::wal_scan(log, [](auto, auto) {});
  ASSERT_EQ(full.frames, 3u);
  ASSERT_FALSE(full.truncated);

  for (std::size_t len = 0; len < log.size(); ++len) {
    const std::span<const std::uint8_t> prefix(log.data(), len);
    std::uint64_t delivered = 0;
    const durable::WalScan scan = durable::wal_scan(
        prefix, [&](std::uint8_t, std::span<const std::uint8_t> p) {
          ++delivered;
          // Every delivered payload must lie inside the prefix.
          ASSERT_GE(p.data(), log.data());
          ASSERT_LE(p.data() + p.size(), log.data() + len);
        });
    EXPECT_EQ(scan.frames, delivered);
    EXPECT_LE(scan.valid_bytes, len);
    // A strict prefix either ends exactly on a frame boundary (fewer
    // frames, not truncated) or mid-frame (truncated).
    if (!scan.truncated) {
      EXPECT_LT(scan.frames, 3u);
    }
  }
}

TEST(WireFuzz, WalScanSurvivesEverySingleBitFlip) {
  const std::vector<std::uint8_t> log = wal_corpus_log();
  for (std::size_t bit = 0; bit < log.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = log;
    mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    const durable::WalScan scan = durable::wal_scan(mutated, [](auto, auto) {});
    // Every byte belongs to some frame, so one flip always kills exactly
    // the frame containing it: the scan stops there.
    EXPECT_TRUE(scan.truncated) << "bit " << bit;
    EXPECT_LT(scan.frames, 3u) << "bit " << bit;
  }
}

TEST(WireFuzz, WalHostileLengthPrefixFailsCleanly) {
  for (const std::uint32_t hostile :
       {std::uint32_t(0), std::uint32_t(0xffffffff), std::uint32_t(1u << 30)}) {
    std::vector<std::uint8_t> log = wal_corpus_log();
    for (std::size_t i = 0; i < 4; ++i) {
      log[i] = std::uint8_t(hostile >> (8 * i));
    }
    const durable::WalScan scan = durable::wal_scan(log, [](auto, auto) {});
    EXPECT_TRUE(scan.truncated) << hostile;
    EXPECT_EQ(scan.frames, 0u) << hostile;
  }
}

TEST(WireFuzz, WalRandomGarbageNeverThrows) {
  Rng rng(0xd15c);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(96));
    for (std::uint8_t& b : garbage) b = std::uint8_t(rng.uniform_index(256));
    (void)durable::wal_scan(garbage, [](auto, auto) {});
    (void)durable::read_checkpoint_image(garbage);
  }
}

TEST(WireFuzz, CheckpointImageRejectsEverySingleBitFlip) {
  const std::vector<std::uint8_t> payload(64, 0x5c);
  const std::vector<std::uint8_t> image =
      durable::make_checkpoint_image(payload);
  ASSERT_TRUE(durable::read_checkpoint_image(image).has_value());
  for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = image;
    mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    EXPECT_FALSE(durable::read_checkpoint_image(mutated).has_value())
        << "bit " << bit;
  }
}

TEST(WireFuzz, RandomGarbageNeverThrows) {
  Rng rng(0xfacade);
  const std::vector<CorpusEntry> entries = corpus();
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(64));
    for (std::uint8_t& b : garbage) b = std::uint8_t(rng.uniform_index(256));
    for (const CorpusEntry& e : entries) (void)parse_and_decode(e, garbage);
  }
}

}  // namespace
}  // namespace digruber::net
