// Fuzz-style robustness sweep over the wire layer. The Reader's contract
// (archive.hpp) is that hostile input never throws, never reads out of
// bounds, and failed reads yield zero values — these tests drive that
// contract with deterministic Rng-generated corruption over every protocol
// message the broker ships: truncation at every prefix, random bit flips,
// hostile length prefixes, and outright garbage. Run under the asan-ubsan
// preset this doubles as an out-of-bounds-read detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/digruber/durability.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/net/wire/frame.hpp"

namespace digruber::net {
namespace {

namespace proto = ::digruber::digruber;

// The message with every extension dropped: what a sender with all
// features off puts on the wire.
template <class T>
T strip(T msg) {
  return msg;
}
proto::GetSiteLoadsRequest strip(proto::GetSiteLoadsRequest msg) {
  msg.membership_epoch.reset();
  return msg;
}
proto::GetSiteLoadsReply strip(proto::GetSiteLoadsReply msg) {
  msg.dp_loads.reset();
  msg.membership.reset();
  msg.digest.reset();
  msg.degraded.reset();
  msg.dp_prices.reset();
  return msg;
}
proto::ReportSelectionRequest strip(proto::ReportSelectionRequest msg) {
  msg.bid.reset();
  msg.request_id.reset();
  return msg;
}
proto::Ack strip(proto::Ack msg) {
  msg.original_site.reset();
  return msg;
}
proto::ExchangeMessage strip(proto::ExchangeMessage msg) {
  msg.load.reset();
  msg.membership.reset();
  msg.digest.reset();
  msg.price.reset();
  msg.hops.reset();
  return msg;
}

using Bytes = std::vector<std::uint8_t>;

// Decode `body` as a T and encode it again; nullopt when decode fails.
template <class T>
std::optional<Bytes> reencode(std::span<const std::uint8_t> body) {
  T out;
  if (!wire::decode(body, out)) return std::nullopt;
  return wire::encode(out);
}

// One valid frame plus type-erased codecs for its body, so the sweeps
// below can corrupt any message without knowing its static type.
struct CorpusEntry {
  std::string name;
  Buffer frame;
  std::function<bool(std::span<const std::uint8_t>)> decode_body;
  std::function<std::optional<Bytes>(std::span<const std::uint8_t>)> reencode;
  /// The body with every extension dropped (the whole body when the
  /// message carries none).
  Bytes legacy_body;
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
          },
          &reencode<T>, wire::encode(strip(msg))};
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
    reply.dp_loads.emplace().push_back(hint);
  }
  return reply;
}

// An economy reply: hints and prices, with a gap in the tags between them.
proto::GetSiteLoadsReply make_priced_reply() {
  proto::GetSiteLoadsReply reply = make_loads_reply(true);
  reply.dp_prices = std::vector<double>{3.25};  // aligned with dp_loads
  return reply;
}

gruber::ViewDigest make_digest() {
  gruber::ViewDigest digest;
  digest.as_of = sim::Time::from_seconds(30.0);
  digest.horizon = sim::Time::from_seconds(95.0);
  digest.base_hash = 0x0123456789abcdefULL;
  gruber::VoDigest vo;
  vo.vo = VoId(1);
  vo.hash = 0xfeedULL;
  vo.records = 4;
  vo.cpus = 4;
  digest.vos.push_back(vo);
  digest.epochs.push_back(gruber::OriginEpoch{DpId(0), 2, 2});
  return digest;
}

proto::MembershipUpdate make_membership() {
  proto::MembershipUpdate update;
  update.epoch = 6;
  update.members.push_back(
      proto::MemberInfo{DpId(1), 11, proto::MemberState::kAlive, 2});
  update.members.push_back(
      proto::MemberInfo{DpId(4), 14, proto::MemberState::kSuspect, 0});
  return update;
}

// A reply carrying every extension.
proto::GetSiteLoadsReply make_full_reply() {
  proto::GetSiteLoadsReply reply = make_priced_reply();
  reply.membership = make_membership();
  reply.digest = make_digest();
  reply.degraded = proto::DegradedHint{1, 3, 2, 45'000'000};
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
  if (with_hint) msg.load = proto::DpLoadHint{12, 9, 0.4, 0.2};
  return msg;
}

// An economy-only exchange: load and price, with a gap in the tags.
proto::ExchangeMessage make_priced_exchange() {
  proto::ExchangeMessage msg = make_exchange(true);
  msg.price = 5.75;
  return msg;
}

// A sparse-overlay exchange carrying every extension, hops last.
proto::ExchangeMessage make_hopped_exchange() {
  proto::ExchangeMessage msg = make_priced_exchange();
  msg.membership = make_membership();
  msg.digest = make_digest();
  msg.hops = proto::Hops{3, {0, 1, 3, 2}};  // one depth per dispatch record
  return msg;
}

proto::PullReply make_pull_reply() {
  const proto::ExchangeMessage exchange = make_exchange(true);
  proto::PullReply reply;
  reply.from = DpId(1);
  reply.records = exchange.dispatches;
  reply.bases = exchange.snapshots;
  reply.digest = make_digest();
  reply.membership = make_membership();
  reply.hints.push_back(*exchange.load);
  return reply;
}

// Every message the protocol can put on the wire, including the variants
// that carry extensions, the v2 deadline frame, and the OverloadNack.
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
  out.push_back(entry("GetSiteLoadsReply.full", Method::kGetSiteLoads,
                      FrameKind::kReply, make_full_reply()));

  proto::GetSiteLoadsRequest epoch_req = loads_req;
  epoch_req.membership_epoch = 42;
  out.push_back(entry("GetSiteLoadsRequest.epoch", Method::kGetSiteLoads,
                      FrameKind::kRequest, epoch_req));

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
  priced_sel.bid = proto::Bid{42.5, 1800.0};
  out.push_back(entry("ReportSelectionRequest.bid", Method::kReportSelection,
                      FrameKind::kRequest, priced_sel));
  proto::ReportSelectionRequest rid_sel = sel;
  rid_sel.request_id = proto::RequestId{31, 7};
  out.push_back(entry("ReportSelectionRequest.rid", Method::kReportSelection,
                      FrameKind::kRequest, rid_sel));
  proto::ReportSelectionRequest priced_rid_sel = priced_sel;
  priced_rid_sel.request_id = rid_sel.request_id;
  out.push_back(entry("ReportSelectionRequest.bid.rid",
                      Method::kReportSelection, FrameKind::kRequest,
                      priced_rid_sel));
  out.push_back(
      entry("Ack", Method::kReportSelection, FrameKind::kReply, proto::Ack{}));
  proto::Ack dedup_ack;
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
    // Body decode on corrupt input may fail or may (for messages whose
    // extension block was cut whole) succeed on a shorter valid encoding;
    // it must simply never misbehave.
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

// ---------------------------------------------------------------------------
// Extension blocks: every optional field rides as (u8 tag, u32 length,
// payload) after the fixed fields, in ascending tag order.

std::uint32_t read_u32(const Bytes& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t(bytes[at + i]) << (8 * i);
  return v;
}

void put_u32(Bytes& bytes, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes.push_back(std::uint8_t(v >> (8 * i)));
}

struct ExtEntry {
  std::uint8_t tag;
  Bytes payload;
};

// Split a well-formed extension block into its entries.
std::vector<ExtEntry> split_block(const Bytes& body, std::size_t from) {
  std::vector<ExtEntry> out;
  std::size_t at = from;
  while (at < body.size()) {
    const std::uint32_t length = read_u32(body, at + 1);
    const auto payload = body.begin() + std::ptrdiff_t(at + wire::kExtHeader);
    out.push_back({body[at], Bytes(payload, payload + length)});
    at += wire::kExtHeader + length;
  }
  return out;
}

Bytes join_block(const Bytes& fixed, const std::vector<ExtEntry>& entries) {
  Bytes out = fixed;
  for (const ExtEntry& e : entries) {
    out.push_back(e.tag);
    put_u32(out, std::uint32_t(e.payload.size()));
    out.insert(out.end(), e.payload.begin(), e.payload.end());
  }
  return out;
}

template <class T>
using TagSetter = std::pair<std::uint8_t, std::function<void(T&)>>;

// Each tag alone, then all together: the block follows the legacy bytes,
// holds exactly the set fields under their tags, and every value survives
// a decode (re-encoding reproduces the bytes).
template <class T>
void expect_every_tag_round_trips(const T& base,
                                  const std::vector<TagSetter<T>>& tags) {
  const Bytes legacy = wire::encode(base);
  T all = base;
  std::vector<std::uint8_t> all_tags;
  for (const auto& [tag, set] : tags) {
    T msg = base;
    set(msg);
    set(all);
    all_tags.push_back(tag);
    const Bytes bytes = wire::encode(msg);
    ASSERT_GT(bytes.size(), legacy.size() + wire::kExtHeader) << int(tag);
    EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), bytes.begin()));
    const std::vector<ExtEntry> block = split_block(bytes, legacy.size());
    ASSERT_EQ(block.size(), 1u) << int(tag);
    EXPECT_EQ(block[0].tag, tag);
    EXPECT_EQ(reencode<T>(bytes), bytes) << int(tag);
  }
  const Bytes bytes = wire::encode(all);
  std::vector<std::uint8_t> seen;
  for (const ExtEntry& e : split_block(bytes, legacy.size())) seen.push_back(e.tag);
  EXPECT_EQ(seen, all_tags);
  EXPECT_EQ(reencode<T>(bytes), bytes);
  EXPECT_EQ(reencode<T>(legacy), legacy);
}

TEST(WireFuzz, EveryExtensionTagRoundTrips) {
  using Request = proto::GetSiteLoadsRequest;
  Request request;
  request.job = JobId(100);
  request.cpus = 4;
  expect_every_tag_round_trips<Request>(
      request, {{Request::kEpoch, [](Request& m) { m.membership_epoch = 42; }}});

  using Reply = proto::GetSiteLoadsReply;
  const Reply full = make_full_reply();
  expect_every_tag_round_trips<Reply>(
      strip(full),
      {{Reply::kLoads, [&](Reply& m) { m.dp_loads = full.dp_loads; }},
       {Reply::kMembership, [&](Reply& m) { m.membership = full.membership; }},
       {Reply::kDigest, [&](Reply& m) { m.digest = full.digest; }},
       {Reply::kDegraded, [&](Reply& m) { m.degraded = full.degraded; }},
       {Reply::kPrices, [&](Reply& m) { m.dp_prices = full.dp_prices; }}});

  using Report = proto::ReportSelectionRequest;
  Report report;
  report.job = JobId(100);
  report.site = SiteId(7);
  expect_every_tag_round_trips<Report>(
      report,
      {{Report::kBid, [](Report& m) { m.bid = proto::Bid{42.5, 1800.0}; }},
       {Report::kRequestId,
        [](Report& m) { m.request_id = proto::RequestId{31, 9}; }}});

  expect_every_tag_round_trips<proto::Ack>(
      proto::Ack{}, {{proto::Ack::kOriginalSite,
                      [](proto::Ack& m) { m.original_site = SiteId(5); }}});

  using Exchange = proto::ExchangeMessage;
  const Exchange hopped = make_hopped_exchange();
  expect_every_tag_round_trips<Exchange>(
      strip(hopped),
      {{Exchange::kLoad, [&](Exchange& m) { m.load = hopped.load; }},
       {Exchange::kMembership, [&](Exchange& m) { m.membership = hopped.membership; }},
       {Exchange::kDigest, [&](Exchange& m) { m.digest = hopped.digest; }},
       {Exchange::kPrice, [&](Exchange& m) { m.price = hopped.price; }},
       {Exchange::kHops, [&](Exchange& m) { m.hops = hopped.hops; }}});

  using Wal = proto::WalDispatch;
  Wal wal;
  wal.record = hopped.dispatches.front();
  wal.applied_at = sim::Time::from_seconds(7.0);
  expect_every_tag_round_trips<Wal>(
      wal, {{Wal::kRequestId,
             [](Wal& m) { m.request_id = proto::RequestId{31, 9}; }}});
}

TEST(WireFuzz, ExtensionBlockSweep) {
  // Longer than no known payload needs, shorter than any would.
  const Bytes unknown_payload = {0xde, 0xad, 0xbe};
  std::size_t swept = 0;
  std::size_t between = 0;
  for (const CorpusEntry& e : corpus()) {
    wire::FrameHeader header;
    std::span<const std::uint8_t> span;
    ASSERT_EQ(wire::parse_frame_ex(e.frame, header, span), wire::FrameParse::kOk);
    const Bytes body(span.begin(), span.end());
    const std::size_t fixed_size = e.legacy_body.size();
    if (fixed_size == body.size()) continue;  // no extensions
    ++swept;
    // The all-off encoding is the legacy bytes, a strict prefix of the
    // extended one, and decodes with every extension absent.
    ASSERT_LT(fixed_size, body.size()) << e.name;
    const Bytes fixed(body.begin(), body.begin() + std::ptrdiff_t(fixed_size));
    EXPECT_EQ(fixed, e.legacy_body) << e.name;
    EXPECT_EQ(e.reencode(fixed), fixed) << e.name;

    const std::vector<ExtEntry> entries = split_block(body, fixed_size);
    ASSERT_EQ(join_block(fixed, entries), body) << e.name;
    const auto rejects = [&](const std::vector<ExtEntry>& mutated) {
      return !e.decode_body(join_block(fixed, mutated));
    };

    // Every cut inside the block: one inside an entry fails; one on an
    // entry boundary is the shorter block of the entries before it (on
    // the wire the frame's body size rejects it, see
    // EveryTruncationIsRejected).
    std::size_t boundary = fixed_size;
    std::size_t kept = 0;
    for (std::size_t cut = fixed_size + 1; cut < body.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(body.data(), cut);
      if (cut == boundary + wire::kExtHeader + entries[kept].payload.size()) {
        boundary = cut;
        ++kept;
        const std::vector<ExtEntry> before(entries.begin(),
                                           entries.begin() + std::ptrdiff_t(kept));
        EXPECT_EQ(e.reencode(prefix), join_block(fixed, before))
            << e.name << " cut at " << cut;
      } else {
        EXPECT_FALSE(e.decode_body(prefix)) << e.name << " cut at " << cut;
      }
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      // A repeated tag.
      std::vector<ExtEntry> repeated = entries;
      repeated.insert(repeated.begin() + std::ptrdiff_t(i), entries[i]);
      EXPECT_TRUE(rejects(repeated)) << e.name << " repeats tag " << int(entries[i].tag);
      // A known payload one byte short, and one byte long.
      std::vector<ExtEntry> shorter = entries;
      shorter[i].payload.pop_back();
      EXPECT_TRUE(rejects(shorter)) << e.name << " short tag " << int(entries[i].tag);
      std::vector<ExtEntry> longer = entries;
      longer[i].payload.push_back(0);
      EXPECT_TRUE(rejects(longer)) << e.name << " long tag " << int(entries[i].tag);
      // A length past the end.
      Bytes past = join_block(fixed, entries);
      std::size_t at = fixed_size;
      for (std::size_t k = 0; k < i; ++k) at += wire::kExtHeader + entries[k].payload.size();
      const std::uint32_t beyond = std::uint32_t(past.size() - at - wire::kExtHeader + 1);
      for (std::size_t b = 0; b < 4; ++b) past[at + 1 + b] = std::uint8_t(beyond >> (8 * b));
      EXPECT_FALSE(e.decode_body(past)) << e.name << " overlong tag " << int(entries[i].tag);
    }
    // An out-of-order tag: two known ones swapped.
    for (std::size_t i = 1; i < entries.size(); ++i) {
      std::vector<ExtEntry> swapped = entries;
      std::swap(swapped[i - 1], swapped[i]);
      EXPECT_TRUE(rejects(swapped)) << e.name << " swaps entry " << i;
    }

    // Unknown tags before, between and after the known ones are skipped,
    // and the known values survive.
    for (std::size_t pos = 0; pos <= entries.size(); ++pos) {
      const std::uint8_t tag = pos == 0 ? 0 : pos == entries.size() ? 255 : 200;
      std::vector<ExtEntry> mutated = entries;
      mutated.insert(mutated.begin() + std::ptrdiff_t(pos), {tag, unknown_payload});
      EXPECT_EQ(e.reencode(join_block(fixed, mutated)), body)
          << e.name << " unknown tag " << int(tag) << " at " << pos;
      if (pos > 0 && pos < entries.size()) ++between;
    }
  }
  EXPECT_GE(swept, 10u);
  EXPECT_GT(between, 0u);
}

// Encode `msg` and decode it again; a failed decode fails the test.
template <class T>
T round_trip(const T& msg) {
  T out;
  EXPECT_TRUE(wire::decode(std::span<const std::uint8_t>(wire::encode(msg)), out));
  return out;
}

bool strict_prefix(const Bytes& shorter, const Bytes& longer) {
  return shorter.size() < longer.size() &&
         std::equal(shorter.begin(), shorter.end(), longer.begin());
}

TEST(WireFuzz, BidAndPriceTrailersRoundTripAndStayOptional) {
  // Values survive their extensions...
  proto::ReportSelectionRequest sel;
  sel.job = JobId(100);
  sel.site = SiteId(7);
  sel.bid = proto::Bid{42.5, 1800.0};
  const proto::ReportSelectionRequest sel_out = round_trip(sel);
  ASSERT_TRUE(sel_out.bid);
  EXPECT_DOUBLE_EQ(sel_out.bid->budget, 42.5);
  EXPECT_DOUBLE_EQ(sel_out.bid->deadline_s, 1800.0);
  EXPECT_FALSE(sel_out.request_id);

  // ...prices ride with their hints, and nothing between them is forced.
  const proto::GetSiteLoadsReply priced_out = round_trip(make_priced_reply());
  ASSERT_TRUE(priced_out.dp_prices);
  ASSERT_EQ(priced_out.dp_prices->size(), 1u);
  EXPECT_DOUBLE_EQ((*priced_out.dp_prices)[0], 3.25);
  EXPECT_TRUE(priced_out.dp_loads);
  EXPECT_FALSE(priced_out.membership);
  EXPECT_FALSE(priced_out.digest);
  EXPECT_FALSE(priced_out.degraded);

  const proto::ExchangeMessage flood_out = round_trip(make_priced_exchange());
  ASSERT_TRUE(flood_out.price);
  EXPECT_DOUBLE_EQ(*flood_out.price, 5.75);
  EXPECT_FALSE(flood_out.membership);
  EXPECT_FALSE(flood_out.digest);

  // ...and an absent bid leaves the legacy bytes untouched: the economic
  // fields are a pure suffix, never a layout change.
  proto::ReportSelectionRequest legacy = sel;
  legacy.bid.reset();
  EXPECT_TRUE(strict_prefix(wire::encode(legacy), wire::encode(sel)));
  EXPECT_FALSE(round_trip(legacy).bid);
}

TEST(WireFuzz, HopsTrailerRoundTripsAndStaysOptional) {
  // Values survive the hops extension, per-record depths included.
  const proto::ExchangeMessage hopped = make_hopped_exchange();
  const proto::ExchangeMessage out = round_trip(hopped);
  ASSERT_TRUE(out.hops);
  EXPECT_EQ(out.hops->max, 3u);
  EXPECT_EQ(out.hops->depths, (std::vector<std::uint32_t>{0, 1, 3, 2}));
  // Hops carries the highest exchange tag: every lower extension must
  // have survived alongside it.
  EXPECT_TRUE(out.load);
  EXPECT_TRUE(out.membership);
  EXPECT_TRUE(out.digest);
  EXPECT_TRUE(out.price);

  // Empty depths is the "all records at depth zero" encoding a first-hop
  // frame uses; it must round-trip as empty, not as garbage, and needs no
  // other extension in front of it.
  proto::ExchangeMessage first_hop = make_exchange(true);
  first_hop.hops.emplace();
  const proto::ExchangeMessage first_out = round_trip(first_hop);
  ASSERT_TRUE(first_out.hops);
  EXPECT_EQ(first_out.hops->max, 0u);
  EXPECT_TRUE(first_out.hops->depths.empty());
  EXPECT_FALSE(first_out.membership);
  EXPECT_FALSE(first_out.digest);
  EXPECT_FALSE(first_out.price);

  // A mesh frame (no hops) keeps the legacy bytes: the overlay fields are
  // a pure suffix, never a layout change.
  proto::ExchangeMessage mesh = hopped;
  mesh.hops.reset();
  EXPECT_TRUE(strict_prefix(wire::encode(mesh), wire::encode(hopped)));
  EXPECT_FALSE(round_trip(mesh).hops);
}

TEST(WireFuzz, RequestIdTrailerRoundTripsAndStaysOptional) {
  // A stamped report carries its request id alone: no bid is forced in
  // front of it.
  proto::ReportSelectionRequest sel;
  sel.job = JobId(100);
  sel.site = SiteId(7);
  sel.request_id = proto::RequestId{31, 9};
  const proto::ReportSelectionRequest out = round_trip(sel);
  ASSERT_TRUE(out.request_id);
  EXPECT_EQ(out.request_id->client, 31u);
  EXPECT_EQ(out.request_id->seq, 9u);
  EXPECT_FALSE(out.bid);

  // An unstamped report keeps the legacy bytes: pure suffix, no layout
  // change.
  proto::ReportSelectionRequest legacy = sel;
  legacy.request_id.reset();
  EXPECT_TRUE(strict_prefix(wire::encode(legacy), wire::encode(sel)));

  // The same id reaches the WAL frame of the applied record.
  proto::WalDispatch wal;
  wal.record = make_exchange(false).dispatches.front();
  wal.request_id = sel.request_id;
  const proto::WalDispatch wal_out = round_trip(wal);
  ASSERT_TRUE(wal_out.request_id);
  EXPECT_EQ(wal_out.request_id->client, 31u);
  EXPECT_EQ(wal_out.request_id->seq, 9u);

  // The dedup-hit ack round-trips the original placement; a plain ack
  // keeps the legacy bytes.
  proto::Ack ack;
  ack.original_site = SiteId(5);
  const proto::Ack ack_out = round_trip(ack);
  ASSERT_TRUE(ack_out.original_site);
  EXPECT_EQ(*ack_out.original_site, SiteId(5));
  EXPECT_TRUE(strict_prefix(wire::encode(proto::Ack{}), wire::encode(ack)));
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
