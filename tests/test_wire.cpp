#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/net/wire/archive.hpp"
#include "digruber/net/wire/crc32c.hpp"
#include "digruber/net/wire/frame.hpp"

namespace digruber::net::wire {
namespace {

using ::digruber::digruber::ExchangeMessage;
using ::digruber::digruber::GetSiteLoadsReply;
using ::digruber::digruber::GetSiteLoadsRequest;
using ::digruber::digruber::ReportSelectionRequest;
using ::digruber::digruber::SaturationSignal;

// Serializable fixtures (namespace scope: local classes cannot declare the
// member template serialize()).
struct Ints {
  std::int8_t a = -5;
  std::uint16_t b = 65535;
  std::int32_t c = -123456;
  std::uint64_t d = ~0ULL;
  template <class A>
  void serialize(A& ar) { ar & a & b & c & d; }
};

struct Floats {
  double x = 3.14159265358979;
  float y = -1.5f;
  bool t = true, f = false;
  template <class A>
  void serialize(A& ar) { ar & x & y & t & f; }
};

struct Mixed {
  std::string name = "hello world";
  std::vector<std::uint32_t> nums{1, 2, 3};
  std::map<std::string, std::int32_t> table{{"a", 1}, {"b", -2}};
  std::optional<std::string> some = "x";
  std::optional<std::string> none;
  std::pair<std::uint8_t, std::string> p{7, "pair"};
  template <class A>
  void serialize(A& ar) { ar & name & nums & table & some & none & p; }
};

struct Empties {
  std::vector<int> v;
  std::string s;
  std::map<int, int> m;
  template <class A>
  void serialize(A& ar) { ar & v & s & m; }
};

template <class T>
T roundtrip(const T& value) {
  T out{};
  const std::vector<std::uint8_t> bytes = encode(value);
  EXPECT_TRUE(decode(std::span<const std::uint8_t>(bytes), out));
  return out;
}

TEST(Wire, Integers) {
  Ints v;
  const Ints w = roundtrip(v);
  EXPECT_EQ(w.a, v.a);
  EXPECT_EQ(w.b, v.b);
  EXPECT_EQ(w.c, v.c);
  EXPECT_EQ(w.d, v.d);
}

TEST(Wire, FloatsBools) {
  Floats v;
  const Floats w = roundtrip(v);
  EXPECT_DOUBLE_EQ(w.x, v.x);
  EXPECT_FLOAT_EQ(w.y, v.y);
  EXPECT_TRUE(w.t);
  EXPECT_FALSE(w.f);
}

TEST(Wire, StringsAndContainers) {
  Mixed v;
  const Mixed w = roundtrip(v);
  EXPECT_EQ(w.name, v.name);
  EXPECT_EQ(w.nums, v.nums);
  EXPECT_EQ(w.table, v.table);
  EXPECT_EQ(w.some, v.some);
  EXPECT_FALSE(w.none.has_value());
  EXPECT_EQ(w.p, v.p);
}

TEST(Wire, EmptyContainers) {
  Empties in;
  const Empties out = roundtrip(in);
  EXPECT_TRUE(out.v.empty());
  EXPECT_TRUE(out.s.empty());
  EXPECT_TRUE(out.m.empty());
}

TEST(Wire, TruncatedBufferFailsCleanly) {
  GetSiteLoadsRequest request;
  request.vo = VoId(3);
  std::vector<std::uint8_t> bytes = encode(request);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    GetSiteLoadsRequest out;
    EXPECT_FALSE(decode(std::span<const std::uint8_t>(bytes.data(), cut), out))
        << "cut at " << cut;
  }
}

TEST(Wire, TrailingGarbageRejected) {
  GetSiteLoadsRequest request;
  std::vector<std::uint8_t> bytes = encode(request);
  bytes.push_back(0xAB);
  GetSiteLoadsRequest out;
  EXPECT_FALSE(decode(std::span<const std::uint8_t>(bytes), out));
}

TEST(Wire, HostileLengthPrefixRejected) {
  // A vector claiming 2^31 elements in a 16-byte buffer must not allocate.
  Writer w;
  w & std::uint32_t{0x7fffffff};
  std::vector<std::uint8_t> bytes = w.take();
  bytes.resize(16, 0);
  Reader r{std::span<const std::uint8_t>(bytes)};
  std::vector<std::uint64_t> out;
  r & out;
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
}

TEST(Wire, ProtocolStructsRoundtrip) {
  GetSiteLoadsRequest q;
  q.job = JobId(9);
  q.vo = VoId(2);
  q.group = GroupId(5);
  q.user = UserId(8);
  q.cpus = 4;
  const auto q2 = roundtrip(q);
  EXPECT_EQ(q2.job, q.job);
  EXPECT_EQ(q2.cpus, 4);

  GetSiteLoadsReply reply;
  for (int i = 0; i < 50; ++i) {
    gruber::SiteLoad load;
    load.site = SiteId(std::uint64_t(i));
    load.total_cpus = 100 + i;
    load.free_estimate = i;
    load.raw_free = i * 2;
    load.queued = 1;
    reply.candidates.push_back(load);
  }
  reply.as_of = sim::Time::from_seconds(12.5);
  const auto r2 = roundtrip(reply);
  ASSERT_EQ(r2.candidates.size(), 50u);
  EXPECT_EQ(r2.candidates[10].raw_free, 20);
  EXPECT_EQ(r2.as_of, reply.as_of);

  ExchangeMessage ex;
  ex.from = DpId(1);
  ex.exchange_round = 4;
  gruber::DispatchRecord record;
  record.origin = DpId(1);
  record.seq = 77;
  record.site = SiteId(3);
  record.vo = VoId(0);
  record.cpus = 2;
  record.when = sim::Time::from_seconds(100);
  record.est_runtime = sim::Duration::seconds(300);
  ex.dispatches.push_back(record);
  const auto ex2 = roundtrip(ex);
  ASSERT_EQ(ex2.dispatches.size(), 1u);
  EXPECT_EQ(ex2.dispatches[0].seq, 77u);
  EXPECT_EQ(ex2.dispatches[0].est_runtime, record.est_runtime);

  SaturationSignal sig;
  sig.from = DpId(2);
  sig.avg_response_s = 31.5;
  sig.queue_depth = 17;
  const auto sig2 = roundtrip(sig);
  EXPECT_DOUBLE_EQ(sig2.avg_response_s, 31.5);
  EXPECT_EQ(sig2.queue_depth, 17);
}

TEST(Frame, RoundtripAndParse) {
  ReportSelectionRequest body;
  body.site = SiteId(42);
  body.cpus = 2;
  const net::Buffer frame = make_frame(2, FrameKind::kRequest, 12345, body);

  FrameHeader header;
  std::span<const std::uint8_t> payload;
  ASSERT_TRUE(parse_frame(frame, header, payload));
  EXPECT_EQ(header.method, 2);
  EXPECT_EQ(header.correlation, 12345u);
  EXPECT_EQ(static_cast<FrameKind>(header.kind), FrameKind::kRequest);

  ReportSelectionRequest out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out.site, SiteId(42));
}

TEST(Frame, RejectsCorruptHeader) {
  std::vector<std::uint8_t> junk(frame_header_size() - 1, 0);
  FrameHeader header;
  std::span<const std::uint8_t> body;
  EXPECT_FALSE(parse_frame(junk, header, body));

  const std::vector<std::uint8_t> frame =
      make_frame(1, FrameKind::kReply, 1, std::string("x")).to_vector();
  std::vector<std::uint8_t> wrong_version = frame;
  wrong_version[0] = 0xFF;  // clobber version
  EXPECT_FALSE(parse_frame(wrong_version, header, body));

  std::vector<std::uint8_t> short_body = frame;
  short_body.pop_back();
  EXPECT_FALSE(parse_frame(short_body, header, body));
}

TEST(Frame, BodySizeMismatchIsDistinctCause) {
  const net::Buffer frame =
      make_frame(1, FrameKind::kRequest, 7, std::string("abc"));
  FrameHeader header;
  std::span<const std::uint8_t> body;
  EXPECT_EQ(parse_frame_ex(frame, header, body), FrameParse::kOk);

  // Chop body bytes: the header still parses but its declared body_size
  // no longer matches what is present.
  std::vector<std::uint8_t> truncated = frame.to_vector();
  truncated.pop_back();
  EXPECT_EQ(parse_frame_ex(truncated, header, body),
            FrameParse::kBodySizeMismatch);

  std::vector<std::uint8_t> padded = frame.to_vector();
  padded.push_back(0);
  EXPECT_EQ(parse_frame_ex(padded, header, body),
            FrameParse::kBodySizeMismatch);

  // Too short for even a header is the other cause.
  std::vector<std::uint8_t> stub(frame_header_size() - 1, 0);
  EXPECT_EQ(parse_frame_ex(std::span<const std::uint8_t>(stub), header, body),
            FrameParse::kBadHeader);
}

TEST(Buffer, SliceSharesStorageWithoutCopy) {
  net::Buffer buffer = net::Buffer({10, 20, 30, 40, 50});
  EXPECT_EQ(buffer.owners(), 1);

  const std::uint64_t allocs_before = net::Buffer::allocations();
  net::Buffer mid = buffer.slice(1, 3);
  EXPECT_EQ(net::Buffer::allocations(), allocs_before);  // no new storage
  EXPECT_EQ(buffer.owners(), 2);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.data(), buffer.data() + 1);
  EXPECT_EQ(mid, net::Buffer({20, 30, 40}));

  // Clamped, never out of bounds.
  EXPECT_EQ(buffer.slice(4, 100).size(), 1u);
  EXPECT_EQ(buffer.slice(99, 1).size(), 0u);

  // The slice keeps the storage alive after the original goes away.
  buffer = net::Buffer();
  EXPECT_EQ(mid.owners(), 1);
  EXPECT_EQ(mid, net::Buffer({20, 30, 40}));
}

TEST(Buffer, ParsedBodyOutlivesFrame) {
  net::Buffer frame = make_frame(1, FrameKind::kReply, 3, std::string("hello"));
  FrameHeader header;
  net::Buffer body;
  ASSERT_TRUE(parse_frame(frame, header, body));
  EXPECT_EQ(frame.owners(), 2);  // body is a view into the same storage

  frame = net::Buffer();  // drop the frame: body must stay valid
  std::string out;
  ASSERT_TRUE(decode(body, out));
  EXPECT_EQ(out, "hello");
}

TEST(Buffer, FrameIsSingleAllocation) {
  GetSiteLoadsReply reply;
  for (int i = 0; i < 300; ++i) {
    gruber::SiteLoad load;
    load.site = SiteId(std::uint64_t(i));
    reply.candidates.push_back(load);
  }
  // Warm up any lazy statics (frame_header_size caches a Sizer pass).
  (void)frame_header_size();
  const std::uint64_t before = net::Buffer::allocations();
  const net::Buffer frame = make_frame(1, FrameKind::kReply, 1, reply);
  EXPECT_EQ(net::Buffer::allocations(), before + 1);
  EXPECT_EQ(frame.size(),
            frame_header_size() + encoded_size(reply));
}

/// Bit-at-a-time CRC-32C, the definition the table-driven one must match.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data,
                             std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32c, KnownAnswer) {
  // The CRC-32C check value (RFC 3720 / iSCSI).
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, MatchesBitwiseAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<std::uint8_t> data(256 + 8);
  for (auto& b : data) b = std::uint8_t(rng.uniform_index(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::span<const std::uint8_t> piece(data.data() + offset, len);
      ASSERT_EQ(crc32c(piece), crc32c_bitwise(piece))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32c(piece, 0xDEADBEEFu), crc32c_bitwise(piece, 0xDEADBEEFu))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, SeedChainsPieces) {
  // The WAL checksums a frame's type byte, then its payload, seeded with
  // the first CRC: that must equal one pass over both.
  const std::string a = "\x07";
  const std::string b = "a payload longer than one eight-byte step";
  EXPECT_EQ(crc32c(bytes_of(b), crc32c(bytes_of(a))), crc32c(bytes_of(a + b)));
  for (std::size_t split = 0; split <= b.size(); ++split) {
    const std::span<const std::uint8_t> all = bytes_of(b);
    EXPECT_EQ(crc32c(all.subspan(split), crc32c(all.first(split))),
              crc32c(all))
        << "split " << split;
  }
}

/// Property sweep: random SiteLoad vectors of many sizes roundtrip
/// bit-exactly.
class WireProperty : public ::testing::TestWithParam<int> {};

TEST_P(WireProperty, RandomLoadVectorsRoundtrip) {
  Rng rng(std::uint64_t(GetParam()) * 7919);
  GetSiteLoadsReply reply;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    gruber::SiteLoad load;
    load.site = SiteId(rng());
    load.total_cpus = std::int32_t(rng.uniform_index(100000));
    load.free_estimate = std::int32_t(rng.uniform_index(100000));
    load.raw_free = std::int32_t(rng.uniform_index(100000));
    load.queued = std::int32_t(rng.uniform_index(1000));
    reply.candidates.push_back(load);
  }
  const std::vector<std::uint8_t> bytes = encode(reply);
  GetSiteLoadsReply out;
  ASSERT_TRUE(decode(std::span<const std::uint8_t>(bytes), out));
  ASSERT_EQ(out.candidates.size(), reply.candidates.size());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out.candidates[std::size_t(i)].site, reply.candidates[std::size_t(i)].site);
    EXPECT_EQ(out.candidates[std::size_t(i)].raw_free,
              reply.candidates[std::size_t(i)].raw_free);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireProperty,
                         ::testing::Values(0, 1, 2, 17, 300, 1000));

}  // namespace
}  // namespace digruber::net::wire
