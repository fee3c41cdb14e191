#include "digruber/net/wire/frame.hpp"

#include <atomic>
#include <cstring>

#include "digruber/net/wire/crc32c.hpp"

namespace digruber::net::wire {

namespace {
std::atomic<MethodCategorizer> g_categorizer{nullptr};
}  // namespace

WireStats& wire_stats() {
  static WireStats stats;
  return stats;
}

void set_method_categorizer(MethodCategorizer fn) {
  g_categorizer.store(fn, std::memory_order_relaxed);
}

MsgCategory categorize_method(std::uint16_t method) {
  const MethodCategorizer fn = g_categorizer.load(std::memory_order_relaxed);
  return fn ? fn(method) : MsgCategory::kOther;
}

std::size_t frame_header_size() {
  static const std::size_t size = encoded_size(FrameHeader{});
  return size;
}

void append_checksum_trailer(Writer& w, std::size_t body_size) {
  const std::span<const std::uint8_t> written = w.bytes();
  const std::uint32_t crc =
      crc32c(written.subspan(written.size() - body_size));
  // The trailer is a raw little-endian u32, NOT archive-encoded — it sits
  // outside the body that body_size describes.
  std::uint8_t trailer[FrameHeader::kChecksumTrailerSize];
  for (std::size_t i = 0; i < sizeof(trailer); ++i) {
    trailer[i] = std::uint8_t((crc >> (8 * i)) & 0xffu);
  }
  w.raw(trailer, sizeof(trailer));
}

net::Buffer frame_from_body(std::uint16_t method, FrameKind kind,
                            std::uint64_t correlation,
                            std::span<const std::uint8_t> body,
                            std::int64_t deadline_us, bool checksum) {
  return build_frame(method, kind, correlation, body.size(), deadline_us, checksum,
                     [body](Writer& w) { w.raw(body.data(), body.size()); });
}

FrameParse parse_frame_ex(std::span<const std::uint8_t> frame,
                          FrameHeader& header,
                          std::span<const std::uint8_t>& body) {
  // The header is variable-length from v2 on (serialize reads the version
  // first and then any version-gated fields), so parse over the whole
  // frame and take what the header left as the body.
  Reader r(frame);
  r & header;
  if (!r.ok()) return FrameParse::kBadHeader;
  if (header.version < FrameHeader::kCurrentVersion ||
      header.version > FrameHeader::kMaxVersion) {
    return FrameParse::kBadHeader;
  }
  body = frame.subspan(frame.size() - r.remaining());
  if (header.version >= FrameHeader::kChecksumVersion) {
    // v3: the last four bytes are a CRC-32C trailer over the body, outside
    // the span body_size describes.
    if (body.size() < FrameHeader::kChecksumTrailerSize) {
      return FrameParse::kBodySizeMismatch;
    }
    const std::span<const std::uint8_t> trailer =
        body.subspan(body.size() - FrameHeader::kChecksumTrailerSize);
    body = body.first(body.size() - FrameHeader::kChecksumTrailerSize);
    if (body.size() != header.body_size) return FrameParse::kBodySizeMismatch;
    std::uint32_t expected = 0;
    for (std::size_t i = 0; i < FrameHeader::kChecksumTrailerSize; ++i) {
      expected |= std::uint32_t(trailer[i]) << (8 * i);
    }
    if (crc32c(body) != expected) return FrameParse::kBadChecksum;
    return FrameParse::kOk;
  }
  if (r.remaining() != header.body_size) return FrameParse::kBodySizeMismatch;
  return FrameParse::kOk;
}

bool parse_frame(std::span<const std::uint8_t> frame, FrameHeader& header,
                 std::span<const std::uint8_t>& body) {
  return parse_frame_ex(frame, header, body) == FrameParse::kOk;
}

FrameParse parse_frame_ex(const net::Buffer& frame, FrameHeader& header,
                          net::Buffer& body) {
  std::span<const std::uint8_t> body_span;
  const FrameParse result = parse_frame_ex(frame.span(), header, body_span);
  if (result == FrameParse::kBadHeader) {
    body = net::Buffer();
    return result;
  }
  body = frame.slice(std::size_t(body_span.data() - frame.data()),
                     body_span.size());
  return result;
}

bool parse_frame(const net::Buffer& frame, FrameHeader& header,
                 net::Buffer& body) {
  return parse_frame_ex(frame, header, body) == FrameParse::kOk;
}

}  // namespace digruber::net::wire
