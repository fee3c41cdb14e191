#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digruber/net/wire/archive.hpp"
#include "digruber/net/wire/buffer.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::net::wire {

/// On-the-wire frame header. Every packet payload starts with one; the
/// body that follows is the encoded message struct for (service, method).
///
/// Version 2 appends a request deadline (absolute simulation time in
/// microseconds; 0 = none) used by deadline-aware admission at overloaded
/// containers. Version 1 frames carry no deadline field and stay
/// byte-identical to the pre-overload-control wire format; senders emit
/// v2 only when they actually attach a deadline.
///
/// Version 3 frames additionally carry a 4-byte CRC-32C of the body as a
/// trailer AFTER the body bytes (the header layout itself is unchanged, so
/// this header still self-describes: body_size counts body bytes only,
/// excluding the trailer). Senders emit v3 only when checksums are
/// explicitly enabled; receivers verify the trailer and drop mismatches
/// as FrameParse::kBadChecksum.
struct FrameHeader {
  static constexpr std::uint16_t kCurrentVersion = 1;
  static constexpr std::uint16_t kDeadlineVersion = 2;
  static constexpr std::uint16_t kChecksumVersion = 3;
  static constexpr std::uint16_t kMaxVersion = 3;
  /// Bytes of the v3 CRC-32C trailer following the body.
  static constexpr std::size_t kChecksumTrailerSize = 4;

  std::uint16_t version = kCurrentVersion;
  std::uint16_t method = 0;       // service-defined method id
  std::uint8_t kind = 0;          // FrameKind
  std::uint64_t correlation = 0;  // matches replies to requests
  std::uint32_t body_size = 0;    // bytes of body following the header
  std::int64_t deadline_us = 0;   // v2 only: absolute sim-time deadline

  template <class Archive>
  void serialize(Archive& ar) {
    ar & version & method & kind & correlation & body_size;
    if (version >= kDeadlineVersion) ar & deadline_us;
  }
};

enum class FrameKind : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kError = 2,       // body is an encoded error string
  kOneWay = 3,      // no reply expected
  kOverloaded = 4,  // body is an encoded OverloadNack
};

/// Typed overload rejection: the body of a kOverloaded frame. Sent instead
/// of silently dropping when an admission queue sheds a request, so the
/// caller can distinguish server overload from network loss and back off
/// by the server's own drain estimate.
struct OverloadNack {
  /// Queue-full (0) or deadline-doomed (1) — see net::AdmitResult.
  std::uint8_t reason = 0;
  /// Server's estimate of when retrying could succeed, relative, in us.
  std::int64_t retry_after_us = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & reason & retry_after_us;
  }
};

/// Serialized size of a FrameHeader (fixed layout).
std::size_t frame_header_size();

/// Append the v3 CRC-32C trailer for the last `body_size` bytes already in
/// `w` (the encoded body). Defined in wire_frame.cpp.
void append_checksum_trailer(Writer& w, std::size_t body_size);

/// Build a complete frame into a single shared buffer: reserve once, write
/// the header, let `write_body` append exactly `body_size` body bytes, then
/// append the trailer if any. The header version is chosen here and only
/// here: `deadline_us > 0` gives v2, `checksum` gives v3 with a CRC-32C
/// trailer over the body, and neither keeps the v1 layout byte for byte.
template <class WriteBody>
net::Buffer build_frame(std::uint16_t method, FrameKind kind,
                        std::uint64_t correlation, std::size_t body_size,
                        std::int64_t deadline_us, bool checksum,
                        WriteBody&& write_body) {
  FrameHeader header;
  header.method = method;
  header.kind = static_cast<std::uint8_t>(kind);
  header.correlation = correlation;
  header.body_size = static_cast<std::uint32_t>(body_size);
  if (deadline_us > 0) {
    header.version = FrameHeader::kDeadlineVersion;
    header.deadline_us = deadline_us;
  }
  if (checksum) header.version = FrameHeader::kChecksumVersion;
  Writer w;
  w.reserve(encoded_size(header) + body_size +
            (checksum ? FrameHeader::kChecksumTrailerSize : 0));
  w & header;
  write_body(w);
  if (checksum) append_checksum_trailer(w, body_size);
  net::Buffer frame = w.take_buffer();
  wire_stats().record_encode(categorize_method(method), frame.size());
  return frame;
}

/// Frame a message struct: the body is sized with a Sizer pass and encoded
/// directly behind the header — exactly one allocation and zero
/// intermediate copies.
template <class Body>
net::Buffer make_frame(std::uint16_t method, FrameKind kind,
                       std::uint64_t correlation, const Body& body,
                       std::int64_t deadline_us = 0, bool checksum = false) {
  return build_frame(method, kind, correlation, encoded_size(body), deadline_us,
                     checksum, [&body](Writer& w) { w & body; });
}

/// Build a frame around an already-encoded body (the reply path: handlers
/// hand back encoded bytes, the server splices them behind a fresh header).
net::Buffer frame_from_body(std::uint16_t method, FrameKind kind,
                            std::uint64_t correlation,
                            std::span<const std::uint8_t> body,
                            std::int64_t deadline_us = 0,
                            bool checksum = false);

/// Outcome of frame parsing, split so endpoints can count a header whose
/// declared body_size disagrees with the bytes actually present —
/// distinctly from outright header corruption — instead of silently
/// decoding a short body.
enum class FrameParse : std::uint8_t {
  kOk = 0,
  kBadHeader,          // truncated header or unsupported version
  kBodySizeMismatch,   // header parsed, but body_size != remaining bytes
  kBadChecksum,        // v3 frame whose CRC-32C trailer fails verification
};

FrameParse parse_frame_ex(std::span<const std::uint8_t> frame,
                          FrameHeader& header,
                          std::span<const std::uint8_t>& body);

/// Parse a frame header; on success returns the body span via `body`.
bool parse_frame(std::span<const std::uint8_t> frame, FrameHeader& header,
                 std::span<const std::uint8_t>& body);

/// Buffer-native parse: `body` is a zero-copy slice sharing the frame's
/// storage, so it can outlive the Packet that carried it (admission
/// queues, cross-thread delivery).
FrameParse parse_frame_ex(const net::Buffer& frame, FrameHeader& header,
                          net::Buffer& body);
bool parse_frame(const net::Buffer& frame, FrameHeader& header,
                 net::Buffer& body);

}  // namespace digruber::net::wire
