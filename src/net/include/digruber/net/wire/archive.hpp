#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "digruber/net/wire/buffer.hpp"

namespace digruber::net::wire {

/// Binary serialization archives with a symmetric `operator&` so message
/// structs declare their layout once:
///
///   struct Ping {
///     std::uint64_t nonce{};
///     template <class Archive> void serialize(Archive& ar) { ar & nonce; }
///   };
///
/// Encoding: little-endian fixed-width integers, IEEE-754 doubles, u32
/// length prefixes for strings/containers. The Reader never throws on
/// malformed input — it sets a fail flag and yields zero values, so
/// truncated or hostile packets are handled by checking `ok()`.
///
/// Three archives share the format:
///   Writer — appends bytes, bulk-encoding integers via memcpy on
///            little-endian hosts (byte-swap fallback elsewhere);
///   Sizer  — computes the exact encoded size without touching memory, so
///            encode() can reserve once and never reallocate;
///   Reader — decodes from a non-owning std::span view; it never copies
///            the input and never reads past it.
///
/// Optional fields live in one extension block after a message's fixed
/// fields, declared once per message:
///
///   ar & job & vo;
///   ar.extensions(ext(1, epoch), ext(2, bid));
///
/// Each present field is written as (u8 tag, u32 length, payload) in
/// ascending tag order; with none present the block is empty, so a message
/// without extensions keeps its legacy bytes. The reader skips unknown
/// tags wherever they sit, and fails on a repeated or out-of-order known
/// tag, on a length past the end, and on a known payload that does not
/// decode exactly. The block runs to the end of the input, so only a
/// message decoded on its own (a frame body, a WAL payload or an
/// extension payload) may declare one.

/// One optional field of an extension block under its fixed tag.
template <class T>
struct Ext {
  std::uint8_t tag;
  std::optional<T>& field;
};

template <class T>
Ext<T> ext(std::uint8_t tag, std::optional<T>& field) {
  return {tag, field};
}

/// Tag byte plus u32 length in front of every extension payload.
inline constexpr std::size_t kExtHeader = 1 + sizeof(std::uint32_t);

namespace detail {

template <class U>
constexpr U to_little_endian(U u) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    return u;
  } else {
    U swapped = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      swapped = static_cast<U>((swapped << 8) | (u & 0xff));
      u = static_cast<U>(u >> 8);
    }
    return swapped;
  }
}

}  // namespace detail

class Writer {
 public:
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {buf_.data(), pos_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }
  /// Move the encoded bytes into shared, immutable storage (one allocation
  /// for the Buffer control block; the byte array itself is not copied).
  [[nodiscard]] net::Buffer take_buffer() { return net::Buffer(take()); }
  [[nodiscard]] std::size_t size() const { return pos_; }

  /// Reserve room for `n` more bytes. encode() sizes messages exactly with
  /// a Sizer pass, so every subsequent write is a branch-predicted bounds
  /// check plus an unchecked memcpy at the cursor — no per-field insert()
  /// bookkeeping and no reallocation on the hot path.
  void reserve(std::size_t n) { buf_.resize(pos_ + n); }

  void raw(const void* data, std::size_t n) {
    if (n == 0) return;  // empty spans may carry a null data pointer
    ensure(n);
    std::memcpy(buf_.data() + pos_, data, n);
    pos_ += n;
  }

  template <class T>
  Writer& operator&(const T& v) {
    write(v);
    return *this;
  }

  /// Write the extension block; callers list the tags in ascending order.
  template <class... Ts>
  void extensions(const Ext<Ts>&... exts) {
    (write_ext(exts), ...);
  }

 private:
  template <class T>
  void write_ext(const Ext<T>& e) {
    if (!e.field) return;
    write_integral(e.tag);
    // The length is patched in after the payload: one pass, no sizing.
    const std::size_t at = pos_;
    write_integral(std::uint32_t{0});
    write(*e.field);
    const std::uint32_t length = detail::to_little_endian(
        static_cast<std::uint32_t>(pos_ - at - sizeof(std::uint32_t)));
    std::memcpy(buf_.data() + at, &length, sizeof length);
  }

  /// Grow the backing store when a write was not covered by reserve().
  /// Geometric so unsized use stays amortized-O(1).
  void ensure(std::size_t n) {
    if (pos_ + n > buf_.size()) {
      buf_.resize(std::max(buf_.size() * 2, pos_ + n));
    }
  }

  template <class T>
  void write_integral(T v) {
    using U = std::make_unsigned_t<T>;
    const U u = detail::to_little_endian(static_cast<U>(v));
    // Bulk encode: one memcpy at the cursor instead of sizeof(U)
    // push_backs.
    ensure(sizeof(U));
    std::memcpy(buf_.data() + pos_, &u, sizeof(U));
    pos_ += sizeof(U);
  }

  template <class T>
  void write(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      ensure(1);
      buf_[pos_++] = v ? 1 : 0;
    } else if constexpr (std::is_enum_v<T>) {
      write_integral(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      write_integral(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits;
      const double d = static_cast<double>(v);
      std::memcpy(&bits, &d, sizeof bits);
      write_integral(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      write_integral(static_cast<std::uint32_t>(v.size()));
      raw(v.data(), v.size());
    } else {
      serialize_dispatch(v);
    }
  }

  template <class T>
  void write(const std::vector<T>& v) {
    write_integral(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      raw(v.data(), v.size());  // byte vectors encode as one block
    } else {
      for (const auto& e : v) write(e);
    }
  }

  template <class K, class V>
  void write(const std::map<K, V>& m) {
    write_integral(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      write(k);
      write(v);
    }
  }

  template <class T>
  void write(const std::optional<T>& o) {
    write(o.has_value());
    if (o) write(*o);
  }

  template <class A, class B>
  void write(const std::pair<A, B>& p) {
    write(p.first);
    write(p.second);
  }

  template <class T>
  void serialize_dispatch(const T& v) {
    // serialize() members are logically const for a Writer.
    const_cast<T&>(v).serialize(*this);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Computes the exact encoded size of a message without writing a byte.
/// Mirrors Writer's layout rules.
class Sizer {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  void raw(const void* /*data*/, std::size_t n) { size_ += n; }

  template <class T>
  Sizer& operator&(const T& v) {
    measure(v);
    return *this;
  }

  template <class... Ts>
  void extensions(const Ext<Ts>&... exts) {
    ((exts.field ? (size_ += kExtHeader, measure(*exts.field)) : void()), ...);
  }

 private:
  template <class T>
  void measure(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      size_ += 1;
    } else if constexpr (std::is_enum_v<T>) {
      size_ += sizeof(std::underlying_type_t<T>);
    } else if constexpr (std::is_integral_v<T>) {
      size_ += sizeof(std::make_unsigned_t<T>);
    } else if constexpr (std::is_floating_point_v<T>) {
      size_ += sizeof(std::uint64_t);
    } else if constexpr (std::is_same_v<T, std::string>) {
      size_ += sizeof(std::uint32_t) + v.size();
    } else {
      const_cast<T&>(v).serialize(*this);
    }
  }

  template <class T>
  void measure(const std::vector<T>& v) {
    size_ += sizeof(std::uint32_t);
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      size_ += v.size();
    } else {
      for (const auto& e : v) measure(e);
    }
  }

  template <class K, class V>
  void measure(const std::map<K, V>& m) {
    size_ += sizeof(std::uint32_t);
    for (const auto& [k, v] : m) {
      measure(k);
      measure(v);
    }
  }

  template <class T>
  void measure(const std::optional<T>& o) {
    size_ += 1;
    if (o) measure(*o);
  }

  template <class A, class B>
  void measure(const std::pair<A, B>& p) {
    measure(p.first);
    measure(p.second);
  }

  std::size_t size_ = 0;
};

/// Exact encoded size of any serializable value.
template <class T>
std::size_t encoded_size(const T& msg) {
  Sizer s;
  s & msg;
  return s.size();
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  /// True when every byte was consumed and no underrun occurred.
  [[nodiscard]] bool complete() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  template <class T>
  Reader& operator&(T& v) {
    read(v);
    return *this;
  }

  /// Read the extension block: everything left in the input.
  template <class... Ts>
  void extensions(const Ext<Ts>&... exts) {
    (exts.field.reset(), ...);
    if (!ok_ || pos_ == data_.size()) return;
    // A Reader of its own parses the block, so this one's address never
    // escapes and the fixed fields keep decoding from registers.
    ok_ = read_block(data_.subspan(pos_), exts...);
    pos_ = data_.size();
  }

 private:
  template <class... Ts>
  static bool read_block(std::span<const std::uint8_t> block,
                         const Ext<Ts>&... exts) {
    Reader r(block);
    int last_known = -1;
    while (r.ok_ && r.pos_ < block.size()) {
      std::uint8_t tag = 0;
      std::uint32_t length = 0;
      r.read_integral(tag);
      r.read_integral(length);
      if (!r.ok_ || length > r.remaining()) return false;
      const std::span<const std::uint8_t> payload = block.subspan(r.pos_, length);
      r.pos_ += length;
      // Unknown tags match no field and are skipped.
      (void)(r.read_ext(exts, tag, payload, last_known) || ...);
    }
    return r.ok_;
  }

  template <class T>
  bool read_ext(const Ext<T>& e, std::uint8_t tag,
                std::span<const std::uint8_t> payload, int& last_known) {
    if (e.tag != tag) return false;
    if (int(tag) <= last_known) {
      ok_ = false;  // repeated, or after a higher known tag
      return true;
    }
    last_known = tag;
    Reader sub(payload);
    sub & e.field.emplace();
    if (!sub.complete()) ok_ = false;
    return true;
  }

  bool take(void* out, std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      std::memset(out, 0, n);
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <class T>
  void read_integral(T& v) {
    using U = std::make_unsigned_t<T>;
    // Bulk decode: one bounds check + one memcpy, byte-swapped only on
    // big-endian hosts.
    U u = 0;
    if (!take(&u, sizeof(U))) {
      v = T{};
      return;
    }
    v = static_cast<T>(detail::to_little_endian(u));
  }

  template <class T>
  void read(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      take(&b, 1);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      read_integral(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      read_integral(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      read_integral(bits);
      double d;
      std::memcpy(&d, &bits, sizeof d);
      v = static_cast<T>(d);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = 0;
      read_integral(n);
      if (!ok_ || remaining() < n) {
        ok_ = false;
        v.clear();
        return;
      }
      v.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
      pos_ += n;
    } else {
      v.serialize(*this);
    }
  }

  template <class T>
  void read(std::vector<T>& v) {
    std::uint32_t n = 0;
    read_integral(n);
    v.clear();
    // Guard against hostile lengths: each element consumes >= 1 byte.
    if (!ok_ || n > remaining()) {
      if (n != 0) ok_ = false;
      return;
    }
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      v.assign(reinterpret_cast<const T*>(data_.data() + pos_),
               reinterpret_cast<const T*>(data_.data() + pos_) + n);
      pos_ += n;
    } else {
      v.reserve(n);
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        v.emplace_back();
        read(v.back());
      }
    }
  }

  template <class K, class V>
  void read(std::map<K, V>& m) {
    std::uint32_t n = 0;
    read_integral(n);
    m.clear();
    if (!ok_ || n > remaining()) {
      if (n != 0) ok_ = false;
      return;
    }
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      K k{};
      V v{};
      read(k);
      read(v);
      m.emplace(std::move(k), std::move(v));
    }
  }

  template <class T>
  void read(std::optional<T>& o) {
    bool has = false;
    read(has);
    if (has) {
      o.emplace();
      read(*o);
    } else {
      o.reset();
    }
  }

  template <class A, class B>
  void read(std::pair<A, B>& p) {
    read(p.first);
    read(p.second);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Encode any serializable struct to bytes. A Sizer pass first computes
/// the exact length, so the output vector is allocated once.
template <class T>
std::vector<std::uint8_t> encode(const T& msg) {
  Writer w;
  w.reserve(encoded_size(msg));
  w & msg;
  return w.take();
}

/// Encode into shared, immutable storage (one allocation total).
template <class T>
net::Buffer encode_buffer(const T& msg) {
  Writer w;
  w.reserve(encoded_size(msg));
  w & msg;
  return w.take_buffer();
}

/// Decode bytes into `out`; false if the buffer is malformed or has
/// trailing garbage.
template <class T>
bool decode(std::span<const std::uint8_t> bytes, T& out) {
  Reader r(bytes);
  r & out;
  return r.complete();
}

}  // namespace digruber::net::wire
