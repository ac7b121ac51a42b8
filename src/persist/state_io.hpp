// Binary state serialization primitives for checkpoint payloads.
//
// StateWriter/StateReader implement a tiny, versionless little-endian wire
// format (fixed-width integers, bit-cast IEEE floats, length-prefixed
// strings). Floats travel as raw bit patterns, so a round-tripped payload
// restores *bit-identical* state — the property the crash-safe resume
// guarantees are built on. The header is intentionally header-only: any
// library (device, aging, xbar, tuning) can serialize its state without
// growing a link dependency on xbarlife_persist.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife::persist {

/// Appends fixed-width little-endian fields to a byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Bit-cast floats: the payload restores the exact bit pattern.
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view v) {
    u64(v.size());
    buf_.append(v.data(), v.size());
  }

  const std::string& data() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads fields written by StateWriter; throws CheckpointError when the
/// payload runs out (a truncated or foreign payload must never be
/// silently mis-restored).
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  bool boolean() { return u8() != 0; }

  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string v(data_.substr(pos_, n));
    pos_ += n;
    return v;
  }

  /// Reads a u64 element count that prefixes an array whose elements each
  /// occupy at least `min_bytes_per_element` payload bytes, rejecting any
  /// count the remaining payload cannot possibly satisfy. Count-prefixed
  /// loops must size containers through this instead of a raw u64(): a
  /// corrupt prefix would otherwise drive a near-2^64 reserve()/resize()
  /// and abort on allocation failure instead of failing cleanly.
  std::size_t array_count(std::size_t min_bytes_per_element) {
    const std::uint64_t n = u64();
    const std::size_t per =
        min_bytes_per_element == 0 ? 1 : min_bytes_per_element;
    if (n > remaining() / per) {
      throw CheckpointError(
          "checkpoint payload corrupt: element count " + std::to_string(n) +
          " needs at least " + std::to_string(per) +
          " byte(s) each but only " + std::to_string(remaining()) +
          " byte(s) remain at offset " + std::to_string(pos_));
    }
    return static_cast<std::size_t>(n);
  }

  /// True when every byte has been consumed.
  bool done() const { return pos_ == data_.size(); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw CheckpointError(
          "checkpoint payload truncated: needed " + std::to_string(n) +
          " more byte(s) at offset " + std::to_string(pos_));
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Serializes a complete Rng stream position (four lanes + the Box-Muller
/// cache), so a resumed run continues each stream at the exact draw the
/// snapshot was taken at.
inline void write_rng_state(StateWriter& w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (int i = 0; i < 4; ++i) {
    w.u64(st.s[i]);
  }
  w.f64(st.cached_gaussian);
  w.boolean(st.has_cached_gaussian);
}

inline void read_rng_state(StateReader& r, Rng& rng) {
  Rng::State st;
  for (int i = 0; i < 4; ++i) {
    st.s[i] = r.u64();
  }
  st.cached_gaussian = r.f64();
  st.has_cached_gaussian = r.boolean();
  rng.set_state(st);
}

}  // namespace xbarlife::persist
