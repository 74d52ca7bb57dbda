// Little-endian byte cursors — the one codec of every byte format in the
// repository (DESIGN.md §13.1): snapshot section payloads, the fleet host
// protocol's request/response payloads and headers, and the obs metrics
// wire.
//
// `StateWriter` appends primitive fields to a byte buffer; `StateReader`
// parses them back with a bounds-checked ok()-flag idiom: reads past the
// end (or reads of malformed values) latch the failure flag and return
// zeros, so `save_state` / `load_state` hooks and protocol handlers are
// written as straight-line field lists and callers check `ok()` or
// `ok() && exhausted()` exactly once. This is what makes multi-bit
// corruption that slips past a CRC collapse into a typed error instead of
// UB: every length is validated against the remaining bytes and against a
// caller-supplied cap before any container grows.
//
// Header-only on purpose — leaf libraries (noise, circuit, i2f, chips, obs)
// implement their hooks against these cursors without linking the snapshot
// container library.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace biosense::snapshot {

/// Little-endian field appender. Bytes already in the vector at
/// construction (e.g. a frame-header placeholder) are a fixed base:
/// `size()` and `data()` cover only what this writer appended.
class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>& out)
      : out_(&out), base_(out.size()) {}

  void u8(std::uint8_t v) { put(v, 1); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v), 4); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Full Rng state: 4 engine words + the Box-Muller cache.
  void rng(const Rng& r) {
    const RngState st = r.state();
    for (std::uint64_t word : st.s) u64(word);
    f64(st.cached_normal);
    b(st.has_cached_normal);
  }

  /// Length-prefixed double vector.
  void vec_f64(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (double x : v) f64(x);
  }

  /// Length-prefixed u64 vector.
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v) u64(x);
  }

  /// Length-prefixed byte blob (u32 length).
  void bytes(const std::vector<std::uint8_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_->insert(out_->end(), v.begin(), v.end());
  }

  /// Length-prefixed byte string (u16 length — state strings are names
  /// and labels, never bulk data).
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

  /// Appends `n` bytes verbatim, with no length prefix: the reader must
  /// know the count from context (an echo, the rest of a payload).
  void raw(const std::uint8_t* p, std::size_t n) {
    out_->insert(out_->end(), p, p + n);
  }

  std::size_t size() const { return out_->size() - base_; }
  /// The bytes this writer appended (valid until the next append).
  const std::uint8_t* data() const { return out_->data() + base_; }

 private:
  void put(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>* out_;
  std::size_t base_;
};

/// Bounds-checked little-endian field parser.
class StateReader {
 public:
  StateReader(const std::uint8_t* bytes, std::size_t n)
      : bytes_(bytes), n_(n) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Strict bool: any encoding other than 0/1 marks the payload bad.
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  void rng(Rng& r) {
    RngState st;
    for (std::uint64_t& word : st.s) word = u64();
    st.cached_normal = f64();
    st.has_cached_normal = b();
    if (ok_) r.restore(st);
  }

  /// Reads a double vector written by `vec_f64`. The element count must be
  /// exactly `expected` when `expected` is non-negative (fixed-shape state,
  /// e.g. one entry per site); otherwise it is only bounds-checked against
  /// the remaining payload. Never grows `out` beyond what the payload can
  /// actually back.
  void vec_f64(std::vector<double>& out, std::int64_t expected = -1) {
    const std::uint32_t count = u32();
    if (!ok_ || (expected >= 0 && count != static_cast<std::uint64_t>(expected)) ||
        static_cast<std::size_t>(count) * 8 > remaining()) {
      ok_ = false;
      return;
    }
    out.assign(count, 0.0);
    for (double& x : out) x = f64();
  }

  void vec_u64(std::vector<std::uint64_t>& out, std::int64_t expected = -1) {
    const std::uint32_t count = u32();
    if (!ok_ || (expected >= 0 && count != static_cast<std::uint64_t>(expected)) ||
        static_cast<std::size_t>(count) * 8 > remaining()) {
      ok_ = false;
      return;
    }
    out.assign(count, 0);
    for (std::uint64_t& x : out) x = u64();
  }

  /// Reads a blob written by `bytes`, bounded by `max` and the remaining
  /// payload — a corrupt length can never grow `out` past either.
  void bytes(std::vector<std::uint8_t>& out, std::size_t max) {
    const std::uint32_t count = u32();
    if (!ok_ || count > max || count > remaining()) {
      ok_ = false;
      return;
    }
    out.assign(bytes_ + pos_, bytes_ + pos_ + count);
    pos_ += count;
  }

  /// Reads a string written by `str`, bounded by `max` and the remaining
  /// payload — a corrupt length can never grow `out` past either.
  void str(std::string& out, std::size_t max) {
    const std::uint16_t count = u16();
    if (!ok_ || count > max || count > remaining()) {
      ok_ = false;
      return;
    }
    out.assign(reinterpret_cast<const char*>(bytes_) + pos_, count);
    pos_ += count;
  }

  bool ok() const { return ok_; }
  /// True when every byte has been consumed — section schemas are
  /// exact-length, trailing garbage is corruption.
  bool exhausted() const { return ok_ && pos_ == n_; }
  std::size_t remaining() const { return n_ - pos_; }

  /// Latches the failure flag from a hook that detected a semantic
  /// mismatch (wrong element count, wrong capacity, ...).
  void fail() { ok_ = false; }

 private:
  std::uint64_t take(std::size_t width) {
    if (!ok_ || n_ - pos_ < width) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  const std::uint8_t* bytes_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace biosense::snapshot
