// ifsyn/util/bit_vector.hpp
//
// Arbitrary-width, bit-accurate values.
//
// BitVector models a VHDL `bit_vector(N-1 downto 0)`: bit 0 is the least
// significant bit, and slices use (hi downto lo) index pairs. It is the
// value type carried over channels and buses: protocol generation slices a
// message into ceil(bits/width) bus words with `slice`, and the refined
// specification reassembles it with `set_slice` -- exactly the
// `txdata(8*J-1 downto 8*(J-1))` loops of Fig. 4 in the paper.
//
// Storage: values of width <= 64 live in one inline word (no heap
// allocation); wider values own a heap array sized to their word count.
// The simulator creates and copies BitVectors per evaluated expression
// and per signal commit, and nearly every signal/variable in a spec is a
// flag or a bus word, so a narrow copy or move touches only the width and
// the inline word. Slicing, concatenation and resizing work a word at a
// time at every width. A moved-from BitVector has width 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "util/assert.hpp"

namespace ifsyn {

class BitVector {
 public:
  /// Empty (zero-width) vector. Useful as a "no value yet" placeholder.
  BitVector() = default;

  /// `width` zero bits.
  explicit BitVector(int width) : width_(width) {
    IFSYN_ASSERT_MSG(width >= 0, "negative BitVector width " << width);
    if (width > kWordBits) heap_ = std::make_unique<std::uint64_t[]>(nwords());
  }

  BitVector(const BitVector& other)
      : width_(other.width_), word0_(other.word0_) {
    if (other.heap_) copy_wide(other);
  }
  BitVector(BitVector&& other) noexcept
      : width_(other.width_), word0_(other.word0_),
        heap_(std::move(other.heap_)) {
    other.width_ = 0;
    other.word0_ = 0;
  }
  BitVector& operator=(const BitVector& other) {
    if (!heap_ && !other.heap_) {
      width_ = other.width_;
      word0_ = other.word0_;
    } else if (this != &other) {
      assign_slow(other);
    }
    return *this;
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) {
      width_ = other.width_;
      word0_ = other.word0_;
      heap_ = std::move(other.heap_);
      other.width_ = 0;
      other.word0_ = 0;
    }
    return *this;
  }
  ~BitVector() = default;

  /// `width` bits holding `value mod 2^width` (unsigned interpretation).
  static BitVector from_uint(int width, std::uint64_t value) {
    BitVector bv(width);
    if (width > 0) {
      bv.words()[0] = value;
      bv.clear_padding();
    }
    return bv;
  }

  /// `width` bits holding the two's-complement encoding of `value`.
  static BitVector from_int(int width, std::int64_t value);

  /// Overwrite in place with `value mod 2^width` for width <= 64 —
  /// equivalent to `*this = from_uint(width, value)` without constructing
  /// a temporary. Hot path for the simulation VM's register file.
  void assign_uint(int width, std::uint64_t value) {
    IFSYN_ASSERT_MSG(width >= 0 && width <= kWordBits,
                     "assign_uint width " << width << " out of [0,64]");
    width_ = width;
    word0_ = value & low_mask(width);
    if (heap_) heap_.reset();
  }

  /// Parse an MSB-first binary string, e.g. "00101". Underscores are
  /// ignored so literals can be grouped ("0010_1100"). Width = number of
  /// binary digits. Asserts on any other character.
  static BitVector from_binary_string(std::string_view bits);

  /// Number of bits. 0 for a default-constructed vector.
  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Bit access; index 0 is the LSB. Asserts 0 <= index < width.
  bool bit(int index) const {
    IFSYN_ASSERT_MSG(index >= 0 && index < width_,
                     "bit index " << index << " out of range [0," << width_
                                  << ")");
    return (words()[index / kWordBits] >> (index % kWordBits)) & 1u;
  }
  void set_bit(int index, bool value) {
    IFSYN_ASSERT_MSG(index >= 0 && index < width_,
                     "bit index " << index << " out of range [0," << width_
                                  << ")");
    const std::uint64_t mask = std::uint64_t{1} << (index % kWordBits);
    if (value)
      words()[index / kWordBits] |= mask;
    else
      words()[index / kWordBits] &= ~mask;
  }

  /// VHDL-style slice `(hi downto lo)`, inclusive on both ends.
  /// Asserts 0 <= lo <= hi < width. Result width = hi - lo + 1.
  BitVector slice(int hi, int lo) const;

  /// Bits (hi downto lo) as an unsigned word, for slices of at most 64
  /// bits: `slice(hi, lo).to_uint()` without the temporary. Same bounds
  /// assert as slice.
  std::uint64_t slice_uint(int hi, int lo) const {
    check_slice(hi, lo);
    IFSYN_ASSERT_MSG(hi - lo < kWordBits,
                     "slice_uint of " << (hi - lo + 1) << " bits");
    if (width_ <= kWordBits) return (word0_ >> lo) & low_mask(hi - lo + 1);
    return extract(words(), lo, hi - lo + 1);
  }

  /// Overwrite bits (hi downto lo) with `value`; value.width() must equal
  /// hi - lo + 1.
  void set_slice(int hi, int lo, const BitVector& value);

  /// Overwrite bits (hi downto lo), at most 64 of them, with the low
  /// hi - lo + 1 bits of `value`: `set_slice(hi, lo, from_uint(hi - lo +
  /// 1, value))` without the temporary. Same bounds assert as set_slice.
  void set_slice_uint(int hi, int lo, std::uint64_t value) {
    check_slice(hi, lo);
    IFSYN_ASSERT_MSG(hi - lo < kWordBits,
                     "set_slice_uint of " << (hi - lo + 1) << " bits");
    deposit(words(), lo, hi - lo + 1, value);
  }

  /// Concatenation `*this & low`: *this becomes the high-order bits.
  /// Mirrors VHDL's `a & b`.
  BitVector concat(const BitVector& low) const;

  /// Same bits, new width: truncates high bits or zero-extends.
  BitVector resized(int new_width) const;

  /// Unsigned value. Asserts that the value fits in 64 bits (i.e. all bits
  /// above 63 are zero); width itself may exceed 64.
  std::uint64_t to_uint() const {
    if (width_ <= kWordBits) return width_ == 0 ? 0 : word0_;
    return to_uint_wide();
  }

  /// Two's-complement signed value. Asserts width <= 64 and width > 0.
  std::int64_t to_int() const {
    IFSYN_ASSERT_MSG(width_ > 0 && width_ <= 64,
                     "to_int requires width in [1,64], got " << width_);
    std::uint64_t v = word0_;
    if (width_ < 64 && ((v >> (width_ - 1)) & 1u)) {
      v |= ~((std::uint64_t{1} << width_) - 1);  // sign-extend
    }
    return static_cast<std::int64_t>(v);
  }

  /// True iff every bit is zero. (Width-0 vectors are zero.)
  bool is_zero() const {
    if (width_ <= kWordBits) return word0_ == 0;
    for (int i = 0, n = nwords(); i < n; ++i)
      if (heap_[i] != 0) return false;
    return true;
  }

  /// Bitwise operators; both operands must have equal width.
  BitVector operator&(const BitVector& rhs) const;
  BitVector operator|(const BitVector& rhs) const;
  BitVector operator^(const BitVector& rhs) const;
  BitVector operator~() const;

  /// Modular arithmetic (mod 2^width); operands must have equal width.
  BitVector operator+(const BitVector& rhs) const;
  BitVector operator-(const BitVector& rhs) const;

  /// Unsigned comparison. Equality requires equal width AND equal bits;
  /// ordering compares values and asserts equal width.
  friend bool operator==(const BitVector& a, const BitVector& b) {
    if (a.width_ != b.width_) return false;
    if (a.width_ <= kWordBits) return a.word0_ == b.word0_;
    return std::equal(a.heap_.get(), a.heap_.get() + a.nwords(),
                      b.heap_.get());
  }
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }
  bool unsigned_less(const BitVector& rhs) const;

  /// MSB-first binary string, e.g. "00101100".
  std::string to_binary_string() const;

  /// Hex string with `0x` prefix, MSB-first, padded to ceil(width/4) digits.
  std::string to_hex_string() const;

 private:
  static constexpr int kWordBits = 64;
  static int word_count(int width) { return (width + kWordBits - 1) / kWordBits; }
  /// Number of storage words backing this value.
  int nwords() const { return word_count(width_); }
  /// The low `bits` bits set, for 0 <= bits <= 64.
  static std::uint64_t low_mask(int bits) {
    return bits >= kWordBits ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << bits) - 1;
  }
  /// `count` (1..64) bits of `src` starting at bit `pos`.
  static std::uint64_t extract(const std::uint64_t* src, int pos, int count) {
    const int w = pos / kWordBits;
    const int s = pos % kWordBits;
    std::uint64_t v = src[w] >> s;
    if (s != 0 && s + count > kWordBits) v |= src[w + 1] << (kWordBits - s);
    return v & low_mask(count);
  }
  /// Overwrite `count` (1..64) bits of `dst` at bit `pos` with the low
  /// `count` bits of `value`.
  static void deposit(std::uint64_t* dst, int pos, int count,
                      std::uint64_t value) {
    const std::uint64_t m = low_mask(count);
    value &= m;
    const int w = pos / kWordBits;
    const int s = pos % kWordBits;
    dst[w] = (dst[w] & ~(m << s)) | (value << s);
    if (s + count > kWordBits) {
      const std::uint64_t hi_m = low_mask(s + count - kWordBits);
      dst[w + 1] = (dst[w + 1] & ~hi_m) | (value >> (kWordBits - s));
    }
  }
  void check_slice(int hi, int lo) const {
    IFSYN_ASSERT_MSG(0 <= lo && lo <= hi && hi < width_,
                     "bad slice (" << hi << " downto " << lo << ") of width "
                                   << width_);
  }
  /// Pointer to word storage: the inline word for width <= 64, else the
  /// heap array. Valid to dereference only for indices < nwords().
  std::uint64_t* words() { return heap_ ? heap_.get() : &word0_; }
  const std::uint64_t* words() const { return heap_ ? heap_.get() : &word0_; }
  /// Zero any storage bits above `width_` (kept as an invariant so that
  /// equality and to_uint can operate word-wise).
  void clear_padding() {
    const int rem = width_ % kWordBits;
    if (rem != 0) words()[nwords() - 1] &= low_mask(rem);
  }
  /// Allocate and fill heap storage from a wide `other` of this width.
  void copy_wide(const BitVector& other);
  /// Copy-assignment when either side is wide.
  void assign_slow(const BitVector& other);
  std::uint64_t to_uint_wide() const;

  int width_ = 0;
  std::uint64_t word0_ = 0;  // storage when width_ <= 64, else 0
  /// nwords() words when width_ > 64, else null.
  std::unique_ptr<std::uint64_t[]> heap_;
};

std::ostream& operator<<(std::ostream& os, const BitVector& bv);

}  // namespace ifsyn
