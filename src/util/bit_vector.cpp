#include "util/bit_vector.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ifsyn {

BitVector BitVector::from_int(int width, std::int64_t value) {
  BitVector bv(width);
  if (width > 0) {
    // Sign-extend across all words, then mask to width.
    const std::uint64_t pattern = value < 0 ? ~std::uint64_t{0} : 0;
    std::uint64_t* w = bv.words();
    std::fill_n(w, bv.nwords(), pattern);
    w[0] = static_cast<std::uint64_t>(value);
  }
  bv.clear_padding();
  return bv;
}

BitVector BitVector::from_binary_string(std::string_view bits) {
  int width = 0;
  for (char c : bits) {
    if (c == '_') continue;
    IFSYN_ASSERT_MSG(c == '0' || c == '1',
                     "bad binary digit '" << c << "' in \"" << bits << "\"");
    ++width;
  }
  BitVector bv(width);
  int index = width - 1;  // string is MSB-first
  for (char c : bits) {
    if (c == '_') continue;
    bv.set_bit(index--, c == '1');
  }
  return bv;
}

BitVector BitVector::slice(int hi, int lo) const {
  check_slice(hi, lo);
  BitVector out(hi - lo + 1);
  std::uint64_t* o = out.words();
  const std::uint64_t* src = words();
  for (int k = 0, pos = lo; pos <= hi; ++k, pos += kWordBits) {
    o[k] = extract(src, pos, std::min(kWordBits, hi - pos + 1));
  }
  return out;
}

void BitVector::set_slice(int hi, int lo, const BitVector& value) {
  check_slice(hi, lo);
  IFSYN_ASSERT_MSG(value.width_ == hi - lo + 1,
                   "slice width " << (hi - lo + 1) << " != value width "
                                  << value.width_);
  const std::uint64_t* v = value.words();
  std::uint64_t* d = words();
  for (int k = 0, pos = lo; pos <= hi; ++k, pos += kWordBits) {
    deposit(d, pos, std::min(kWordBits, hi - pos + 1), v[k]);
  }
}

BitVector BitVector::concat(const BitVector& low) const {
  BitVector out(width_ + low.width_);
  std::uint64_t* o = out.words();
  std::copy_n(low.words(), low.nwords(), o);
  const std::uint64_t* h = words();
  for (int k = 0, bit = 0; bit < width_; ++k, bit += kWordBits) {
    deposit(o, low.width_ + bit, std::min(kWordBits, width_ - bit), h[k]);
  }
  return out;
}

BitVector BitVector::resized(int new_width) const {
  BitVector out(new_width);
  const int n = std::min(nwords(), out.nwords());
  std::copy_n(words(), n, out.words());
  out.clear_padding();
  return out;
}

void BitVector::copy_wide(const BitVector& other) {
  heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(other.nwords());
  std::copy_n(other.heap_.get(), other.nwords(), heap_.get());
}

void BitVector::assign_slow(const BitVector& other) {
  if (!other.heap_) {
    heap_.reset();
  } else if (!heap_ || nwords() != other.nwords()) {
    copy_wide(other);
  } else {
    std::copy_n(other.heap_.get(), other.nwords(), heap_.get());
  }
  width_ = other.width_;
  word0_ = other.word0_;
}

std::uint64_t BitVector::to_uint_wide() const {
  for (int w = 1, n = nwords(); w < n; ++w)
    IFSYN_ASSERT_MSG(heap_[w] == 0,
                     "BitVector value does not fit in 64 bits: "
                         << to_hex_string());
  return heap_[0];
}

BitVector BitVector::operator&(const BitVector& rhs) const {
  IFSYN_ASSERT(width_ == rhs.width_);
  BitVector out(width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  std::uint64_t* o = out.words();
  for (int i = 0, n = nwords(); i < n; ++i) o[i] = a[i] & b[i];
  return out;
}

BitVector BitVector::operator|(const BitVector& rhs) const {
  IFSYN_ASSERT(width_ == rhs.width_);
  BitVector out(width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  std::uint64_t* o = out.words();
  for (int i = 0, n = nwords(); i < n; ++i) o[i] = a[i] | b[i];
  return out;
}

BitVector BitVector::operator^(const BitVector& rhs) const {
  IFSYN_ASSERT(width_ == rhs.width_);
  BitVector out(width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  std::uint64_t* o = out.words();
  for (int i = 0, n = nwords(); i < n; ++i) o[i] = a[i] ^ b[i];
  return out;
}

BitVector BitVector::operator~() const {
  BitVector out(width_);
  const std::uint64_t* a = words();
  std::uint64_t* o = out.words();
  for (int i = 0, n = nwords(); i < n; ++i) o[i] = ~a[i];
  out.clear_padding();
  return out;
}

BitVector BitVector::operator+(const BitVector& rhs) const {
  IFSYN_ASSERT(width_ == rhs.width_);
  BitVector out(width_);
  const std::uint64_t* aw = words();
  const std::uint64_t* bw = rhs.words();
  std::uint64_t* o = out.words();
  std::uint64_t carry = 0;
  for (int i = 0, n = nwords(); i < n; ++i) {
    const std::uint64_t a = aw[i];
    const std::uint64_t b = bw[i];
    const std::uint64_t sum = a + b;
    const std::uint64_t sum2 = sum + carry;
    o[i] = sum2;
    carry = (sum < a) || (sum2 < sum) ? 1 : 0;
  }
  out.clear_padding();
  return out;
}

BitVector BitVector::operator-(const BitVector& rhs) const {
  // a - b == a + ~b + 1 (mod 2^width)
  IFSYN_ASSERT(width_ == rhs.width_);
  BitVector out(width_);
  const std::uint64_t* aw = words();
  const std::uint64_t* bw = rhs.words();
  std::uint64_t* o = out.words();
  std::uint64_t borrow = 0;
  for (int i = 0, n = nwords(); i < n; ++i) {
    const std::uint64_t a = aw[i];
    const std::uint64_t b = bw[i];
    const std::uint64_t diff = a - b;
    const std::uint64_t diff2 = diff - borrow;
    o[i] = diff2;
    borrow = (a < b) || (diff < borrow) ? 1 : 0;
  }
  out.clear_padding();
  return out;
}

bool BitVector::unsigned_less(const BitVector& rhs) const {
  IFSYN_ASSERT(width_ == rhs.width_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = rhs.words();
  for (int i = nwords(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

std::string BitVector::to_binary_string() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

std::string BitVector::to_hex_string() const {
  static const char* kDigits = "0123456789abcdef";
  const int digits = (width_ + 3) / 4;
  std::string out = "0x";
  for (int d = digits - 1; d >= 0; --d) {
    int nibble = 0;
    for (int b = 3; b >= 0; --b) {
      const int index = d * 4 + b;
      nibble = (nibble << 1) | (index < width_ && bit(index) ? 1 : 0);
    }
    out.push_back(kDigits[nibble]);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const BitVector& bv) {
  return os << bv.width() << "'b" << bv.to_binary_string();
}

}  // namespace ifsyn
