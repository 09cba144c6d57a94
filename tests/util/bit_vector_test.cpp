// BitVector: construction, bit/slice access, arithmetic, comparisons,
// string round-trips -- including widths beyond one 64-bit word, which the
// FLC's 23-bit messages never need but wide memories do.
#include "util/bit_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/assert.hpp"

namespace ifsyn {
namespace {

TEST(BitVectorTest, DefaultIsEmpty) {
  BitVector bv;
  EXPECT_EQ(bv.width(), 0);
  EXPECT_TRUE(bv.empty());
  EXPECT_TRUE(bv.is_zero());
}

TEST(BitVectorTest, ZeroInitialized) {
  BitVector bv(130);
  EXPECT_EQ(bv.width(), 130);
  EXPECT_TRUE(bv.is_zero());
  for (int i = 0; i < 130; ++i) EXPECT_FALSE(bv.bit(i));
}

TEST(BitVectorTest, FromUintMasksToWidth) {
  BitVector bv = BitVector::from_uint(4, 0xff);
  EXPECT_EQ(bv.to_uint(), 0xfu);
  EXPECT_EQ(bv.width(), 4);
}

TEST(BitVectorTest, FromIntTwosComplement) {
  BitVector bv = BitVector::from_int(8, -1);
  EXPECT_EQ(bv.to_uint(), 0xffu);
  EXPECT_EQ(bv.to_int(), -1);
  EXPECT_EQ(BitVector::from_int(8, -128).to_int(), -128);
  EXPECT_EQ(BitVector::from_int(8, 127).to_int(), 127);
}

TEST(BitVectorTest, FromIntNegativeWideWidth) {
  // Sign must extend across word boundaries.
  BitVector bv = BitVector::from_int(100, -2);
  for (int i = 1; i < 100; ++i) EXPECT_TRUE(bv.bit(i)) << i;
  EXPECT_FALSE(bv.bit(0));
}

TEST(BitVectorTest, SetAndGetBits) {
  BitVector bv(70);
  bv.set_bit(0, true);
  bv.set_bit(63, true);
  bv.set_bit(64, true);
  bv.set_bit(69, true);
  EXPECT_TRUE(bv.bit(0));
  EXPECT_TRUE(bv.bit(63));
  EXPECT_TRUE(bv.bit(64));
  EXPECT_TRUE(bv.bit(69));
  EXPECT_FALSE(bv.bit(1));
  bv.set_bit(63, false);
  EXPECT_FALSE(bv.bit(63));
}

TEST(BitVectorTest, BinaryStringRoundTrip) {
  const std::string s = "1010110011110000";
  BitVector bv = BitVector::from_binary_string(s);
  EXPECT_EQ(bv.width(), 16);
  EXPECT_EQ(bv.to_binary_string(), s);
  EXPECT_EQ(bv.to_uint(), 0xacf0u);
}

TEST(BitVectorTest, UnderscoresIgnoredInLiterals) {
  BitVector bv = BitVector::from_binary_string("0010_1100");
  EXPECT_EQ(bv.width(), 8);
  EXPECT_EQ(bv.to_uint(), 0x2cu);
}

TEST(BitVectorTest, SliceDowntoSemantics) {
  BitVector bv = BitVector::from_uint(16, 0xabcd);
  EXPECT_EQ(bv.slice(15, 8).to_uint(), 0xabu);
  EXPECT_EQ(bv.slice(7, 0).to_uint(), 0xcdu);
  EXPECT_EQ(bv.slice(11, 4).to_uint(), 0xbcu);
  EXPECT_EQ(bv.slice(0, 0).width(), 1);
}

TEST(BitVectorTest, SliceAcrossWordBoundary) {
  BitVector bv(128);
  bv.set_slice(71, 56, BitVector::from_uint(16, 0xbeef));
  EXPECT_EQ(bv.slice(71, 56).to_uint(), 0xbeefu);
  EXPECT_EQ(bv.slice(55, 0).to_uint(), 0u);
}

TEST(BitVectorTest, SetSliceWidthMismatchAsserts) {
  BitVector bv(16);
  EXPECT_THROW(bv.set_slice(7, 0, BitVector(9)), InternalError);
}

TEST(BitVectorTest, SliceBoundsChecked) {
  BitVector bv(8);
  EXPECT_THROW(bv.slice(8, 0), InternalError);
  EXPECT_THROW(bv.slice(3, 4), InternalError);
  EXPECT_THROW(bv.bit(8), InternalError);
  EXPECT_THROW(bv.bit(-1), InternalError);
}

TEST(BitVectorTest, ConcatPutsLeftOperandHigh) {
  // VHDL a & b: `a` becomes the high-order part -- the generated Send
  // procedures rely on this for addr & data message packing.
  BitVector addr = BitVector::from_uint(7, 0x55);
  BitVector data = BitVector::from_uint(16, 0x1234);
  BitVector msg = addr.concat(data);
  EXPECT_EQ(msg.width(), 23);
  EXPECT_EQ(msg.slice(22, 16).to_uint(), 0x55u);
  EXPECT_EQ(msg.slice(15, 0).to_uint(), 0x1234u);
}

TEST(BitVectorTest, ConcatWithEmpty) {
  BitVector data = BitVector::from_uint(8, 0x12);
  EXPECT_EQ(BitVector().concat(data), data);
  EXPECT_EQ(data.concat(BitVector()), data);
}

TEST(BitVectorTest, ResizeTruncatesAndExtends) {
  BitVector bv = BitVector::from_uint(16, 0xabcd);
  EXPECT_EQ(bv.resized(8).to_uint(), 0xcdu);
  EXPECT_EQ(bv.resized(24).to_uint(), 0xabcdu);
  EXPECT_EQ(bv.resized(24).width(), 24);
}

TEST(BitVectorTest, AdditionWrapsModulo) {
  BitVector a = BitVector::from_uint(8, 200);
  BitVector b = BitVector::from_uint(8, 100);
  EXPECT_EQ((a + b).to_uint(), 44u);  // 300 mod 256
}

TEST(BitVectorTest, AdditionCarriesAcrossWords) {
  BitVector a(128);
  a.set_slice(63, 0, BitVector::from_uint(64, ~std::uint64_t{0}));
  BitVector one = BitVector::from_uint(128, 1);
  BitVector sum = a + one;
  EXPECT_TRUE(sum.slice(63, 0).is_zero());
  EXPECT_TRUE(sum.bit(64));
}

TEST(BitVectorTest, SubtractionWraps) {
  BitVector a = BitVector::from_uint(8, 5);
  BitVector b = BitVector::from_uint(8, 10);
  EXPECT_EQ((a - b).to_uint(), 251u);
}

TEST(BitVectorTest, SubtractionBorrowsAcrossWords) {
  BitVector a(128);
  a.set_bit(64, true);  // 2^64
  BitVector one = BitVector::from_uint(128, 1);
  BitVector diff = a - one;
  EXPECT_FALSE(diff.bit(64));
  EXPECT_EQ(diff.slice(63, 0).to_uint(), ~std::uint64_t{0});
}

TEST(BitVectorTest, BitwiseOps) {
  BitVector a = BitVector::from_uint(8, 0b11001100);
  BitVector b = BitVector::from_uint(8, 0b10101010);
  EXPECT_EQ((a & b).to_uint(), 0b10001000u);
  EXPECT_EQ((a | b).to_uint(), 0b11101110u);
  EXPECT_EQ((a ^ b).to_uint(), 0b01100110u);
  EXPECT_EQ((~a).to_uint(), 0b00110011u);
}

TEST(BitVectorTest, ComplementClearsPadding) {
  BitVector a(5);
  BitVector inverted = ~a;
  EXPECT_EQ(inverted.to_uint(), 0x1fu);  // only 5 bits set
}

TEST(BitVectorTest, EqualityRequiresSameWidth) {
  EXPECT_NE(BitVector::from_uint(8, 5), BitVector::from_uint(9, 5));
  EXPECT_EQ(BitVector::from_uint(8, 5), BitVector::from_uint(8, 5));
}

TEST(BitVectorTest, UnsignedLess) {
  EXPECT_TRUE(BitVector::from_uint(8, 3).unsigned_less(
      BitVector::from_uint(8, 200)));
  EXPECT_FALSE(BitVector::from_uint(8, 200).unsigned_less(
      BitVector::from_uint(8, 3)));
  BitVector wide_small(128), wide_big(128);
  wide_big.set_bit(100, true);
  EXPECT_TRUE(wide_small.unsigned_less(wide_big));
}

TEST(BitVectorTest, HexString) {
  EXPECT_EQ(BitVector::from_uint(16, 0xabcd).to_hex_string(), "0xabcd");
  EXPECT_EQ(BitVector::from_uint(7, 0x55).to_hex_string(), "0x55");
  EXPECT_EQ(BitVector::from_uint(4, 0).to_hex_string(), "0x0");
}

TEST(BitVectorTest, ToUintRejectsOversizedValues) {
  BitVector bv(70);
  bv.set_bit(65, true);
  EXPECT_THROW(bv.to_uint(), InternalError);
}

TEST(BitVectorTest, ToIntRequiresNarrowWidth) {
  EXPECT_THROW(BitVector(65).to_int(), InternalError);
  EXPECT_THROW(BitVector(0).to_int(), InternalError);
}

/// Property sweep: slicing a message into W-bit words and reassembling is
/// the identity -- the invariant the generated Send/Receive procedure
/// pairs depend on (Fig. 4's two transfers of 8 bits each).
class WordSlicingProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WordSlicingProperty, SliceAndReassembleIsIdentity) {
  const auto [msg_bits, width] = GetParam();
  // Deterministic pseudo-random payload.
  BitVector msg(msg_bits);
  std::uint64_t state = 0x9e3779b97f4a7c15ull + msg_bits * 131 + width;
  for (int i = 0; i < msg_bits; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    msg.set_bit(i, (state >> 62) & 1);
  }

  BitVector rebuilt(msg_bits);
  for (int lo = 0; lo < msg_bits; lo += width) {
    const int hi = std::min(lo + width - 1, msg_bits - 1);
    rebuilt.set_slice(hi, lo, msg.slice(hi, lo));
  }
  EXPECT_EQ(rebuilt, msg);
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, WordSlicingProperty,
    ::testing::Combine(::testing::Values(1, 7, 8, 16, 23, 24, 64, 65, 130),
                       ::testing::Values(1, 2, 3, 8, 16, 23, 64)));

/// Property: from_uint/to_uint round-trips for every width <= 64.
class UintRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UintRoundTrip, RoundTrips) {
  const int width = GetParam();
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{0x5a5a5a5a5a5a5a5a},
                          ~std::uint64_t{0}}) {
    EXPECT_EQ(BitVector::from_uint(width, v).to_uint(), v & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, UintRoundTrip,
                         ::testing::Values(1, 2, 7, 8, 16, 23, 32, 63, 64));

// ---- Reference-model properties ------------------------------------------
//
// The word-wise slice/set_slice/concat/resized paths are checked against a
// bit-by-bit model (one bool per bit, index 0 = LSB) at every width 1-200,
// with slice bounds on and around the 64-bit word edges. The engine
// differential fuzz cannot see a BitVector bug both engines share; this
// can.

using RefBits = std::vector<bool>;

RefBits ref_of(const BitVector& bv) {
  RefBits out(static_cast<std::size_t>(bv.width()));
  for (int i = 0; i < bv.width(); ++i) {
    out[static_cast<std::size_t>(i)] = bv.bit(i);
  }
  return out;
}

/// Random bits of `width`, built one set_bit at a time (the model's own
/// path, independent of the word-wise code under test).
BitVector random_bits(int width, std::mt19937_64& rng) {
  BitVector bv(width);
  for (int i = 0; i < width; ++i) bv.set_bit(i, (rng() & 1u) != 0);
  return bv;
}

/// Word-edge positions below `width`, plus its top bit and one random
/// position.
std::vector<int> edge_positions(int width, std::mt19937_64& rng) {
  std::vector<int> out;
  for (int p : {0, 1, 31, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192,
                width - 2, width - 1}) {
    if (p >= 0 && p < width) out.push_back(p);
  }
  out.push_back(static_cast<int>(rng() % static_cast<std::uint64_t>(width)));
  return out;
}

constexpr int kMaxWidth = 200;

TEST(BitVectorReference, SliceMatchesModel) {
  std::mt19937_64 rng(1);
  for (int width = 1; width <= kMaxWidth; ++width) {
    const BitVector bv = random_bits(width, rng);
    const RefBits ref = ref_of(bv);
    for (int lo : edge_positions(width, rng)) {
      for (int hi : edge_positions(width, rng)) {
        if (hi < lo) continue;
        const BitVector got = bv.slice(hi, lo);
        ASSERT_EQ(got.width(), hi - lo + 1);
        const RefBits want(ref.begin() + lo, ref.begin() + hi + 1);
        ASSERT_EQ(ref_of(got), want)
            << "width " << width << " slice(" << hi << "," << lo << ")";
        if (hi - lo < 64) {
          ASSERT_EQ(bv.slice_uint(hi, lo), got.to_uint())
              << "width " << width << " slice_uint(" << hi << "," << lo << ")";
        }
      }
    }
  }
}

TEST(BitVectorReference, SetSliceMatchesModel) {
  std::mt19937_64 rng(2);
  for (int width = 1; width <= kMaxWidth; ++width) {
    const BitVector base = random_bits(width, rng);
    for (int lo : edge_positions(width, rng)) {
      for (int hi : edge_positions(width, rng)) {
        if (hi < lo) continue;
        const BitVector value = random_bits(hi - lo + 1, rng);
        RefBits want = ref_of(base);
        for (int i = lo; i <= hi; ++i) {
          want[static_cast<std::size_t>(i)] = value.bit(i - lo);
        }
        BitVector got = base;
        got.set_slice(hi, lo, value);
        ASSERT_EQ(ref_of(got), want)
            << "width " << width << " set_slice(" << hi << "," << lo << ")";
        if (hi - lo < 64) {
          // The word form takes the low hi-lo+1 bits of its argument and
          // ignores the rest.
          const int n = hi - lo + 1;
          const std::uint64_t above = n == 64 ? 0 : ~std::uint64_t{0} << n;
          BitVector word_got = base;
          word_got.set_slice_uint(hi, lo, value.to_uint() | above);
          ASSERT_EQ(word_got, got) << "width " << width << " set_slice_uint("
                                   << hi << "," << lo << ")";
        }
      }
    }
  }
}

TEST(BitVectorReference, ConcatMatchesModel) {
  std::mt19937_64 rng(3);
  const std::vector<int> widths = {0,   1,   2,   31,  63,  64,  65, 100,
                                   127, 128, 129, 136, 150, 199, 200};
  for (int hi_width : widths) {
    for (int lo_width : widths) {
      const BitVector high = random_bits(hi_width, rng);
      const BitVector low = random_bits(lo_width, rng);
      RefBits want = ref_of(low);
      const RefBits h = ref_of(high);
      want.insert(want.end(), h.begin(), h.end());
      const BitVector got = high.concat(low);
      ASSERT_EQ(got.width(), hi_width + lo_width);
      ASSERT_EQ(ref_of(got), want) << hi_width << " & " << lo_width;
    }
  }
}

TEST(BitVectorReference, ResizedMatchesModel) {
  std::mt19937_64 rng(4);
  for (int width = 0; width <= kMaxWidth; ++width) {
    const BitVector bv = random_bits(width, rng);
    for (int to : {0, 1, 32, 63, 64, 65, 127, 128, 129, 200, width - 1,
                   width, width + 1}) {
      if (to < 0) continue;
      RefBits want = ref_of(bv);
      want.resize(static_cast<std::size_t>(to), false);
      const BitVector got = bv.resized(to);
      ASSERT_EQ(ref_of(got), want) << width << " -> " << to;
      // Padding stays clear: equal to the same bits built bit by bit.
      BitVector rebuilt(to);
      for (int i = 0; i < to; ++i) {
        rebuilt.set_bit(i, want[static_cast<std::size_t>(i)]);
      }
      ASSERT_EQ(got, rebuilt) << width << " -> " << to;
    }
  }
}

TEST(BitVectorReference, FromIntMatchesModel) {
  std::mt19937_64 rng(5);
  for (int width = 1; width <= kMaxWidth; ++width) {
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{-2},
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max(),
          static_cast<std::int64_t>(rng())}) {
      const BitVector got = BitVector::from_int(width, v);
      for (int i = 0; i < width; ++i) {
        // Two's complement: bits past 63 repeat the sign bit.
        const bool want =
            i < 64 ? ((static_cast<std::uint64_t>(v) >> i) & 1u) != 0 : v < 0;
        ASSERT_EQ(got.bit(i), want)
            << "width " << width << " v " << v << " bit " << i;
      }
      if (width <= 64) {
        const std::uint64_t mask =
            width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
        ASSERT_EQ(got.to_uint(), static_cast<std::uint64_t>(v) & mask);
      }
    }
  }
}

TEST(BitVectorReference, EqualityIsZeroAndToUintMatchModel) {
  std::mt19937_64 rng(6);
  for (int width = 1; width <= kMaxWidth; ++width) {
    const BitVector a = random_bits(width, rng);
    BitVector b = a;
    ASSERT_EQ(a, b);
    ASSERT_NE(a, a.resized(width + 1)) << "widths differ";
    for (int p : edge_positions(width, rng)) {
      BitVector flipped = a;
      flipped.set_bit(p, !a.bit(p));
      ASSERT_NE(flipped, a) << "width " << width << " bit " << p;

      BitVector one(width);
      ASSERT_TRUE(one.is_zero());
      one.set_bit(p, true);
      ASSERT_FALSE(one.is_zero()) << "width " << width << " bit " << p;
      if (p < 64) {
        ASSERT_EQ(one.to_uint(), std::uint64_t{1} << p);
      } else {
        EXPECT_THROW(one.to_uint(), InternalError) << width << " bit " << p;
      }
    }
    // The low word alone: to_uint reads it at any width.
    const BitVector low = a.resized(std::min(width, 64)).resized(width);
    std::uint64_t want = 0;
    for (int i = 0; i < std::min(width, 64); ++i) {
      if (a.bit(i)) want |= std::uint64_t{1} << i;
    }
    ASSERT_EQ(low.to_uint(), want) << "width " << width;
  }
}

TEST(BitVectorReference, CopyMoveAndSelfAssignment) {
  std::mt19937_64 rng(7);
  for (int width : {0, 1, 63, 64, 65, 127, 128, 129, 200}) {
    const BitVector original = random_bits(width, rng);

    BitVector copy(original);
    EXPECT_EQ(copy, original);
    BitVector assigned(5);
    assigned = original;
    EXPECT_EQ(assigned, original);

    // Self-assignment leaves the value intact.
    BitVector self = original;
    BitVector& alias = self;
    self = alias;
    EXPECT_EQ(self, original);
    self = std::move(alias);
    EXPECT_EQ(self, original);

    // A move leaves the source at width 0, reusable as a target.
    BitVector source = original;
    BitVector moved(std::move(source));
    EXPECT_EQ(moved, original);
    EXPECT_EQ(source.width(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(source.is_zero());
    EXPECT_EQ(source, BitVector());
    source = original;
    EXPECT_EQ(source, original);

    BitVector target = random_bits(width == 0 ? 130 : 300 - width, rng);
    target = std::move(moved);
    EXPECT_EQ(target, original);
    EXPECT_EQ(moved.width(), 0);  // NOLINT(bugprone-use-after-move)

    // Assignment across the narrow/wide boundary in both directions.
    for (int other : {3, 64, 65, 190}) {
      BitVector x = random_bits(other, rng);
      x = original;
      EXPECT_EQ(x, original) << other << " <- " << width;
      BitVector y = original;
      const BitVector z = random_bits(other, rng);
      y = z;
      EXPECT_EQ(y, z) << width << " <- " << other;
    }
  }
}

}  // namespace
}  // namespace ifsyn
