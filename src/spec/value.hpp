// ifsyn/spec/value.hpp
//
// Runtime values for variables and signals: a scalar bit vector or a
// one-dimensional array of them. Used for variable initializers in the IR
// and for live storage inside the simulator.
#pragma once

#include <variant>
#include <vector>

#include "spec/type.hpp"
#include "util/bit_vector.hpp"

namespace ifsyn::spec {

/// A value conforming to a Type: scalars hold one element, arrays hold
/// `array_size()` elements, each of `scalar_width()` bits. A scalar's bits
/// live inline (no element vector), so a narrow scalar Value never touches
/// the heap.
class Value {
 public:
  /// Zero-initialized value of the given type.
  explicit Value(const Type& type) : type_(type) {
    if (type.is_array()) {
      data_.emplace<Elements>(static_cast<std::size_t>(type.array_size()),
                              BitVector(type.scalar_width()));
    } else {
      data_.emplace<BitVector>(type.scalar_width());
    }
  }

  /// Scalar value from a bit vector (type = bits(width)).
  static Value scalar(BitVector bv) {
    Value v(Type::bits(bv.width()));
    v.bits() = std::move(bv);
    return v;
  }

  /// Scalar integer value of a given width (default 32).
  static Value integer(std::int64_t x, int width = 32) {
    Value v(Type::integer(width));
    v.bits() = BitVector::from_int(width, x);
    return v;
  }

  /// Re-type to a zero value of `type` in place. Equivalent to
  /// `*this = Value(type)` but reuses the storage's capacity — the
  /// simulation VM recycles procedure frames through this.
  void reinit(const Type& type) {
    type_ = type;
    const int width = type.scalar_width();
    if (type.is_array()) {
      const auto size = static_cast<std::size_t>(type.array_size());
      if (Elements* elems = std::get_if<Elements>(&data_)) {
        elems->assign(size, BitVector(width));
      } else {
        data_.emplace<Elements>(size, BitVector(width));
      }
    } else if (BitVector* bits = std::get_if<BitVector>(&data_);
               bits != nullptr && width <= 64) {
      bits->assign_uint(width, 0);
    } else {
      data_.emplace<BitVector>(width);
    }
  }

  const Type& type() const { return type_; }
  bool is_array() const { return type_.is_array(); }

  /// Scalar payload. Asserts the value is scalar.
  const BitVector& get() const {
    IFSYN_ASSERT(!is_array());
    return bits();
  }
  /// Mutable scalar payload, for in-place updates (the simulation VM's
  /// store fast paths and loop counters). Callers must keep the payload
  /// width equal to type().scalar_width(). Asserts the value is scalar.
  BitVector& scalar_bits() {
    IFSYN_ASSERT(!is_array());
    return bits();
  }
  void set(BitVector bv) {
    IFSYN_ASSERT(!is_array());
    IFSYN_ASSERT_MSG(bv.width() == type_.scalar_width(),
                     "width mismatch storing " << bv.width() << " bits into "
                                               << type_.to_string());
    bits() = std::move(bv);
  }

  /// Element access for arrays (and scalars via index 0).
  const BitVector& at(int i) const {
    IFSYN_ASSERT_MSG(i >= 0 && i < size(),
                     "array index " << i << " out of bounds 0.."
                                    << size() - 1);
    return is_array() ? elems()[static_cast<std::size_t>(i)] : bits();
  }
  void set_at(int i, BitVector bv) {
    IFSYN_ASSERT_MSG(i >= 0 && i < size(),
                     "array index " << i << " out of bounds 0.."
                                    << size() - 1);
    IFSYN_ASSERT(bv.width() == type_.scalar_width());
    (is_array() ? elems()[static_cast<std::size_t>(i)] : bits()) =
        std::move(bv);
  }

  int size() const {
    return is_array() ? static_cast<int>(elems().size()) : 1;
  }

  friend bool operator==(const Value& a, const Value& b) {
    return a.type_ == b.type_ && a.data_ == b.data_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  using Elements = std::vector<BitVector>;
  // data_ holds a BitVector exactly when type_ is scalar (the constructor
  // and reinit keep the two in step), so these never see a null pointer.
  BitVector& bits() { return *std::get_if<BitVector>(&data_); }
  const BitVector& bits() const { return *std::get_if<BitVector>(&data_); }
  Elements& elems() { return *std::get_if<Elements>(&data_); }
  const Elements& elems() const { return *std::get_if<Elements>(&data_); }

  Type type_;
  std::variant<BitVector, Elements> data_;  ///< scalar bits or elements
};

}  // namespace ifsyn::spec
