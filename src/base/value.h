#ifndef SQOD_BASE_VALUE_H_
#define SQOD_BASE_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/base/interner.h"

namespace sqod {

// A database constant: either a 64-bit integer or an interned symbol.
// Values carry the dense total order used by order atoms: integers compare
// numerically, symbols compare lexicographically, and every integer precedes
// every symbol. The *theory* of order atoms is a dense order (Section 2 of
// the paper); stored values are just sample points of that order.
class Value {
 public:
  Value() : kind_(Kind::kInt), int_(0) {}

  static Value Int(int64_t v) {
    Value x;
    x.kind_ = Kind::kInt;
    x.int_ = v;
    return x;
  }
  static Value Symbol(std::string_view name) {
    Value x;
    x.kind_ = Kind::kSymbol;
    x.sym_ = GlobalStrings().Intern(name);
    return x;
  }
  static Value SymbolFromId(SymbolId id) {
    Value x;
    x.kind_ = Kind::kSymbol;
    x.sym_ = id;
    return x;
  }

  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_symbol() const { return kind_ == Kind::kSymbol; }

  int64_t as_int() const { return int_; }
  SymbolId symbol_id() const { return sym_; }
  const std::string& symbol_name() const { return GlobalStrings().Name(sym_); }

  // Total order over all values; see class comment.
  int Compare(const Value& other) const;

  // Interning makes symbol equality an id comparison; only the *order* of
  // two symbols needs their names (Compare).
  bool operator==(const Value& other) const {
    if (kind_ != other.kind_) return false;
    return kind_ == Kind::kInt ? int_ == other.int_ : sym_ == other.sym_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  // Symbols hash by id (stable within a process); integers by value. The two
  // kinds are separated with a salt so Int(0) and the first symbol differ.
  // Inline: every relation insert, dedup lookup and index probe hashes its
  // values through here.
  size_t Hash() const {
    if (kind_ == Kind::kInt) return std::hash<int64_t>()(int_) * 2;
    return std::hash<int32_t>()(sym_) * 2 + 1;
  }
  std::string ToString() const;

 private:
  enum class Kind : uint8_t { kInt, kSymbol };
  Kind kind_;
  union {
    int64_t int_;
    SymbolId sym_;
  };
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace sqod

#endif  // SQOD_BASE_VALUE_H_
