#include "src/base/value.h"

#include <string>

namespace sqod {

int Value::Compare(const Value& other) const {
  if (kind_ != other.kind_) return kind_ == Kind::kInt ? -1 : 1;
  if (kind_ == Kind::kInt) {
    if (int_ < other.int_) return -1;
    return int_ == other.int_ ? 0 : 1;
  }
  if (sym_ == other.sym_) return 0;
  return symbol_name().compare(other.symbol_name()) < 0 ? -1 : 1;
}

std::string Value::ToString() const {
  if (kind_ == Kind::kInt) return std::to_string(int_);
  return symbol_name();
}

}  // namespace sqod
