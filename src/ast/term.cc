#include "src/ast/term.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace sqod {

bool Term::operator==(const Term& other) const {
  if (is_var_ != other.is_var_) return false;
  if (is_var_) return var_ == other.var_;
  return value_ == other.value_;
}

bool Term::operator<(const Term& other) const {
  if (is_var_ != other.is_var_) return is_var_;  // variables first
  if (is_var_) return var_ < other.var_;
  return value_ < other.value_;
}

size_t Term::Hash() const {
  if (is_var_) return std::hash<int32_t>()(var_) * 4 + 2;
  return value_.Hash() * 4;
}

std::string Term::ToString() const {
  if (is_var_) return GlobalStrings().Name(var_);
  return value_.ToString();
}

namespace {

// The calling thread's fresh-name scope; depth 0 means none is open.
struct FreshNameState {
  int depth = 0;
  std::unordered_set<VarId> reserved;
  std::unordered_map<std::string, int> next_suffix;
};

thread_local FreshNameState fresh_names;

std::string SuffixedName(std::string_view base, int suffix) {
  std::string name(base);
  name += '#';
  name += std::to_string(suffix);
  return name;
}

}  // namespace

FreshNameScope::FreshNameScope() { ++fresh_names.depth; }

FreshNameScope::~FreshNameScope() {
  if (--fresh_names.depth > 0) return;
  fresh_names.reserved.clear();
  fresh_names.next_suffix.clear();
}

void FreshNameScope::Reserve(const std::vector<VarId>& vars) {
  fresh_names.reserved.insert(vars.begin(), vars.end());
}

Term FreshVarGen::Next() { return NextLike("_G"); }

Term FreshVarGen::NextLike(std::string_view base) {
  if (fresh_names.depth > 0) {
    // Run-scoped: the name only has to avoid the run's input (reserved) and
    // the run's earlier names (a per-base counter never repeats a suffix).
    int& counter = fresh_names.next_suffix[std::string(base)];
    for (;;) {
      SymbolId id = GlobalStrings().Intern(SuffixedName(base, counter++));
      if (!fresh_names.reserved.contains(id)) return Term::VarFromId(id);
    }
  }
  // Process-wide: a name is fresh iff it has never been interned. Suffixes
  // resume from a per-base high-water mark, so generation does not re-probe
  // every suffix handed out before; the Intern result still skips suffixes
  // already taken (by the input, or by a scoped run). Leaked, like
  // GlobalStrings(), to dodge static destruction order.
  static std::mutex* mu = new std::mutex;
  static std::unordered_map<std::string, int>* next_suffix =
      new std::unordered_map<std::string, int>();
  for (;;) {
    int suffix;
    {
      std::lock_guard<std::mutex> lock(*mu);
      suffix = (*next_suffix)[std::string(base)]++;
    }
    bool inserted = false;
    SymbolId id = GlobalStrings().Intern(SuffixedName(base, suffix), &inserted);
    if (inserted) return Term::VarFromId(id);
  }
}

}  // namespace sqod
