#ifndef SQOD_AST_TERM_H_
#define SQOD_AST_TERM_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/value.h"

namespace sqod {

// Identifier of a logical variable. Variables are identified by their
// interned name; rules are standardized apart by renaming when needed.
using VarId = SymbolId;

// A term is a variable or a constant (Datalog is function-free).
class Term {
 public:
  Term() : is_var_(false), value_() {}

  static Term Var(std::string_view name) {
    Term t;
    t.is_var_ = true;
    t.var_ = GlobalStrings().Intern(name);
    return t;
  }
  static Term VarFromId(VarId id) {
    Term t;
    t.is_var_ = true;
    t.var_ = id;
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.is_var_ = false;
    t.value_ = v;
    return t;
  }
  static Term Int(int64_t v) { return Const(Value::Int(v)); }
  static Term Symbol(std::string_view s) { return Const(Value::Symbol(s)); }

  bool is_var() const { return is_var_; }
  bool is_const() const { return !is_var_; }

  VarId var() const { return var_; }
  const Value& value() const { return value_; }

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  // Arbitrary-but-total order, for canonical sorting.
  bool operator<(const Term& other) const;

  size_t Hash() const;
  std::string ToString() const;

 private:
  bool is_var_;
  VarId var_ = -1;
  Value value_;
};

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

// Generates fresh variables, named "<base>#<n>".
//
// Invariant: only FreshVarGen emits variable names containing '#'. The
// parser cannot produce them (a variable is [A-Z_][A-Za-z0-9_@']*), and
// hand-built placeholders use other markers (adorn's "P$<i>"). So a '#'
// name in an optimizer run's input was emitted by an earlier run.
//
// Inside a FreshNameScope (one optimizer run on this thread) names are
// run-scoped: each base's suffixes restart at 0, and "<base>#<n>" is handed
// out unless the scope reserved it (the run's input uses it). Every name a
// run hands out is therefore apart from its input and from every other name
// of the run. Runs whose inputs reuse variable names reuse the same fresh
// names, so for such traffic the process-wide interner stops growing; the
// base is the renamed variable's own name, so an input with new variable
// names still interns new "<base>#<n>" names, a few per variable. Terms
// from two runs must not meet in one rule unless a later run takes both as
// input, which reserves them.
//
// Outside any scope a fresh name is one never interned process-wide; the
// per-base suffix counters are shared by all threads under a mutex.
class FreshVarGen {
 public:
  // Returns a fresh variable named "_G#<n>".
  Term Next();
  // Returns a fresh variable whose name hints at `base` ("<base>#<n>").
  Term NextLike(std::string_view base);
};

// Opens the calling thread's fresh-name scope for one optimizer run, or
// joins the scope already open on the thread: a nested run shares the outer
// run's counters and reservations, so the names of both stay apart. The
// scope closes when its outermost FreshNameScope is destroyed.
class FreshNameScope {
 public:
  FreshNameScope();
  ~FreshNameScope();
  FreshNameScope(const FreshNameScope&) = delete;
  FreshNameScope& operator=(const FreshNameScope&) = delete;

  // Marks `vars` (variables of the run's input) as taken: the scope never
  // hands them out.
  void Reserve(const std::vector<VarId>& vars);
};

}  // namespace sqod

#endif  // SQOD_AST_TERM_H_
