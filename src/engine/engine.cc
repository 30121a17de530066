#include "src/engine/engine.h"

#include <string>

#include "src/eval/relation.h"

namespace sqod {

Engine::Engine(EngineOptions options) : options_(options) {}

Result<Session> Engine::Open(std::string_view source) {
  SQOD_ASSIGN_OR_RETURN(ParsedUnit unit, ParseUnit(source));
  return Open(std::move(unit));
}

namespace {

// Every stage below the parser — the optimizer, plan compilation and the
// relations themselves — assumes atoms of at most Relation::kMaxArity
// columns, so a wider atom is rejected here, before any of them runs.
Status CheckArity(const ParsedUnit& unit) {
  auto check = [](const Atom& a, const char* what) -> Status {
    if (a.arity() <= Relation::kMaxArity) return Status::Ok();
    return Status::InvalidArgument(
        std::string(what) + " atom " + PredName(a.pred()) + " has arity " +
        std::to_string(a.arity()) + ", above the limit of " +
        std::to_string(Relation::kMaxArity));
  };
  for (const Rule& rule : unit.program.rules()) {
    SQOD_RETURN_IF_ERROR(check(rule.head, "rule"));
    for (const Literal& lit : rule.body) {
      SQOD_RETURN_IF_ERROR(check(lit.atom, "rule"));
    }
  }
  for (const Constraint& ic : unit.constraints) {
    for (const Literal& lit : ic.body) {
      SQOD_RETURN_IF_ERROR(check(lit.atom, "constraint"));
    }
  }
  for (const Atom& fact : unit.facts) {
    SQOD_RETURN_IF_ERROR(check(fact, "fact"));
  }
  return Status::Ok();
}

}  // namespace

Result<Session> Engine::Open(ParsedUnit unit) {
  SQOD_RETURN_IF_ERROR(CheckArity(unit));
  metrics().GetCounter("engine/sessions_opened")->Increment();
  return Session(this, std::move(unit));
}

Result<Session> Engine::Open(Program program, std::vector<Constraint> ics,
                             std::vector<Atom> facts) {
  ParsedUnit unit;
  unit.program = std::move(program);
  unit.constraints = std::move(ics);
  unit.facts = std::move(facts);
  return Open(std::move(unit));
}

}  // namespace sqod
