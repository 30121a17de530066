#include "src/engine/engine.h"

namespace sqod {

Engine::Engine(EngineOptions options) : options_(options) {}

Result<Session> Engine::Open(std::string_view source) {
  SQOD_ASSIGN_OR_RETURN(ParsedUnit unit, ParseUnit(source));
  return Open(std::move(unit));
}

Result<Session> Engine::Open(ParsedUnit unit) {
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
