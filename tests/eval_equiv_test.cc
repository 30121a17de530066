// Equivalence suite: the evaluator (semi-naive, hash-indexed joins) must
// produce exactly the answers of the independent reference evaluator
// (tests/reference_eval.h), which is naive, joins by nested loops and
// shares no code with the engine.
//
// Coverage: the Figure 1 worked example, the GoodPath and ColoredClosure
// workload families, stratified IDB negation with comparisons, and a
// randomized program/EDB fuzz sweep. The "FourWay" and "AllConfigurations"
// test names date from when the evaluator also had naive iteration and
// unindexed joins, and every pairing of them was checked here.

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

using FuzzRng = std::mt19937_64;

int RandInt(FuzzRng* rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>((*rng)() % (hi - lo + 1));
}

// Runs `program` against `edb` and asserts that its answers equal the
// reference evaluator's.
void ExpectMatchesReference(const Program& program, const Database& edb,
                            const std::string& label) {
  Result<std::vector<Tuple>> result = EvaluateQuery(program, edb);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
  ASSERT_EQ(ReferenceQuery(program, edb), result.value())
      << label << " diverged from the reference evaluator";
}

// The Figure 1 worked example, as shipped in examples/figure1.dl (the
// a/b closure program with facts).
TEST(EvalEquivTest, Figure1FourWayEquivalence) {
  std::ifstream in(std::string(SQOD_EXAMPLES_DIR) + "/figure1.dl");
  ASSERT_TRUE(in.good());
  std::ostringstream source;
  source << in.rdbuf();
  Result<ParsedUnit> parsed = ParseUnit(source.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Database edb;
  for (const Atom& fact : parsed.value().facts) edb.InsertAtom(fact);
  ExpectMatchesReference(parsed.value().program, edb, "figure1.dl");
}

// The Section 3 GoodPath program over its generated workload (the E2
// bench family, scaled down): linear recursion plus bound-key joins —
// the shape the scan_probe_emit kernel targets.
TEST(EvalEquivTest, GoodPathFourWayEquivalence) {
  Rng rng(20260808);
  GoodPathConfig config;
  config.nodes = 120;
  config.edges = 420;
  config.num_start = 8;
  config.num_end = 8;
  config.threshold = 30;
  Database edb = MakeGoodPathWorkload(config, &rng);
  ExpectMatchesReference(MakeGoodPathProgram(), edb, "goodpath");
}

// The E4 family: k-colored transitive closure (one base + one recursive
// rule per color) over random colored edges.
TEST(EvalEquivTest, ColoredClosureFourWayEquivalence) {
  Rng rng(20260808);
  ColoredClosure workload = MakeColoredClosure(/*colors=*/3, /*num_ics=*/2,
                                               &rng);
  Database edb = MakeColoredEdges(/*colors=*/3, /*nodes=*/60, /*edges=*/200,
                                  workload.ics, &rng);
  ExpectMatchesReference(workload.program, edb, "colored_closure");
}

// Stratified IDB negation plus comparisons: reach in stratum 0, its
// complement in stratum 1, a guarded closure over the complement in
// stratum 2. Exercises kCheckNeg against both EDB and IDB-total sources
// and kFilterCmp between join levels.
TEST(EvalEquivTest, StratifiedNegationFourWayEquivalence) {
  Result<ParsedUnit> parsed = ParseUnit(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    dark(X) :- node(X), !reach(X).
    darkpair(X, Y) :- dark(X), e(X, Y), dark(Y), X < Y, !blocked(X).
    darkpair(X, Z) :- darkpair(X, Y), e(Y, Z), dark(Z), Y != Z.
    ?- darkpair.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Database edb;
  FuzzRng rng(7);
  const PredId node = InternPred("node"), start = InternPred("start"),
               blocked = InternPred("blocked"), e = InternPred("e");
  for (int n = 0; n < 30; ++n) {
    edb.Insert(node, {Value::Int(n)});
  }
  edb.Insert(start, {Value::Int(0)});
  edb.Insert(start, {Value::Int(3)});
  edb.Insert(blocked, {Value::Int(17)});
  edb.Insert(blocked, {Value::Int(21)});
  for (int i = 0; i < 70; ++i) {
    edb.Insert(e, {Value::Int(RandInt(&rng, 0, 29)),
                   Value::Int(RandInt(&rng, 0, 29))});
  }
  ExpectMatchesReference(parsed.value().program, edb, "stratified_neg");
}

// Repeated variables inside one subgoal (e(X, X)) and inter-atom repeats:
// the compiler must not mask a column on a variable the same atom is the
// first to bind, or the answers diverge from the reference evaluator.
TEST(EvalEquivTest, RepeatedVariableFourWayEquivalence) {
  Result<ParsedUnit> parsed = ParseUnit(R"(
    loop(X) :- e(X, X).
    tri(X, Y) :- e(X, Y), e(Y, X), X <= Y.
    chain(X, Z) :- loop(X), e(X, Z), e(Z, Z).
    ?- tri.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Database edb;
  FuzzRng rng(11);
  const PredId e = InternPred("e");
  for (int i = 0; i < 60; ++i) {
    edb.Insert(e, {Value::Int(RandInt(&rng, 0, 9)),
                   Value::Int(RandInt(&rng, 0, 9))});
  }
  ExpectMatchesReference(parsed.value().program, edb, "repeated_vars");
}

// Generates a random safe program over EDB predicates e0/2, e1/2, f0/1 and
// IDB predicates p0..p2, plus random facts over a small constant domain.
// Safety by construction: head variables and negated/compared variables are
// drawn from the positive body's variables; negation targets EDB only.
std::string MakeRandomUnit(FuzzRng* rng) {
  const char* vars[] = {"X", "Y", "Z", "W"};
  const char* edb_binary[] = {"e0", "e1"};
  const char* cmp_ops[] = {"<", "<=", ">", ">=", "=", "!="};
  int num_idb = RandInt(rng, 1, 3);
  std::string src;

  for (int p = 0; p < num_idb; ++p) {
    int num_rules = RandInt(rng, 1, 3);
    for (int r = 0; r < num_rules; ++r) {
      // Positive body: 1-3 atoms over EDB and already-introduced IDB preds.
      int body_len = RandInt(rng, 1, 3);
      std::vector<std::string> body;
      std::vector<std::string> body_vars;
      for (int b = 0; b < body_len; ++b) {
        bool use_idb = p > 0 && RandInt(rng, 0, 2) == 0;
        std::string a1 = vars[RandInt(rng, 0, 3)];
        std::string a2 = vars[RandInt(rng, 0, 3)];
        body_vars.push_back(a1);
        if (use_idb) {
          body_vars.push_back(a2);
          body.push_back("p" + std::to_string(RandInt(rng, 0, p - 1)) + "(" +
                         a1 + ", " + a2 + ")");
        } else if (RandInt(rng, 0, 3) == 0) {
          body.push_back(std::string("f0(") + a1 + ")");
        } else {
          body_vars.push_back(a2);
          body.push_back(std::string(edb_binary[RandInt(rng, 0, 1)]) + "(" +
                         a1 + ", " + a2 + ")");
        }
      }
      // Optional safe EDB negation over bound variables.
      if (RandInt(rng, 0, 2) == 0) {
        body.push_back("!" + std::string(edb_binary[RandInt(rng, 0, 1)]) +
                       "(" + body_vars[RandInt(rng, 0, body_vars.size() - 1)] +
                       ", " +
                       body_vars[RandInt(rng, 0, body_vars.size() - 1)] + ")");
      }
      // Optional comparison over bound variables (or a constant).
      if (RandInt(rng, 0, 2) == 0) {
        std::string rhs = RandInt(rng, 0, 1) == 0
                              ? std::to_string(RandInt(rng, 0, 4))
                              : body_vars[RandInt(rng, 0,
                                                  body_vars.size() - 1)];
        body.push_back(body_vars[RandInt(rng, 0, body_vars.size() - 1)] +
                       " " + cmp_ops[RandInt(rng, 0, 5)] + " " + rhs);
      }
      // Head over bound variables; recursion allowed via same-pred heads.
      std::string h1 = body_vars[RandInt(rng, 0, body_vars.size() - 1)];
      std::string h2 = body_vars[RandInt(rng, 0, body_vars.size() - 1)];
      src += "p" + std::to_string(p) + "(" + h1 + ", " + h2 + ") :- ";
      for (size_t b = 0; b < body.size(); ++b) {
        if (b > 0) src += ", ";
        src += body[b];
      }
      src += ".\n";
    }
  }

  // Random EDB over a 5-constant domain (finite Herbrand base, so both
  // evaluators reach the fixpoint without overflow guards).
  int facts = RandInt(rng, 3, 14);
  for (int f = 0; f < facts; ++f) {
    src += std::string(edb_binary[RandInt(rng, 0, 1)]) + "(" +
           std::to_string(RandInt(rng, 0, 4)) + ", " +
           std::to_string(RandInt(rng, 0, 4)) + ").\n";
  }
  int unary = RandInt(rng, 0, 4);
  for (int f = 0; f < unary; ++f) {
    src += "f0(" + std::to_string(RandInt(rng, 0, 4)) + ").\n";
  }
  src += "?- p" + std::to_string(num_idb - 1) + ".\n";
  return src;
}

TEST(EvalEquivFuzzTest, AllConfigurationsAgree) {
  FuzzRng rng(20260806);
  int generated = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string src = MakeRandomUnit(&rng);
    Result<ParsedUnit> parsed = ParseUnit(src);
    // The generator aims for valid programs, but skip the rare rejects
    // (e.g. a stratification corner) rather than constrain it further.
    if (!parsed.ok()) continue;
    ++generated;
    Database edb;
    for (const Atom& fact : parsed.value().facts) edb.InsertAtom(fact);
    ExpectMatchesReference(parsed.value().program, edb,
                           "fuzz trial " + std::to_string(trial) + ":\n" +
                               src);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GE(generated, 150);
}

}  // namespace
}  // namespace sqod
