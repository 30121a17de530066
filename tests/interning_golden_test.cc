// Golden equivalence test for the hash-consing triplet store: the memo
// tables (SqoOptions::memoize_triplets) are a pure optimization, so every
// pipeline artifact must come out identical with them on and off — across
// the worked example, the E4 scaling families, and the E9 ablation
// workload, including runs with passes disabled.
//
// Fresh variable names are run-scoped, so the two runs currently draw the
// same names; rules are still compared after a canonical per-rule renaming,
// which holds the memo tables to producing the same rules, not to drawing
// names in the same order.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

// Renames each rule's variables to _c0, _c1, ... in order of first
// occurrence (head, then body, then comparisons), making the rendering
// independent of which fresh names the run happened to draw.
Rule CanonicalRule(const Rule& rule) {
  std::vector<VarId> vars;
  rule.head.CollectVars(&vars);
  for (const Literal& l : rule.body) l.atom.CollectVars(&vars);
  for (const Comparison& c : rule.comparisons) c.CollectVars(&vars);
  Substitution canon;
  int next = 0;
  for (VarId v : vars) {
    if (canon.Lookup(v) == nullptr) {
      canon.Bind(v, Term::Var("_c" + std::to_string(next++)));
    }
  }
  return canon.Apply(rule);
}

std::string CanonicalProgramString(const Program& program) {
  std::string out;
  for (const Rule& rule : program.rules()) {
    out += CanonicalRule(rule).ToString();
    out += '\n';
  }
  return out;
}

SqoReport RunPipeline(const Program& program,
                      const std::vector<Constraint>& ics, bool memoize,
                      SqoOptions options = {}) {
  options.memoize_triplets = memoize;
  Result<SqoReport> report = OptimizeProgram(program, ics, options);
  EXPECT_TRUE(report.ok()) << report.status().message();
  return std::move(report).value();
}

// Every observable artifact of the run must agree: the rewriting (the
// product), P1, the normalized input, and the structural counters.
void ExpectSameOutcome(const Program& program,
                       const std::vector<Constraint>& ics,
                       SqoOptions options = {}) {
  SqoReport with = RunPipeline(program, ics, /*memoize=*/true, options);
  SqoReport without = RunPipeline(program, ics, /*memoize=*/false, options);
  EXPECT_EQ(CanonicalProgramString(with.rewritten),
            CanonicalProgramString(without.rewritten));
  EXPECT_EQ(CanonicalProgramString(with.adorned),
            CanonicalProgramString(without.adorned));
  EXPECT_EQ(CanonicalProgramString(with.normalized),
            CanonicalProgramString(without.normalized));
  EXPECT_EQ(with.adorned_predicates, without.adorned_predicates);
  EXPECT_EQ(with.adorned_rules, without.adorned_rules);
  EXPECT_EQ(with.tree_classes, without.tree_classes);
  EXPECT_EQ(with.surviving_classes, without.surviving_classes);
  EXPECT_EQ(with.query_satisfiable, without.query_satisfiable);
}

TEST(InterningGoldenTest, Figure1Example) {
  std::ifstream in(std::string(SQOD_EXAMPLES_DIR) + "/figure1.dl");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  ParsedUnit unit = ParseUnit(source.str()).take();
  ExpectSameOutcome(unit.program, unit.constraints);
}

TEST(InterningGoldenTest, E4ColoredClosureFamily) {
  for (int colors = 2; colors <= 4; ++colors) {
    Rng rng(77);
    ColoredClosure cc = MakeColoredClosure(colors, colors, &rng);
    ExpectSameOutcome(cc.program, cc.ics);
  }
}

TEST(InterningGoldenTest, E4WideIcFamily) {
  Program p = MakeAbClosureProgram();
  for (int width = 2; width <= 4; ++width) {
    Constraint ic;
    for (int i = 0; i < width; ++i) {
      const char* pred = (i % 2 == 0) ? "a" : "b";
      ic.body.push_back(Literal::Pos(
          Atom(pred, {Term::Var("V" + std::to_string(i)),
                      Term::Var("V" + std::to_string(i + 1))})));
    }
    ExpectSameOutcome(p, {ic});
  }
}

TEST(InterningGoldenTest, E9GoodPathWorkload) {
  ExpectSameOutcome(MakeGoodPathProgram(), MakeMonotoneIcs(600));
}

TEST(InterningGoldenTest, RandomProgramFamily) {
  for (uint64_t seed : {11u, 23u, 42u}) {
    Rng rng(seed);
    RandomProgram rp = MakeRandomProgram(3, 3, 4, 3, &rng);
    ExpectSameOutcome(rp.program, rp.ics);
  }
}

// The memo switch must compose with the ablation surface: disabling passes
// (the CLI's --disable-pass) yields the same degraded pipeline either way.
TEST(InterningGoldenTest, AblationsUnaffectedByMemoization) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  for (const char* pass : {"tree", "residues", "fd_rewrite", "adorn"}) {
    SqoOptions options;
    options.disabled_passes.push_back(pass);
    ExpectSameOutcome(p, ics, options);
  }
  SqoOptions p1_only;
  p1_only.disabled_passes = {"tree", "residues"};
  ExpectSameOutcome(p, ics, p1_only);
}

}  // namespace
}  // namespace sqod
