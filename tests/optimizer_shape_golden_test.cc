// Golden shape test for the optimizer: the structural counts of P1 and P'
// (adorned predicates and rules, goal classes, surviving classes, query
// satisfiability, rules of the rewriting) across the worked example, the E4
// scaling families, the E9 ablation workload, random programs, and runs
// with passes disabled. The E4 numbers equal the bench's adorned_preds /
// adorned_rules counters. Any change to these counts changes what the
// optimizer builds, so it must be explained, not re-pinned.
//
// The WideIc and E9 families are also checked for P == P' with the
// reference evaluator (tests/reference_eval.h), which shares no code with
// the optimizer or the engine, on random databases that satisfy the ICs.
//
// The suite keeps the name InterningGoldenTest: what it pins is the output
// of the hash-consed (interned) optimizer, which has no second path to
// compare against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cq/ic_check.h"
#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

struct Shape {
  int adorned_predicates;
  int adorned_rules;
  int tree_classes;
  int surviving_classes;
  bool query_satisfiable;
  size_t rewritten_rules;
};

void ExpectShape(const std::string& label, const Program& program,
                 const std::vector<Constraint>& ics, const Shape& want,
                 const SqoOptions& options = {}) {
  Result<SqoReport> result = OptimizeProgram(program, ics, options);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
  const SqoReport& report = result.value();
  EXPECT_EQ(report.adorned_predicates, want.adorned_predicates) << label;
  EXPECT_EQ(report.adorned_rules, want.adorned_rules) << label;
  EXPECT_EQ(report.tree_classes, want.tree_classes) << label;
  EXPECT_EQ(report.surviving_classes, want.surviving_classes) << label;
  EXPECT_EQ(report.query_satisfiable, want.query_satisfiable) << label;
  EXPECT_EQ(report.rewritten.rules().size(), want.rewritten_rules) << label;
}

// The E4 WideIc constraint: a chain of `width` alternating a/b edges is
// forbidden (bench/bench_e4_scaling.cc builds the same IC).
Constraint WideIc(int width) {
  Constraint ic;
  for (int i = 0; i < width; ++i) {
    const char* pred = (i % 2 == 0) ? "a" : "b";
    ic.body.push_back(Literal::Pos(
        Atom(pred, {Term::Var("V" + std::to_string(i)),
                    Term::Var("V" + std::to_string(i + 1))})));
  }
  return ic;
}

// The facts of `db` that can be kept in generation order without violating
// `ics`: each fact whose insertion makes some IC fail is dropped.
Database DropViolatingFacts(const Database& db,
                            const std::vector<Constraint>& ics) {
  std::vector<std::pair<PredId, Tuple>> facts;
  for (const auto& [pred, rel] : db.relations()) {
    for (TupleRef t : rel.rows()) facts.emplace_back(pred, t.Materialize());
  }
  std::sort(facts.begin(), facts.end());
  Database out;
  for (const auto& [pred, tuple] : facts) {
    out.Insert(pred, tuple);
    if (!SatisfiesAll(out, ics)) out.Erase(pred, tuple);
  }
  return out;
}

// P == P' under the reference evaluator on `db`. Returns the number of
// answers.
size_t ExpectReferenceEquivalent(const std::string& label,
                                 const Program& program,
                                 const Program& rewritten,
                                 const Database& db) {
  std::vector<Tuple> original = ReferenceQuery(program, db);
  EXPECT_EQ(original, ReferenceQuery(rewritten, db)) << label;
  return original.size();
}

TEST(InterningGoldenTest, Figure1Example) {
  std::ifstream in(std::string(SQOD_EXAMPLES_DIR) + "/figure1.dl");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  ParsedUnit unit = ParseUnit(source.str()).take();
  ExpectShape("figure1", unit.program, unit.constraints,
              {3, 6, 3, 3, true, 9});
}

TEST(InterningGoldenTest, E4ColoredClosureFamily) {
  const Shape want[] = {{3, 5, 3, 3, true, 8},
                        {7, 15, 7, 7, true, 22},
                        {12, 36, 12, 12, true, 48}};
  for (int colors = 2; colors <= 4; ++colors) {
    Rng rng(77);
    ColoredClosure cc = MakeColoredClosure(colors, colors, &rng);
    ExpectShape("colors " + std::to_string(colors), cc.program, cc.ics,
                want[colors - 2]);
  }
}

TEST(InterningGoldenTest, E4WideIcFamily) {
  const Shape want[] = {{3, 6, 3, 3, true, 9},
                        {10, 19, 18, 18, true, 47},
                        {19, 36, 75, 75, true, 173},
                        {30, 57, 183, 183, true, 383}};
  for (int width = 2; width <= 5; ++width) {
    ExpectShape("width " + std::to_string(width), MakeAbClosureProgram(),
                {WideIc(width)}, want[width - 2]);
  }
}

TEST(InterningGoldenTest, E4WideIcPreservesAnswers) {
  Program p = MakeAbClosureProgram();
  for (int width = 2; width <= 4; ++width) {
    std::vector<Constraint> ics{WideIc(width)};
    SqoReport report = OptimizeProgram(p, ics).take();
    size_t answers = 0;
    for (int trial = 0; trial < 3; ++trial) {
      Rng rng(500 + 10 * width + trial);
      Database db =
          DropViolatingFacts(MakeTwoColoredGraph(10, 24, 0.5, &rng), ics);
      ASSERT_TRUE(SatisfiesAll(db, ics));
      answers += ExpectReferenceEquivalent(
          "width " + std::to_string(width) + " trial " + std::to_string(trial),
          p, report.rewritten, db);
    }
    EXPECT_GT(answers, 0u) << "width " << width;
  }
}

TEST(InterningGoldenTest, E9GoodPathWorkload) {
  ExpectShape("e9", MakeGoodPathProgram(), MakeMonotoneIcs(600),
              {4, 7, 2, 2, true, 4});
}

TEST(InterningGoldenTest, E9GoodPathPreservesAnswers) {
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(600);
  SqoReport report = OptimizeProgram(p, ics).take();
  size_t answers = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(900 + trial);
    // Sparse steps keep the reference evaluator's naive closure small;
    // dense start and end points keep the answers non-empty.
    GoodPathConfig config;
    config.nodes = 700;
    config.edges = 400;
    config.num_start = 100;
    config.num_end = 300;
    config.threshold = 600;
    Database db = DropViolatingFacts(MakeGoodPathWorkload(config, &rng), ics);
    ASSERT_TRUE(SatisfiesAll(db, ics));
    answers += ExpectReferenceEquivalent("trial " + std::to_string(trial), p,
                                         report.rewritten, db);
  }
  EXPECT_GT(answers, 0u);
}

TEST(InterningGoldenTest, RandomProgramFamily) {
  const std::pair<uint64_t, Shape> cases[] = {
      {11, {6, 7, 5, 5, true, 9}},
      {23, {5, 8, 2, 2, true, 5}},
      {42, {8, 12, 1, 1, true, 2}}};
  for (const auto& [seed, want] : cases) {
    Rng rng(seed);
    RandomProgram rp = MakeRandomProgram(3, 3, 4, 3, &rng);
    ExpectShape("seed " + std::to_string(seed), rp.program, rp.ics, want);
  }
}

// The ablation surface (the CLI's --disable-pass) on the Figure 1 program.
TEST(InterningGoldenTest, Ablations) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  const std::pair<std::vector<std::string>, Shape> cases[] = {
      {{"tree"}, {3, 6, 0, 0, true, 9}},
      {{"residues"}, {3, 6, 3, 3, true, 9}},
      {{"fd_rewrite"}, {3, 6, 3, 3, true, 9}},
      {{"adorn"}, {0, 0, 0, 0, true, 4}},
      {{"tree", "residues"}, {3, 6, 0, 0, true, 9}}};
  for (const auto& [disabled, want] : cases) {
    SqoOptions options;
    options.disabled_passes = disabled;
    std::string label = "disabled:";
    for (const std::string& pass : disabled) label += " " + pass;
    ExpectShape(label, p, ics, want, options);
  }
}

}  // namespace
}  // namespace sqod
