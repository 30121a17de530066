#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "src/base/cancel.h"
#include "src/eval/bytecode.h"
#include "src/eval/evaluator.h"
#include "src/eval/kernel.h"
#include "src/parser/parser.h"
#include "src/sqo/lower.h"
#include "src/sqo/optimizer.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

// Parses a unit, loads its facts into a database, evaluates the query.
std::vector<Tuple> RunQuery(const std::string& source,
                            EvalStats* stats = nullptr) {
  ParsedUnit unit = ParseUnit(source).take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  return EvaluateQuery(unit.program, edb, {}, stats).take();
}

Tuple Ints(std::vector<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

// Collects the row ids of a probe chain (any order).
std::vector<int> MatchRows(const Relation& r, uint64_t mask,
                           const Tuple& key) {
  std::vector<int> rows;
  Relation::Matches m = r.Probe(mask, key);
  for (int32_t row = m.row; row >= 0; row = m.next(row)) rows.push_back(row);
  return rows;
}

TEST(RelationTest, InsertDedupes) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(Ints({1, 2})));
  EXPECT_FALSE(r.Insert(Ints({1, 2})));
  EXPECT_EQ(r.size(), 1);
}

TEST(RelationTest, ProbeByMask) {
  Relation r(2);
  r.Insert(Ints({1, 2}));
  r.Insert(Ints({1, 3}));
  r.Insert(Ints({2, 3}));
  EXPECT_EQ(MatchRows(r, 0b01, {Value::Int(1)}).size(), 2u);
  EXPECT_TRUE(MatchRows(r, 0b01, {Value::Int(9)}).empty());
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation r(2);
  r.Insert(Ints({1, 2}));
  r.Probe(0b10, Tuple{Value::Int(2)});  // build index
  r.Insert(Ints({5, 2}));
  EXPECT_EQ(MatchRows(r, 0b10, {Value::Int(2)}).size(), 2u);
  // The chain enumerates exactly the matching rows, across many inserts
  // and table growth.
  for (int i = 0; i < 1000; ++i) r.Insert(Ints({i + 10, i % 7}));
  std::vector<int> match = MatchRows(r, 0b10, {Value::Int(2)});
  int expected = 2;  // (1,2), (5,2)
  for (int i = 0; i < 1000; ++i) expected += (i % 7 == 2) ? 1 : 0;
  EXPECT_EQ(match.size(), static_cast<size_t>(expected));
  for (int row : match) EXPECT_EQ(r.row(row)[1], Value::Int(2));
}

// Rows of `r` holding key value `k` in column 1, in the order a windowed
// probe chain yields them.
std::vector<int> WindowRows(const Relation& r, int64_t k, int64_t lo,
                            int64_t hi) {
  std::vector<int> rows;
  Value key[1] = {Value::Int(k)};
  Relation::Matches m = r.Probe(0b10, key, lo, hi);
  for (int32_t row = m.row; row >= 0; row = m.next(row)) rows.push_back(row);
  return rows;
}

TEST(RelationTest, ChainsDescendByRowId) {
  // Semi-naive windows rely on it: a chain lists its rows newest first,
  // whether the index was built before or after the rows arrived.
  Relation r(2);
  for (int i = 0; i < 50; ++i) r.Insert(Ints({i, i % 3}));
  r.Probe(0b10, Tuple{Value::Int(0)});  // build the index mid-stream
  for (int i = 50; i < 300; ++i) r.Insert(Ints({i, i % 3}));
  for (int64_t k = 0; k < 3; ++k) {
    std::vector<int> rows = WindowRows(r, k, 0, Relation::kAllRows);
    ASSERT_EQ(rows.size(), 100u);
    for (size_t i = 1; i < rows.size(); ++i) EXPECT_GT(rows[i - 1], rows[i]);
  }
}

TEST(RelationTest, ProbeWindowYieldsExactlyTheRowsInRange) {
  Relation r(2);
  for (int i = 0; i < 40; ++i) r.Insert(Ints({i, i % 4}));
  for (int64_t lo : {0, 1, 7, 20, 39, 40}) {
    for (int64_t hi : {0, 1, 8, 21, 33, 40}) {
      std::vector<int> expected;
      for (int64_t row = std::min<int64_t>(hi, 40) - 1; row >= lo; --row) {
        if (row % 4 == 1) expected.push_back(static_cast<int>(row));
      }
      EXPECT_EQ(WindowRows(r, 1, lo, hi), expected)
          << "window [" << lo << ", " << hi << ")";
    }
  }
}

TEST(RelationTest, ProbeCursorSurvivesInsertsIntoTheSameRelation) {
  // A rule may probe the relation it derives into. Inserts reallocate the
  // arena and the chain links under an open cursor; the walk must still
  // visit exactly the rows that matched when it started (new rows join
  // chains at the head, behind the cursor).
  Relation r(2);
  for (int i = 0; i < 8; ++i) r.Insert(Ints({i, 1}));
  Value key[1] = {Value::Int(1)};
  Relation::Matches m = r.Probe(0b10, key);
  std::vector<int> seen;
  int next_value = 100;
  for (int32_t row = m.row; row >= 0; row = m.next(row)) {
    seen.push_back(row);
    EXPECT_EQ(r.row(row)[1], Value::Int(1));
    for (int j = 0; j < 500; ++j) r.Insert(Ints({next_value++, j % 2}));
  }
  EXPECT_EQ(seen, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(WindowRows(r, 1, 0, Relation::kAllRows).size(), 8u + 8 * 250);
}

TEST(RelationTest, RowsIterateInInsertionOrder) {
  Relation r(2);
  r.Insert(Ints({3, 4}));
  r.Insert(Ints({1, 2}));
  std::vector<Tuple> seen;
  for (TupleRef t : r.rows()) seen.push_back(t.Materialize());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Ints({3, 4}));
  EXPECT_EQ(seen[1], Ints({1, 2}));
  EXPECT_EQ(r.row(1).Materialize(), Ints({1, 2}));
}

TEST(RelationTest, ZeroArityHoldsOneRow) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_EQ(r.size(), 1);
  EXPECT_TRUE(r.Contains(Tuple{}));
  int count = 0;
  for (TupleRef t : r.rows()) count += t.empty() ? 1 : 0;
  EXPECT_EQ(count, 1);
}

TEST(RelationTest, RejectsArityAbove64) {
  EXPECT_DEATH(Relation r(65), "arity");
}

TEST(TupleHashTest, NoPathologicalBuckets) {
  // 10k distinct tuples must spread evenly when the hash is masked down to
  // a table size — the regression the old 31-bit-ish multiplicative combine
  // failed (its low bits carried almost no entropy from early columns).
  constexpr int kBuckets = 1 << 12;
  std::vector<int> bucket(kBuckets, 0);
  std::set<uint64_t> distinct;
  TupleHash hasher;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 100; ++j) {
      uint64_t h = hasher(Ints({i, j}));
      distinct.insert(h);
      ++bucket[h & (kBuckets - 1)];
    }
  }
  EXPECT_GE(distinct.size(), 9990u);  // essentially no full-hash collisions
  int max_bucket = 0;
  for (int b : bucket) max_bucket = std::max(max_bucket, b);
  // Uniform expectation is ~2.4 per bucket; a pathological combine puts
  // hundreds in one bucket.
  EXPECT_LE(max_bucket, 16);
}

TEST(DatabaseTest, InsertAtomAndContains) {
  Database db;
  db.InsertAtom(Atom("e", {Term::Int(1), Term::Int(2)}));
  EXPECT_TRUE(db.Contains(InternPred("e"), Ints({1, 2})));
  EXPECT_FALSE(db.Contains(InternPred("e"), Ints({2, 1})));
  EXPECT_EQ(db.TotalTuples(), 1);
}

TEST(EvalTest, TransitiveClosureChain) {
  auto result = RunQuery(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    e(1, 2). e(2, 3). e(3, 4).
    ?- path.
  )");
  EXPECT_EQ(result.size(), 6u);  // all i<j pairs in 1..4
}

// The reference evaluator (tests/reference_eval.h) iterates naively and
// shares no code with the engine.
TEST(EvalTest, NaiveAndSemiNaiveAgree) {
  ParsedUnit unit = ParseUnit(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
    e(1, 2). e(2, 3). e(3, 1). e(3, 4).
    ?- path.
  )").take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  EXPECT_EQ(EvaluateQuery(unit.program, edb).take(),
            ReferenceQuery(unit.program, edb));
}

TEST(EvalTest, ComparisonsFilter) {
  auto result = RunQuery(R"(
    up(X, Y) :- e(X, Y), X < Y.
    e(1, 2). e(2, 1). e(3, 3). e(2, 5).
    ?- up.
  )");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], Ints({1, 2}));
  EXPECT_EQ(result[1], Ints({2, 5}));
}

TEST(EvalTest, NegationOnEdb) {
  auto result = RunQuery(R"(
    ok(X) :- node(X), !blocked(X).
    node(1). node(2). node(3). blocked(2).
    ?- ok.
  )");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], Ints({1}));
  EXPECT_EQ(result[1], Ints({3}));
}

TEST(EvalTest, NegationOnMissingRelation) {
  auto result = RunQuery(R"(
    ok(X) :- node(X), !blocked(X).
    node(1).
    ?- ok.
  )");
  EXPECT_EQ(result.size(), 1u);
}

TEST(EvalTest, ConstantsInRules) {
  auto result = RunQuery(R"(
    special(Y) :- e(7, Y).
    e(7, 1). e(8, 2). e(7, 3).
    ?- special.
  )");
  EXPECT_EQ(result.size(), 2u);
}

TEST(EvalTest, RepeatedVariablesInSubgoal) {
  auto result = RunQuery(R"(
    loop(X) :- e(X, X).
    e(1, 1). e(1, 2). e(3, 3).
    ?- loop.
  )");
  EXPECT_EQ(result.size(), 2u);
}

TEST(EvalTest, MutualRecursion) {
  auto result = RunQuery(R"(
    even(X) :- zero(X).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
    zero(0). succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).
    ?- even.
  )");
  ASSERT_EQ(result.size(), 3u);  // 0, 2, 4
  EXPECT_EQ(result[2], Ints({4}));
}

TEST(EvalTest, ZeroArityQuery) {
  auto result = RunQuery(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    found :- reach(X), target(X).
    start(1). e(1, 2). e(2, 3). target(3).
    ?- found.
  )");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(EvalTest, ZeroArityQueryEmpty) {
  auto result = RunQuery(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    found :- reach(X), target(X).
    start(1). e(1, 2). target(9).
    ?- found.
  )");
  EXPECT_TRUE(result.empty());
}

TEST(EvalTest, MaxDerivedGuard) {
  ParsedUnit unit = ParseUnit(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Z), p(Z, Y).
    e(1, 2). e(2, 3). e(3, 4). e(4, 1).
    ?- p.
  )").take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  EvalOptions options;
  options.max_derived = 2;
  Evaluator evaluator(unit.program, options);
  EXPECT_FALSE(evaluator.Evaluate(edb).ok());
}

// The left-linear closure over the chain 0 -> 1 -> ... -> length: one new
// path length per iteration, so long chains run many iterations.
Program MakePathProgram() {
  return ParseProgram(R"(
    path(X, Y) :- e(X, Y).
    path(X, Z) :- path(X, Y), e(Y, Z).
    ?- path.
  )").take();
}

Database MakeChainEdb(int length) {
  Database edb;
  const PredId e = InternPred("e");
  for (int i = 0; i < length; ++i) {
    edb.Insert(e, {Value::Int(i), Value::Int(i + 1)});
  }
  return edb;
}

TEST(EvalTest, PreCancelledTokenReturnsCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  EvalOptions options;
  options.cancel = &cancel;
  EXPECT_EQ(EvaluateQuery(MakePathProgram(), MakeChainEdb(200), options)
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(EvalTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  EvalOptions options;
  options.deadline_ns = NowNs() - 1;
  EXPECT_EQ(EvaluateQuery(MakePathProgram(), MakeChainEdb(200), options)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

// A cancel fired from another thread mid-run lands as kCancelled, or the
// run completes first on a fast machine; both are legal outcomes of the
// cooperative contract. What may not happen is a hang or a crash.
TEST(EvalTest, CancelFromAnotherThreadStopsOrCompletes) {
  const Program program = MakePathProgram();
  const Database edb = MakeChainEdb(600);
  CancelToken cancel;
  EvalOptions options;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cancel.Cancel();
  });
  Result<std::vector<Tuple>> result = EvaluateQuery(program, edb, options);
  canceller.join();
  if (result.ok()) {
    EXPECT_EQ(result.value().size(), 600u * 601u / 2u);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(EvalTest, StatsCountWork) {
  EvalStats stats;
  RunQuery(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    e(1, 2). e(2, 3).
    ?- path.
  )", &stats);
  EXPECT_EQ(stats.tuples_derived, 3);
  EXPECT_GT(stats.rule_firings, 0);
  EXPECT_GT(stats.join_probes, 0);
  EXPECT_GT(stats.iterations, 1);
}

TEST(EvalTest, SemiNaiveMatchesNaiveOnRandomGraphs) {
  Program p = ParseProgram(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    ?- path.
  )").take();
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    Database edb = MakeRandomGraph(20, 40, &rng, "e");
    EXPECT_EQ(EvaluateQuery(p, edb).take(), ReferenceQuery(p, edb))
        << "trial " << trial;
  }
}

TEST(EvalTest, IndexedMatchesUnindexed) {
  Program p = ParseProgram(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    ?- path.
  )").take();
  Rng rng(7);
  Database edb = MakeRandomGraph(15, 30, &rng, "e");
  // The reference evaluator joins by nested loops over std::set tuples.
  EXPECT_EQ(EvaluateQuery(p, edb).take(), ReferenceQuery(p, edb));
}

TEST(EvalTest, NonlinearClosureProbesTheRelationItDerivesInto) {
  // Both subgoals read t while every derivation is inserted into t: the
  // delta plans probe t's own index mid-insert, and the snapshot window
  // must hide each iteration's derivations from that iteration.
  std::string source = R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    ?- t.
  )";
  const int n = 120;
  for (int i = 0; i < n; ++i) {
    source += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  std::vector<Tuple> answers = RunQuery(source);
  ASSERT_EQ(answers.size(), static_cast<size_t>((n + 1) * n / 2));
  EXPECT_EQ(answers.front(), Ints({0, 1}));
  EXPECT_EQ(answers.back(), Ints({n - 1, n}));
}

// Work counters are part of the evaluator's contract (benchmarks and
// EXPLAIN report them), so their absolute values are pinned here: a change
// to how iterations store or scan their deltas must reproduce these
// figures exactly.
TEST(EvalTest, WorkCountersArePinned) {
  struct Golden {
    const char* name;
    std::string source;
    size_t answers;
    const char* counters;
  };
  std::string nonlinear =
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), t(Y, Z).\n?- t.\n";
  for (int i = 0; i < 30; ++i) {
    nonlinear +=
        "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  std::string stratified =
      "reach(X, Y) :- e(X, Y).\nreach(X, Y) :- e(X, Z), reach(Z, Y).\n"
      "node(X) :- e(X, Y).\nnode(Y) :- e(X, Y).\n"
      "unreach(X, Y) :- node(X), node(Y), !reach(X, Y), X < Y.\n"
      "?- unreach.\n";
  for (int i = 0; i < 40; ++i) {
    stratified += "e(" + std::to_string(i * 7 % 23) + ", " +
                  std::to_string((i * 11 + 3) % 23) + ").\n";
  }
  // goodPath's query rule reads the recursive path but is its own
  // non-recursive stratum: one full-plan pass after path's fixpoint.
  std::string goodpath =
      "path(X, Y) :- step(X, Y).\npath(X, Y) :- step(X, Z), path(Z, Y).\n"
      "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n"
      "?- goodPath.\nstartPoint(0). startPoint(3). endPoint(5). "
      "endPoint(8). step(2, 6).\n";
  for (int i = 0; i < 8; ++i) {
    goodpath +=
        "step(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  const Golden goldens[] = {
      {"figure1",
       "p(X, Y) :- a(X, Y).\np(X, Y) :- b(X, Y).\n"
       "p(X, Y) :- a(X, Z), p(Z, Y).\np(X, Y) :- b(X, Z), p(Z, Y).\n?- p.\n"
       "b(1, 2). b(2, 3). b(3, 4). a(4, 5). a(5, 6). a(6, 7).\n",
       21,
       "iterations=7 firings=21 derived=21 duplicates=0 probes=63 "
       "cmp_checks=0"},
      {"nonlinear", nonlinear, 465,
       "iterations=7 firings=5350 derived=465 duplicates=4885 probes=6280 "
       "cmp_checks=0"},
      {"stratified", stratified, 143,
       "iterations=14 firings=455 derived=409 duplicates=46 probes=1107 "
       "cmp_checks=529"},
      {"goodpath", goodpath, 4,
       "iterations=7 firings=43 derived=40 duplicates=3 probes=94 "
       "cmp_checks=0"},
  };
  for (const Golden& g : goldens) {
    EvalStats stats;
    EXPECT_EQ(RunQuery(g.source, &stats).size(), g.answers) << g.name;
    EXPECT_EQ(stats.ToString(), g.counters) << g.name;
  }

  // The query rule's own work is one pass of its full plan: startPoint's 2
  // rows, the path rows from 0 and 3, and one endPoint probe per path row
  // that reaches an end point.
  ParsedUnit unit = ParseUnit(goodpath).take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  std::vector<RuleProfile> profiles;
  ASSERT_TRUE(EvaluateQuery(unit.program, edb, {}, nullptr, &profiles).ok());
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[2].firings, 4);
  EXPECT_EQ(profiles[2].probes, 19);
}

// The specialized kernels must be indistinguishable from the generic loop
// they shortcut. Every kernel-selected plan runs twice, through RunCompiled
// and through RunBytecode, each against its own copy of one mid-evaluation
// state: every IDB relation holds the first half of its fixpoint rows, and
// the frontier's delta window is the second quarter. Derived rows (in
// insertion order) and every counter but ops must match.
TEST(EvalTest, KernelsMatchTheGenericLoop) {
  struct Case {
    const char* name;
    Program program;
    Database edb;
  };
  std::vector<Case> cases;
  {
    ParsedUnit unit = ParseUnit(
        "p(X, Y) :- a(X, Y).\np(X, Y) :- b(X, Y).\n"
        "p(X, Y) :- a(X, Z), p(Z, Y).\np(X, Y) :- b(X, Z), p(Z, Y).\n?- p.\n"
        "b(1, 2). b(2, 3). b(3, 4). a(4, 5). a(5, 6). a(6, 7).\n").take();
    Database edb;
    for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
    cases.push_back({"figure1", unit.program, std::move(edb)});
  }
  {
    Rng rng(20260808);
    GoodPathConfig config;
    config.nodes = 60;
    config.edges = 200;
    config.num_start = 6;
    config.num_end = 6;
    config.threshold = 20;
    cases.push_back({"goodpath", MakeGoodPathProgram(),
                     MakeGoodPathWorkload(config, &rng)});
  }
  {
    Rng rng(20260808);
    ColoredClosure cc = MakeColoredClosure(3, 2, &rng);
    Database edb = MakeColoredEdges(3, 40, 120, cc.ics, &rng);
    cases.push_back({"colored_closure", cc.program, std::move(edb)});
  }
  // Comparison filters on both levels of a binary join: scan_probe_emit
  // runs each level's filters after its loads.
  {
    ParsedUnit unit =
        ParseUnit("p(X, Y) :- e(X, Y), X < Y.\n"
                  "p(X, Z) :- e(X, Y), p(Y, Z), 3 <= X, Y != Z, X < 40.\n"
                  "?- p.\n")
            .take();
    Rng rng(20261018);
    cases.push_back({"filters", unit.program,
                     MakeRandomGraph(50, 200, &rng, "e")});
  }
  // A constant in the atom: scan_filter_emit probes the level's index on
  // it and loads only the unmasked column.
  {
    ParsedUnit unit = ParseUnit("c(Y) :- e(3, Y), Y != 4.\n?- c.\n").take();
    Rng rng(20261019);
    cases.push_back({"constant_key", unit.program,
                     MakeRandomGraph(50, 200, &rng, "e")});
  }
  // The served goodPath program: the threshold residue 0 <= Q#0 stays on
  // the recursive rule, which still runs on scan_probe_emit.
  {
    Program p = MakeGoodPathProgram();
    SqoReport report = OptimizeProgram(p, MakeMonotoneIcs(20)).take();
    Rng rng(20260808);
    GoodPathConfig config;
    config.nodes = 60;
    config.edges = 200;
    config.num_start = 6;
    config.num_end = 6;
    config.threshold = 20;
    cases.push_back({"goodpath_served",
                     LowerProgram(report).program,
                     MakeGoodPathWorkload(config, &rng)});
  }

  for (const Case& c : cases) {
    CompiledProgram compiled = CompileProgram(c.program).take();
    Database fixpoint = Evaluator(c.program).Evaluate(c.edb).take();
    Database half;
    IdbFrontier frontier;
    for (const auto& [pred, rel] : fixpoint.relations()) {
      const int64_t n = rel.size() / 2;
      for (int64_t r = 0; r < n; ++r) half.Insert(pred, rel.row(r));
      frontier[pred] = RowWindow{n / 2, n};
    }
    int kernel_plans = 0, filtered_probe_plans = 0;
    int64_t total_probes = 0, total_derived = 0;
    for (const CompiledProgram::Stratum& st : compiled.strata) {
      std::vector<const CompiledRule*> plans;
      for (const CompiledRule& cr : st.full) plans.push_back(&cr);
      for (const CompiledRule& cr : st.delta) plans.push_back(&cr);
      for (const CompiledRule* cr : plans) {
        if (cr->kernel == KernelId::kGeneric) continue;
        ++kernel_plans;
        if (cr->kernel == KernelId::kScanProbeEmit &&
            std::any_of(cr->code.begin(), cr->code.end(),
                        [](const Instr& in) {
                          return in.op == OpCode::kFilterCmp;
                        })) {
          ++filtered_probe_plans;
        }
        // run(true) through RunCompiled, run(false) through RunBytecode.
        auto run = [&](bool kernels, RuleProfile* profile) {
          Database idb = half;
          VmContext vm;
          vm.profile = profile;
          vm.regs.resize(cr->num_regs);
          HeadSink sink(&idb, cr->head_pred, INT64_MAX);
          if (ResolveRelations(*cr, c.edb, idb, frontier, &vm)) {
            if (kernels) {
              RunCompiled(*cr, &vm, &sink);
            } else {
              RunBytecode(*cr, &vm, sink);
            }
          }
          std::vector<Tuple> rows;
          if (const Relation* rel = idb.Find(cr->head_pred)) {
            for (TupleRef t : rel->rows()) rows.push_back(t.Materialize());
          }
          const Relation* before = half.Find(cr->head_pred);
          profile->derived = static_cast<int64_t>(rows.size()) -
                             (before == nullptr ? 0 : before->size());
          return rows;
        };
        RuleProfile kernel, generic;
        const std::string label = std::string(c.name) + " rule " +
                                  std::to_string(cr->rule_index) +
                                  " delta=" +
                                  std::to_string(cr->delta_subgoal);
        // An activation derives exactly the rows it appends, so equal
        // rows and equal firings also mean equal duplicates.
        EXPECT_EQ(run(true, &kernel), run(false, &generic)) << label;
        EXPECT_EQ(kernel.firings, generic.firings) << label;
        EXPECT_EQ(kernel.derived, generic.derived) << label;
        EXPECT_EQ(kernel.probes, generic.probes) << label;
        EXPECT_EQ(kernel.cmp_checks, generic.cmp_checks) << label;
        total_probes += kernel.probes;
        total_derived += kernel.derived;
      }
    }
    EXPECT_GT(kernel_plans, 0) << c.name;
    if (std::string(c.name) == "filters" ||
        std::string(c.name) == "goodpath_served") {
      EXPECT_GT(filtered_probe_plans, 0) << c.name;
    }
    EXPECT_GT(total_probes, 0) << c.name;
    EXPECT_GT(total_derived, 0) << c.name;
  }
}

TEST(EvalTest, BodyOnlyComparisonRule) {
  // Ground comparisons in an initialization rule.
  auto result = RunQuery(R"(
    flag :- marker(X), 1 < 2.
    marker(0).
    ?- flag.
  )");
  EXPECT_EQ(result.size(), 1u);
}

TEST(EvalTest, SymbolsAndIntsCoexist) {
  auto result = RunQuery(R"(
    mixed(X, Y) :- e(X, Y), X < Y.
    e(1, apple). e(apple, 1). e(apple, banana).
    ?- mixed.
  )");
  // ints precede symbols: 1 < apple, apple < banana.
  EXPECT_EQ(result.size(), 2u);
}

// ------------------------------------------------------------ answer order

// The comparison sort every answer collector used before SortedLiveTuples:
// materialize every live row, then order by Value::Compare.
std::vector<Tuple> CopyThenCompareSort(const Relation& rel) {
  std::vector<Tuple> out;
  for (TupleRef t : rel.rows()) out.push_back(t.Materialize());
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return out;
}

// Random relations with duplicate inserts (dropped by the relation),
// negatives, int64 extremes, tombstoned and revived rows. All-integer
// relations take the radix path, any symbol the Value::Compare fallback;
// both must reproduce the comparison sort exactly.
TEST(AnswerOrderTest, SortedLiveTuplesMatchesTheComparisonSort) {
  std::mt19937_64 rng(20261017);
  const std::vector<std::string> names = {"", "a", "B", "aa", "ab", "zz",
                                          "caf\xc3\xa9", "10", "-1"};
  for (int round = 0; round < 300; ++round) {
    const int arity = static_cast<int>(rng() % 5);
    const bool mixed = round % 3 == 0;
    const bool wide = round % 4 == 1;  // values spread over all of int64
    Relation rel(arity);
    auto random_value = [&]() {
      if (mixed && rng() % 3 == 0) {
        return Value::Symbol(names[rng() % names.size()]);
      }
      switch (rng() % 16) {
        case 0: return Value::Int(INT64_MIN);
        case 1: return Value::Int(INT64_MAX);
        default:
          return Value::Int(wide ? static_cast<int64_t>(rng())
                                 : static_cast<int64_t>(rng() % 41) - 20);
      }
    };
    std::vector<Tuple> inserted;
    const int n = static_cast<int>(rng() % 400);
    for (int i = 0; i < n; ++i) {
      Tuple t;
      for (int c = 0; c < arity; ++c) t.push_back(random_value());
      rel.Insert(t);
      inserted.push_back(t);
      // Re-insert an earlier tuple now and then: a live duplicate, or the
      // revival of a tombstoned row.
      if (rng() % 8 == 0) rel.Insert(inserted[rng() % inserted.size()]);
      if (rng() % 5 == 0) rel.Erase(inserted[rng() % inserted.size()]);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(SortedLiveTuples(rel), CopyThenCompareSort(rel));
  }
}

TEST(AnswerOrderTest, EvaluateQueryServesSortedAnswers) {
  std::vector<Tuple> answers = RunQuery(R"(
    p(X, Y) :- e(X, Y).
    e(3, -1). e(-2, 7). e(3, -5). e(zed, 1). e(0, abc). e(-2, abc).
    ?- p.
  )");
  std::vector<Tuple> sorted = answers;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(answers, sorted);
  EXPECT_EQ(answers.size(), 6u);
  EXPECT_EQ(answers.front(), Ints({-2, 7}));
}

}  // namespace
}  // namespace sqod
