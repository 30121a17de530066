// Incremental-view-maintenance equivalence suite: after every ApplyDelta
// batch, the maintained IDB must equal the independent reference
// evaluator's fixpoint over the same EDB (tests/reference_eval.h) — per
// predicate, not just for the query — for both the incremental path
// (counting + DRed) and the recompute fallback.
//
// Coverage: recursive transitive closure under random churn (DRed),
// non-recursive multi-join rules with repeated predicates (counting's
// telescoping discipline), stratified negation over a changing EDB,
// comparison atoms, degenerate batches (no-ops, delete+insert of the same
// tuple, empty nets), error atomicity, the engine's MaterializedView and
// frozen shared-EDB snapshot, the serving layer's ApplyDelta/materialized
// request path, a program the demand rewrite guards with a magic predicate,
// and — under TSan — concurrent readers against a maintainer.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/eval/evaluator.h"
#include "src/eval/maintain.h"
#include "src/parser/parser.h"
#include "src/service/query_service.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

using FuzzRng = std::mt19937_64;

Atom Fact1(const char* pred, int64_t a) {
  return Atom(pred, {Term::Int(a)});
}
Atom Fact2(const char* pred, int64_t a, int64_t b) {
  return Atom(pred, {Term::Int(a), Term::Int(b)});
}

// Live tuples per predicate, sorted — the canonical comparison form.
// Predicates whose relations are empty (all tombstoned) are dropped, so a
// maintained database and a freshly evaluated one compare equal.
std::map<PredId, std::vector<Tuple>> LiveTuples(const Database& db) {
  std::map<PredId, std::vector<Tuple>> out;
  for (const auto& [pred, rel] : db.relations()) {
    std::vector<Tuple>& tuples = out[pred];
    for (TupleRef t : rel.rows()) tuples.push_back(t.Materialize());
    if (tuples.empty()) {
      out.erase(pred);
      continue;
    }
    std::sort(tuples.begin(), tuples.end());
  }
  return out;
}

std::string Render(const std::map<PredId, std::vector<Tuple>>& tuples) {
  std::string out;
  for (const auto& [pred, ts] : tuples) {
    out += PredName(pred) + ": " + std::to_string(ts.size()) + " tuples\n";
  }
  return out;
}

// The oracle: mirror of the view's EDB as a plain database, re-evaluated
// from scratch by the reference evaluator after every batch.
void ApplyToOracle(const FactDelta& delta, Database* edb) {
  for (const Atom& a : delta.deletes) {
    bool in_inserts = false;
    for (const Atom& b : delta.inserts) in_inserts = in_inserts || a == b;
    if (!in_inserts) edb->EraseAtom(a);
  }
  for (const Atom& a : delta.inserts) edb->InsertAtom(a);
}

// One incremental state driven through a delta script, checked against a
// from-scratch reference fixpoint after each batch.
class IvmHarness {
 public:
  // `recompute_fraction` > 1e8 never falls back; 0 always does.
  void Init(const std::string& rules, const Database& initial_edb,
            double recompute_fraction, bool force_recompute = false) {
    Result<Program> program = ParseProgram(rules);
    ASSERT_TRUE(program.ok()) << program.status().message();
    Init(std::move(program).value(), initial_edb, recompute_fraction,
         force_recompute);
  }

  void Init(Program program, const Database& initial_edb,
            double recompute_fraction, bool force_recompute = false) {
    program_ = std::move(program);

    Result<CompiledProgram> compiled = CompileProgram(program_);
    ASSERT_TRUE(compiled.ok()) << compiled.status().message();
    compiled_ = std::move(compiled).value();
    plan_ = BuildMaintenancePlan(program_, compiled_);

    options_.recompute_fraction = recompute_fraction;
    options_.force_recompute = force_recompute;

    Result<MaterializedState> state =
        MaterializeState(program_, compiled_, plan_, initial_edb);
    ASSERT_TRUE(state.ok()) << state.status().message();
    state_ = std::move(state).value();

    oracle_edb_ = initial_edb;
  }

  // Applies one batch to both sides and asserts the full IDBs agree.
  void ApplyAndCheck(const FactDelta& delta, const std::string& label) {
    Result<MaintainStats> stats = ApplyDeltaToState(
        program_, compiled_, plan_, delta, options_, &state_);
    ASSERT_TRUE(stats.ok()) << label << ": " << stats.status().message();
    last_stats_ = stats.value();

    ApplyToOracle(delta, &oracle_edb_);
    ASSERT_NO_FATAL_FAILURE(CheckAgainstOracle(label));
  }

  void CheckAgainstOracle(const std::string& label) {
    std::map<PredId, std::vector<Tuple>> maintained = LiveTuples(state_.idb);
    ASSERT_EQ(LiveTuples(state_.edb), LiveTuples(oracle_edb_))
        << label << ": maintained EDB diverged from the oracle";
    std::map<PredId, std::vector<Tuple>> reference;
    for (auto& [pred, tuples] : ReferenceEvaluate(program_, oracle_edb_)) {
      reference[pred].assign(tuples.begin(), tuples.end());
    }
    ASSERT_EQ(maintained, reference)
        << label << ": maintained != reference\nmaintained:\n"
        << Render(maintained) << "reference:\n"
        << Render(reference);
  }

  const MaintainStats& last_stats() const { return last_stats_; }
  const Program& program() const { return program_; }
  const CompiledProgram& compiled() const { return compiled_; }
  const MaterializedState& state() const { return state_; }
  const Database& oracle_edb() const { return oracle_edb_; }
  MaterializedState* mutable_state() { return &state_; }

 private:
  Program program_;
  CompiledProgram compiled_;
  MaintenancePlan plan_;
  ApplyDeltaOptions options_;
  MaterializedState state_;
  Database oracle_edb_;
  MaintainStats last_stats_;
};

// A random batch over `pred` edges in [0, nodes): deletions sampled from
// the live tuples (so they usually hit), insertions random (so some
// duplicate, some are new).
FactDelta RandomEdgeBatch(FuzzRng* rng, const Database& edb, const char* pred,
                          int nodes, int inserts, int deletes) {
  FactDelta delta;
  const Relation* rel = edb.Find(InternPred(pred));
  std::vector<Tuple> live;
  if (rel != nullptr) {
    for (TupleRef t : rel->rows()) live.push_back(t.Materialize());
  }
  for (int i = 0; i < deletes; ++i) {
    if (!live.empty() && (*rng)() % 4 != 0) {
      const Tuple& t = live[(*rng)() % live.size()];
      delta.deletes.push_back(Fact2(pred, t[0].as_int(), t[1].as_int()));
    } else {
      delta.deletes.push_back(
          Fact2(pred, (*rng)() % nodes, (*rng)() % nodes));  // likely absent
    }
  }
  for (int i = 0; i < inserts; ++i) {
    delta.inserts.push_back(Fact2(pred, (*rng)() % nodes, (*rng)() % nodes));
  }
  return delta;
}

// --- recursive strata: DRed under random churn ---------------------------

constexpr const char* kTcRules = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
  ?- tc.
)";

TEST(IvmEquivTest, TransitiveClosureRandomChurn) {
  FuzzRng rng(0xc0ffee);
  Database edb = MakeRandomGraph(24, 60, &rng);
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kTcRules, edb, 1e9));
  for (int batch = 0; batch < 24; ++batch) {
    FactDelta delta = RandomEdgeBatch(&rng, harness.state().edb, "edge", 24,
                                      1 + batch % 3, 1 + batch % 4);
    ASSERT_NO_FATAL_FAILURE(
        harness.ApplyAndCheck(delta, "tc batch " + std::to_string(batch)));
    EXPECT_FALSE(harness.last_stats().recomputed);
  }
}

TEST(IvmEquivTest, CyclicGraphDeletionsRederive) {
  // A cycle plus a chord: deleting one cycle edge over-deletes a large
  // chunk of tc that the chord rederives — the DRed rescue path.
  IvmHarness harness;
  Database edb;
  for (int i = 0; i < 8; ++i) {
    edb.InsertAtom(Fact2("edge", i, (i + 1) % 8));
  }
  edb.InsertAtom(Fact2("edge", 0, 4));  // chord
  ASSERT_NO_FATAL_FAILURE(
      harness.Init(kTcRules, edb, 1e9));

  FactDelta drop_cycle_edge;
  drop_cycle_edge.deletes.push_back(Fact2("edge", 2, 3));
  ASSERT_NO_FATAL_FAILURE(
      harness.ApplyAndCheck(drop_cycle_edge, "cycle edge deletion"));
  EXPECT_GT(harness.last_stats().over_deleted, 0);

  FactDelta restore;
  restore.inserts.push_back(Fact2("edge", 2, 3));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(restore, "cycle restored"));
}

// --- non-recursive strata: counting ---------------------------------------

constexpr const char* kJoinRules = R"(
  q(X, Z) :- a(X, Y), b(Y, Z).
  twice(X, Z) :- a(X, Y), a(Y, Z).
  r(X) :- q(X, Y), c(Y).
  ?- r.
)";

TEST(IvmEquivTest, CountingMultiJoinWithRepeatedPredicates) {
  FuzzRng rng(0xbead);
  Database edb;
  for (int i = 0; i < 40; ++i) {
    edb.InsertAtom(Fact2("a", rng() % 12, rng() % 12));
    edb.InsertAtom(Fact2("b", rng() % 12, rng() % 12));
    if (i % 3 == 0) edb.InsertAtom(Fact1("c", rng() % 12));
  }
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kJoinRules, edb, 1e9));
  const char* preds[] = {"a", "b"};
  for (int batch = 0; batch < 20; ++batch) {
    FactDelta delta = RandomEdgeBatch(&rng, harness.state().edb,
                                      preds[batch % 2], 12, 2, 2);
    if (batch % 4 == 0) {
      delta.inserts.push_back(Fact1("c", rng() % 12));
    }
    if (batch % 5 == 0) {
      delta.deletes.push_back(Fact1("c", rng() % 12));
    }
    ASSERT_NO_FATAL_FAILURE(
        harness.ApplyAndCheck(delta, "join batch " + std::to_string(batch)));
    EXPECT_FALSE(harness.last_stats().recomputed);
    EXPECT_EQ(harness.last_stats().over_deleted, 0)
        << "non-recursive program must never enter DRed";
  }
}

// goodPath's shape: a non-recursive query predicate over a recursive one.
// The maintenance strata are the compiled program's, one per component, so
// goodPath is counted while path takes DRed.
constexpr const char* kGoodPathRules = R"(
  path(X, Y) :- step(X, Y).
  path(X, Y) :- step(X, Z), path(Z, Y).
  goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
  ?- goodPath.
)";

TEST(IvmEquivTest, NonRecursiveReaderOfRecursiveStratumIsCounted) {
  Database edb;
  for (int i = 0; i < 4; ++i) edb.InsertAtom(Fact2("step", i, i + 1));
  edb.InsertAtom(Fact1("startPoint", 0));
  edb.InsertAtom(Fact1("endPoint", 2));
  edb.InsertAtom(Fact1("endPoint", 4));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kGoodPathRules, edb, 1e9));
  ASSERT_EQ(harness.compiled().strata.size(), 2u);
  EXPECT_TRUE(harness.compiled().strata[0].recursive());    // path
  EXPECT_FALSE(harness.compiled().strata[1].recursive());   // goodPath
  auto count_of = [&](int64_t x, int64_t y) -> int64_t {
    const Relation* rel = harness.state().idb.Find(InternPred("goodPath"));
    if (rel == nullptr || !rel->counted()) return -1;
    const Tuple t = {Value::Int(x), Value::Int(y)};
    const int32_t row = rel->FindRow(t.data(), 2);
    return row >= 0 && rel->live(row) ? rel->count(row) : 0;
  };
  EXPECT_EQ(count_of(0, 2), 1);

  // Only goodPath reads endPoint: its counting stratum runs, path's skips.
  FactDelta end;
  end.inserts.push_back(Fact1("endPoint", 3));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(end, "new end point"));
  EXPECT_EQ(harness.last_stats().strata_incremental, 1);
  EXPECT_EQ(harness.last_stats().strata_skipped, 1);
  EXPECT_EQ(harness.last_stats().count_updates, 1);
  EXPECT_EQ(harness.last_stats().over_deleted, 0);
  EXPECT_EQ(count_of(0, 3), 1);

  // Cutting the chain: DRed over-deletes path(1, 2..4) and path(0, 2..4);
  // counting drops goodPath(0, 2..4), one count update each.
  FactDelta cut;
  cut.deletes.push_back(Fact2("step", 1, 2));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(cut, "cut"));
  EXPECT_EQ(harness.last_stats().strata_incremental, 2);
  EXPECT_EQ(harness.last_stats().over_deleted, 6);
  EXPECT_EQ(harness.last_stats().rederived, 0);
  EXPECT_EQ(harness.last_stats().count_updates, 3);
  EXPECT_EQ(count_of(0, 2), 0);

  // A bypass brings back goodPath(0, 3) and (0, 4), but not (0, 2).
  FactDelta bypass;
  bypass.inserts.push_back(Fact2("step", 1, 3));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(bypass, "bypass"));
  EXPECT_EQ(harness.last_stats().strata_incremental, 2);
  EXPECT_EQ(harness.last_stats().over_deleted, 0);
  EXPECT_EQ(harness.last_stats().count_updates, 2);
  EXPECT_EQ(count_of(0, 3), 1);
  EXPECT_EQ(count_of(0, 4), 1);
  EXPECT_FALSE(harness.last_stats().recomputed);
}

constexpr const char* kComparisonRules = R"(
  good(X, Y) :- edge(X, Y), X < Y.
  far(X) :- good(X, Y), Y >= 8.
  ?- far.
)";

TEST(IvmEquivTest, ComparisonAtomsUnderChurn) {
  FuzzRng rng(0xfeed);
  Database edb = MakeRandomGraph(16, 40, &rng);
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(
      harness.Init(kComparisonRules, edb, 1e9));
  for (int batch = 0; batch < 16; ++batch) {
    FactDelta delta =
        RandomEdgeBatch(&rng, harness.state().edb, "edge", 16, 2, 2);
    ASSERT_NO_FATAL_FAILURE(
        harness.ApplyAndCheck(delta, "cmp batch " + std::to_string(batch)));
  }
}

// --- stratified negation over a changing EDB ------------------------------

constexpr const char* kNegationRules = R"(
  reach(X) :- source(X).
  reach(Y) :- reach(X), edge(X, Y).
  unreach(X) :- node(X), !reach(X).
  ?- unreach.
)";

TEST(IvmEquivTest, StratifiedNegationOverChangingEdb) {
  FuzzRng rng(0xdead);
  Database edb;
  for (int i = 0; i < 16; ++i) edb.InsertAtom(Fact1("node", i));
  for (int i = 0; i < 24; ++i) {
    edb.InsertAtom(Fact2("edge", rng() % 16, rng() % 16));
  }
  edb.InsertAtom(Fact1("source", 0));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(
      harness.Init(kNegationRules, edb, 1e9));
  for (int batch = 0; batch < 20; ++batch) {
    FactDelta delta =
        RandomEdgeBatch(&rng, harness.state().edb, "edge", 16, 1, 2);
    if (batch % 3 == 0) delta.inserts.push_back(Fact1("source", rng() % 16));
    if (batch % 4 == 1) delta.deletes.push_back(Fact1("source", rng() % 16));
    if (batch % 5 == 2) delta.inserts.push_back(Fact1("node", 16 + batch));
    ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(
        delta, "negation batch " + std::to_string(batch)));
  }
}

// A negated EDB predicate changing in the same batch as the positive one:
// the counting delta joins read the negation at the old snapshot after the
// delta position and at the live one before it, so a row added or
// tombstoned by this or an earlier batch must be seen at the right version.
constexpr const char* kNegatedEdbRules = R"(
  ok(X, Y) :- edge(X, Y), !blocked(X).
  ?- ok.
)";

TEST(IvmEquivTest, NegatedEdbPredicateUnderChurn) {
  FuzzRng rng(0xb10c);
  Database edb = MakeRandomGraph(12, 30, &rng);
  edb.InsertAtom(Fact1("blocked", 1));
  edb.InsertAtom(Fact1("blocked", 2));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kNegatedEdbRules, edb, 1e9));

  FactDelta block_and_add;  // the new edge's source is blocked at once
  block_and_add.inserts.push_back(Fact1("blocked", 5));
  block_and_add.inserts.push_back(Fact2("edge", 5, 11));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(block_and_add, "block+add"));
  FactDelta unblock;  // then unblocked: tombstoned, no longer blocking
  unblock.deletes.push_back(Fact1("blocked", 5));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(unblock, "unblock"));
  FactDelta add_after;
  add_after.inserts.push_back(Fact2("edge", 5, 10));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(add_after, "add after"));

  for (int batch = 0; batch < 20; ++batch) {
    FactDelta delta =
        RandomEdgeBatch(&rng, harness.state().edb, "edge", 12, 2, 2);
    if (batch % 2 == 0) delta.inserts.push_back(Fact1("blocked", rng() % 12));
    if (batch % 3 == 0) delta.deletes.push_back(Fact1("blocked", rng() % 12));
    ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(
        delta, "negated edb batch " + std::to_string(batch)));
  }
}

// Demand's seed for a constant-bound call, q(Y) :- path(3, Y), is a rule
// with an empty body, m(3). When a deletion over-deletes its head through
// another rule, DRed's support check must find the empty body satisfied.
TEST(IvmEquivTest, EmptyBodyRuleRescuesItsHead) {
  Result<Program> parsed = ParseProgram(R"(
    m(Z) :- m(X), edge(X, Z).
    ?- m.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Program program = parsed.take();
  program.AddRule(Rule(Fact1("m", 3), {}));
  Database edb;
  edb.InsertAtom(Fact2("edge", 3, 4));
  edb.InsertAtom(Fact2("edge", 4, 3));
  edb.InsertAtom(Fact2("edge", 4, 5));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(std::move(program), edb, 1e9));
  FactDelta cut;
  cut.deletes.push_back(Fact2("edge", 4, 3));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(cut, "cut the cycle"));
  EXPECT_GT(harness.last_stats().over_deleted, 0);
  EXPECT_GT(harness.last_stats().rederived, 0);
  FactDelta restore;
  restore.inserts.push_back(Fact2("edge", 4, 3));
  restore.deletes.push_back(Fact2("edge", 3, 4));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(restore, "restore, cut"));
}

// A DRed support check seeds the head registers from the candidate tuple.
// p(1, 2) has no derivation through p(X, X): seeding X from both positions
// must reject it, not rescue it through p(2, 2)'s support.
TEST(IvmEquivTest, RepeatedHeadVariableSupportCheck) {
  constexpr const char* kRules = R"(
    p(X, Y) :- edge(X, Y).
    p(X, X) :- mark(X), p(X, Z).
    ?- p.
  )";
  Database edb;
  edb.InsertAtom(Fact2("edge", 1, 2));
  edb.InsertAtom(Fact2("edge", 2, 3));
  edb.InsertAtom(Fact1("mark", 2));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kRules, edb, 1e9));
  FactDelta drop;
  drop.deletes.push_back(Fact2("edge", 1, 2));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(drop, "drop edge(1, 2)"));
  EXPECT_GT(harness.last_stats().over_deleted, 0);
}

// --- degenerate batches and error atomicity -------------------------------

TEST(IvmEquivTest, DegenerateBatchesDoNotAdvanceTheVersion) {
  Database edb;
  edb.InsertAtom(Fact2("edge", 1, 2));
  edb.InsertAtom(Fact2("edge", 2, 3));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kTcRules, edb, 1e9));

  FactDelta empty;
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(empty, "empty batch"));
  EXPECT_EQ(harness.state().version, 0);

  FactDelta noop;
  noop.inserts.push_back(Fact2("edge", 1, 2));   // already present
  noop.deletes.push_back(Fact2("edge", 7, 9));   // absent
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(noop, "no-op batch"));
  EXPECT_EQ(harness.state().version, 0);

  FactDelta churn;  // delete + insert of the same tuple: net unchanged
  churn.deletes.push_back(Fact2("edge", 1, 2));
  churn.inserts.push_back(Fact2("edge", 1, 2));
  churn.inserts.push_back(Fact2("edge", 3, 4));  // the only real change
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(churn, "churn batch"));
  EXPECT_EQ(harness.state().version, 1);
  EXPECT_EQ(harness.last_stats().edb_inserted, 1);
  EXPECT_EQ(harness.last_stats().edb_deleted, 0);

  FactDelta reinsert;  // delete, then re-insert in a later batch
  reinsert.deletes.push_back(Fact2("edge", 3, 4));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(reinsert, "delete"));
  FactDelta back;
  back.inserts.push_back(Fact2("edge", 3, 4));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(back, "re-insert"));
  EXPECT_EQ(harness.state().version, 3);
}

TEST(IvmEquivTest, InvalidBatchesLeaveTheStateUntouched) {
  Database edb;
  edb.InsertAtom(Fact2("edge", 1, 2));
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kTcRules, edb, 1e9));

  Result<Program> program = ParseProgram(kTcRules);
  ASSERT_TRUE(program.ok());
  Result<CompiledProgram> compiled = CompileProgram(program.value());
  ASSERT_TRUE(compiled.ok());
  MaintenancePlan plan =
      BuildMaintenancePlan(program.value(), compiled.value());

  auto expect_rejected = [&](FactDelta delta, const char* label) {
    Result<MaintainStats> stats = ApplyDeltaToState(
        program.value(), compiled.value(), plan, delta, ApplyDeltaOptions(),
        harness.mutable_state());
    EXPECT_FALSE(stats.ok()) << label;
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument) << label;
    }
    EXPECT_EQ(harness.state().version, 0) << label;
    ASSERT_NO_FATAL_FAILURE(harness.CheckAgainstOracle(label));
  };

  FactDelta idb_write;
  idb_write.inserts.push_back(Fact2("tc", 5, 6));
  expect_rejected(std::move(idb_write), "IDB predicate in delta");

  FactDelta bad_arity;
  bad_arity.inserts.push_back(Fact1("edge", 5));
  expect_rejected(std::move(bad_arity), "arity mismatch");

  FactDelta non_ground;
  non_ground.inserts.push_back(
      Atom("edge", {Term::Var("X"), Term::Int(1)}));
  expect_rejected(std::move(non_ground), "non-ground fact");
}

// --- recompute fallback ---------------------------------------------------

TEST(IvmEquivTest, ForcedRecomputeMatchesIncremental) {
  FuzzRng rng(0xabba);
  Database edb = MakeRandomGraph(20, 50, &rng);
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(
      harness.Init(kTcRules, edb, 1e9, /*force_recompute=*/true));
  for (int batch = 0; batch < 8; ++batch) {
    FactDelta delta =
        RandomEdgeBatch(&rng, harness.state().edb, "edge", 20, 2, 2);
    ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(
        delta, "recompute batch " + std::to_string(batch)));
    if (harness.state().version > 0) {
      EXPECT_TRUE(harness.last_stats().recomputed);
    }
  }
}

TEST(IvmEquivTest, LargeBatchTriggersTheRecomputeFallback) {
  FuzzRng rng(0xcafe);
  Database edb = MakeRandomGraph(20, 40, &rng);
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(
      harness.Init(kTcRules, edb, /*recompute_fraction=*/0.25));

  FactDelta small;
  small.inserts.push_back(Fact2("edge", 1, 19));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(small, "small batch"));
  EXPECT_FALSE(harness.last_stats().recomputed);

  FactDelta big;  // way past 25% of the live EDB
  for (int i = 0; i < 40; ++i) {
    big.inserts.push_back(Fact2("edge", 100 + i, 101 + i));
  }
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(big, "big batch"));
  EXPECT_TRUE(harness.last_stats().recomputed);

  // And the state stays maintainable incrementally afterwards.
  FactDelta after;
  after.deletes.push_back(Fact2("edge", 100, 101));
  ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(after, "after recompute"));
  EXPECT_FALSE(harness.last_stats().recomputed);
}

TEST(IvmEquivTest, GrowFromEmptyEdb) {
  Database empty;
  IvmHarness harness;
  ASSERT_NO_FATAL_FAILURE(harness.Init(kTcRules, empty, 1e9));
  FuzzRng rng(0x5eed);
  for (int batch = 0; batch < 10; ++batch) {
    FactDelta delta;
    delta.inserts.push_back(Fact2("edge", rng() % 8, rng() % 8));
    delta.inserts.push_back(Fact2("edge", rng() % 8, rng() % 8));
    ASSERT_NO_FATAL_FAILURE(harness.ApplyAndCheck(
        delta, "grow batch " + std::to_string(batch)));
  }
}

// --- demand-rewritten programs --------------------------------------------

// Section 3's goodPath under its ICs at threshold 0, where P″ guards path
// with the magic predicate of the start points (src/sqo/lower.h, demand
// (c)). Deltas on startPoint, step and endPoint keep the EDB consistent
// (every step goes up). After each batch, the maintained IDB (the magic
// predicate included) equals the reference fixpoint of P″, a recomputing
// state agrees with it, and the query answers equal P's own.
TEST(IvmEquivTest, DemandRewrittenGoodPathUnderChurn) {
  Engine engine;
  Session session =
      engine.Open(MakeGoodPathProgram(), MakeMonotoneIcs(0)).take();
  const PreparedProgram* prepared = session.Prepare().value();
  const Program& served = prepared->program();
  PredId magic = -1;
  for (const Rule& rule : served.rules()) {
    if (PredName(rule.head.pred()).rfind("m@", 0) == 0) {
      magic = rule.head.pred();
    }
  }
  ASSERT_GE(magic, 0) << "demand did not rewrite P''\n" << served.ToString();

  // A chain 0 -> 1 -> ... -> 19 with upward shortcuts; start points 0, 2
  // and 9, so 0's demand reaches 2 and 9 as well.
  Database edb;
  for (int i = 0; i + 1 < 20; ++i) edb.InsertAtom(Fact2("step", i, i + 1));
  for (int i = 0; i + 3 < 20; i += 4) edb.InsertAtom(Fact2("step", i, i + 3));
  for (int s : {0, 2, 9}) edb.InsertAtom(Fact1("startPoint", s));
  for (int e : {5, 12, 19}) edb.InsertAtom(Fact1("endPoint", e));

  IvmHarness maintained, recomputed;
  ASSERT_NO_FATAL_FAILURE(maintained.Init(served, edb, 1e9));
  ASSERT_NO_FATAL_FAILURE(
      recomputed.Init(served, edb, 1e9, /*force_recompute=*/true));
  ASSERT_NE(maintained.state().idb.Find(magic), nullptr);
  EXPECT_FALSE(ReferenceQuery(MakeGoodPathProgram(), edb).empty());
  auto apply = [&](const FactDelta& delta, const std::string& label) {
    ASSERT_NO_FATAL_FAILURE(maintained.ApplyAndCheck(delta, label));
    ASSERT_NO_FATAL_FAILURE(recomputed.ApplyAndCheck(delta, label));
    EXPECT_EQ(LiveTuples(maintained.state().idb),
              LiveTuples(recomputed.state().idb))
        << label;
    const Relation* answers =
        maintained.state().idb.Find(InternPred("goodPath"));
    std::vector<Tuple> got;
    if (answers != nullptr) {
      for (TupleRef t : answers->rows()) got.push_back(t.Materialize());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got,
              ReferenceQuery(MakeGoodPathProgram(), maintained.oracle_edb()))
        << label;
  };

  // 2 stays demanded through 0 -> 1 -> 2: DRed over-deletes the magic
  // tuples below 2 and rederives them.
  FactDelta drop_start;
  drop_start.deletes.push_back(Fact1("startPoint", 2));
  ASSERT_NO_FATAL_FAILURE(apply(drop_start, "delete a start point 0 reaches"));
  EXPECT_GT(maintained.last_stats().rederived, 0);
  EXPECT_FALSE(maintained.last_stats().recomputed);

  FactDelta new_start;  // outside the demanded region so far
  new_start.inserts.push_back(Fact1("startPoint", 30));
  new_start.inserts.push_back(Fact2("step", 30, 31));
  new_start.inserts.push_back(Fact1("endPoint", 31));
  ASSERT_NO_FATAL_FAILURE(apply(new_start, "insert a start point"));

  FactDelta cut;  // 1 -> 2 gone: 2..3 are no longer demanded by 0
  cut.deletes.push_back(Fact2("step", 1, 2));
  cut.deletes.push_back(Fact1("startPoint", 0));
  ASSERT_NO_FATAL_FAILURE(apply(cut, "cut the chain"));

  FuzzRng rng(0xdead);
  for (int batch = 0; batch < 16; ++batch) {
    FactDelta delta;
    const int a = static_cast<int>(rng() % 30);
    const int b = a + 1 + static_cast<int>(rng() % 4);
    switch (batch % 3) {
      case 0:
        (rng() % 2 == 0 ? delta.inserts : delta.deletes)
            .push_back(Fact2("step", a, b));
        break;
      case 1:
        (rng() % 2 == 0 ? delta.inserts : delta.deletes)
            .push_back(Fact1("startPoint", a));
        break;
      default:
        (rng() % 2 == 0 ? delta.inserts : delta.deletes)
            .push_back(Fact1("endPoint", b));
        break;
    }
    delta.inserts.push_back(
        Fact2("step", b, b + 1 + static_cast<int>(rng() % 3)));
    ASSERT_NO_FATAL_FAILURE(apply(delta, "churn " + std::to_string(batch)));
  }
}

// --- engine layer: MaterializedView and the frozen shared EDB -------------

constexpr const char* kEngineSource = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
  edge(1, 2). edge(2, 3). edge(3, 4).
  ?- tc.
)";

TEST(IvmEquivEngineTest, ViewServesWarmAnswersAndMaintainsThem) {
  Engine engine;
  Result<Session> session = engine.Open(kEngineSource);
  ASSERT_TRUE(session.ok()) << session.status().message();
  Result<const PreparedProgram*> prepared = session.value().Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();

  Result<MaterializedView*> view =
      session.value().Materialize(*prepared.value());
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view.value()->version(), 0);

  // Warm answers == an actual evaluation against the shared snapshot.
  Result<std::vector<Tuple>> executed = session.value().Execute(
      *prepared.value(), session.value().SharedEdb());
  ASSERT_TRUE(executed.ok());
  int64_t version = -1;
  EXPECT_EQ(view.value()->Answers(&version), executed.value());
  EXPECT_EQ(version, 0);

  // Materialize again: same view, still warm.
  Result<MaterializedView*> again =
      session.value().Materialize(*prepared.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(view.value(), again.value());

  // Maintain, then check against a fresh evaluation of the view's EDB.
  FactDelta delta;
  delta.inserts.push_back(Fact2("edge", 4, 5));
  delta.deletes.push_back(Fact2("edge", 2, 3));
  Result<MaintainStats> stats = view.value()->ApplyDelta(delta);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().version, 1);
  EXPECT_EQ(view.value()->version(), 1);

  Database changed = view.value()->SnapshotEdb();
  Result<std::vector<Tuple>> fresh =
      session.value().Execute(*prepared.value(), changed);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(view.value()->Answers(&version), fresh.value());
  EXPECT_EQ(version, 1);
  EXPECT_EQ(view.value()->batches_applied(), 1);
}

TEST(IvmEquivEngineTest, SharedEdbIsFrozenAndStable) {
  Engine engine;
  Result<Session> session = engine.Open(kEngineSource);
  ASSERT_TRUE(session.ok());
  const Database& a = session.value().SharedEdb();
  const Database& b = session.value().SharedEdb();
  EXPECT_EQ(&a, &b);  // one snapshot, not one per call
  EXPECT_TRUE(a.frozen());
  EXPECT_EQ(a.TotalTuples(), 3);
}

// --- service layer --------------------------------------------------------

TEST(IvmEquivServiceTest, ApplyDeltaAdvancesTheServedSnapshot) {
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);

  Request query;
  query.source = kEngineSource;
  query.materialized = true;
  Response r0 = service.Call(query);
  ASSERT_TRUE(r0.status.ok()) << r0.status.message();
  EXPECT_TRUE(r0.served_from_view);
  EXPECT_EQ(r0.snapshot_version, 0);
  EXPECT_EQ(r0.answers.size(), 6u);  // tc of the 3-edge chain

  DeltaRequest delta;
  delta.source = kEngineSource;
  delta.delta.inserts.push_back(Fact2("edge", 4, 5));
  DeltaResponse d = service.CallApplyDelta(delta);
  ASSERT_TRUE(d.status.ok()) << d.status.message();
  EXPECT_EQ(d.snapshot_version, 1);
  EXPECT_GT(d.stats.idb_inserted, 0);

  Response r1 = service.Call(query);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.snapshot_version, 1);
  EXPECT_EQ(r1.answers.size(), 10u);  // tc of the 4-edge chain

  // A non-materialized request still reads the immutable base snapshot.
  Request plain;
  plain.source = kEngineSource;
  Response r2 = service.Call(plain);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r2.served_from_view);
  EXPECT_EQ(r2.snapshot_version, 0);
  EXPECT_EQ(r2.answers.size(), 6u);

  // Rejected IDB writes surface as kInvalidArgument, not a crash.
  DeltaRequest bad;
  bad.source = kEngineSource;
  bad.delta.inserts.push_back(Fact2("tc", 1, 2));
  DeltaResponse rejected = service.CallApplyDelta(bad);
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
}

TEST(IvmEquivServiceTest, SlowDeltaLandsInTheEventLog) {
  ServiceOptions options;
  options.threads = 1;
  options.slow_query_ms = 0;  // log everything
  QueryService service(options);

  DeltaRequest delta;
  delta.source = kEngineSource;
  delta.trace = true;
  delta.delta.inserts.push_back(Fact2("edge", 9, 10));
  DeltaResponse d = service.CallApplyDelta(delta);
  ASSERT_TRUE(d.status.ok()) << d.status.message();
  EXPECT_NE(d.trace_id, 0u);
  EXPECT_FALSE(d.spans.empty());

  bool found = false;
  for (const LogEvent& event : service.event_log().Events()) {
    if (event.kind == "slow_delta" && event.trace_id == d.trace_id) {
      found = true;
      EXPECT_NE(event.message.find("v1"), std::string::npos)
          << event.message;
    }
  }
  EXPECT_TRUE(found) << "no slow_delta event joinable by trace id";
}

// --- concurrency (the TSan targets) ---------------------------------------

TEST(IvmEquivConcurrencyTest, ReadersSeeOnlyCompleteSnapshots) {
  Engine engine;
  Result<Session> opened = engine.Open(kEngineSource);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  Result<const PreparedProgram*> prepared = session.Prepare();
  ASSERT_TRUE(prepared.ok());
  Result<MaterializedView*> made = session.Materialize(*prepared.value());
  ASSERT_TRUE(made.ok());
  MaterializedView* view = made.value();

  // Deterministic batches; expected answers per version precomputed by
  // replaying them against an oracle EDB.
  std::vector<FactDelta> batches;
  for (int i = 0; i < 12; ++i) {
    FactDelta delta;
    if (i % 3 == 2) {
      // Deletes the edge batch i-2 inserted, so every batch has a non-empty
      // net and the version advances exactly once per batch.
      delta.deletes.push_back(Fact2("edge", 4 + (i - 2), 5 + (i - 2)));
    } else {
      delta.inserts.push_back(Fact2("edge", 4 + i, 5 + i));
    }
    batches.push_back(std::move(delta));
  }
  std::vector<std::vector<Tuple>> expected;
  {
    Database oracle = session.MakeEdb();
    expected.push_back(
        session.Execute(*prepared.value(), oracle).value());
    for (const FactDelta& delta : batches) {
      ApplyToOracle(delta, &oracle);
      expected.push_back(
          session.Execute(*prepared.value(), oracle).value());
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        int64_t version = -1;
        std::vector<Tuple> answers = view->Answers(&version);
        if (version < 0 ||
            version >= static_cast<int64_t>(expected.size()) ||
            answers != expected[version]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (const FactDelta& delta : batches) {
    Result<MaintainStats> stats = view->ApplyDelta(delta);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a reader observed a half-applied batch";
  EXPECT_EQ(view->version(), static_cast<int64_t>(batches.size()));
  int64_t version = -1;
  EXPECT_EQ(view->Answers(&version), expected.back());
  EXPECT_EQ(version, static_cast<int64_t>(batches.size()));
}

TEST(IvmEquivConcurrencyTest, ConcurrentQueriesShareTheFrozenEdb) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);

  // All workers race on the session's frozen shared snapshot: the lazy
  // index builds inside Relation::Probe must serialize, the chain walks
  // must not.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.source = kEngineSource;
    futures.push_back(service.Submit(std::move(request)));
  }
  std::vector<Tuple> reference;
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_FALSE(response.served_from_view);
    if (i == 0) {
      reference = response.answers;
    } else {
      EXPECT_EQ(response.answers, reference);
    }
  }
}

TEST(IvmEquivConcurrencyTest, MaterializedReadsRaceWithMaintenance) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);

  std::vector<std::future<DeltaResponse>> deltas;
  std::vector<std::future<Response>> queries;
  for (int i = 0; i < 8; ++i) {
    DeltaRequest delta;
    delta.source = kEngineSource;
    delta.delta.inserts.push_back(Fact2("edge", 10 + i, 11 + i));
    deltas.push_back(service.ApplyDelta(std::move(delta)));
    for (int q = 0; q < 3; ++q) {
      Request request;
      request.source = kEngineSource;
      request.materialized = true;
      queries.push_back(service.Submit(std::move(request)));
    }
  }
  for (std::future<DeltaResponse>& f : deltas) {
    DeltaResponse d = f.get();
    ASSERT_TRUE(d.status.ok()) << d.status.message();
  }
  int64_t max_version = -1;
  for (std::future<Response>& f : queries) {
    Response r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_TRUE(r.served_from_view);
    EXPECT_GE(r.snapshot_version, 0);
    max_version = std::max(max_version, r.snapshot_version);
  }
  // Answers always reflect exactly the version they claim: re-check the
  // final state synchronously.
  Request last;
  last.source = kEngineSource;
  last.materialized = true;
  Response final_response = service.Call(last);
  ASSERT_TRUE(final_response.status.ok());
  EXPECT_EQ(final_response.snapshot_version, 8);
}

}  // namespace
}  // namespace sqod
