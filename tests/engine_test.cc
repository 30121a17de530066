#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/explain.h"
#include "src/engine/view.h"
#include "src/obs/json.h"
#include "src/sqo/pass_manager.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

constexpr const char* kFigure1 = R"(
  p(X, Y) :- a(X, Y).
  p(X, Y) :- b(X, Y).
  p(X, Y) :- a(X, Z), p(Z, Y).
  p(X, Y) :- b(X, Z), p(Z, Y).
  :- a(X, Y), b(Y, Z).
  b(1, 2). b(2, 3). a(3, 4). a(4, 5).
  ?- p.
)";

int64_t Hits(Engine& engine) {
  return engine.metrics().GetCounter("engine/prepare_cache_hits")->value();
}
int64_t Misses(Engine& engine) {
  return engine.metrics().GetCounter("engine/prepare_cache_misses")->value();
}
int64_t PipelineRuns(Engine& engine) {
  return engine.metrics().GetCounter("engine/pipeline_runs")->value();
}

TEST(EngineTest, OpenParsesSourceIntoSession) {
  Engine engine;
  Result<Session> opened = engine.Open(kFigure1);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Session& session = opened.value();
  EXPECT_EQ(session.program().rules().size(), 4u);
  EXPECT_EQ(session.ics().size(), 1u);
  EXPECT_EQ(session.facts().size(), 4u);
  EXPECT_EQ(session.MakeEdb().TotalTuples(), 4);
  EXPECT_EQ(
      engine.metrics().GetCounter("engine/sessions_opened")->value(), 1);
}

TEST(EngineTest, OpenSurfacesParseErrorsAsInvalidArgument) {
  Engine engine;
  Result<Session> opened = engine.Open("p(X :- q(X).");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, PrepareCachesSecondCallIsAHit) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();

  Result<const PreparedProgram*> first = session.Prepare();
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(Hits(engine), 0);
  EXPECT_EQ(Misses(engine), 1);
  EXPECT_EQ(PipelineRuns(engine), 1);

  Result<const PreparedProgram*> second = session.Prepare();
  ASSERT_TRUE(second.ok());
  // Same program/ICs/options: exactly one pass-pipeline run, the second
  // Prepare is a pure cache hit returning the same prepared program.
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(Hits(engine), 1);
  EXPECT_EQ(Misses(engine), 1);
  EXPECT_EQ(PipelineRuns(engine), 1);
}

TEST(EngineTest, PrepareProgramRunsAblationsOutsideTheSession) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* served = session.Prepare().value();

  SqoOptions no_residues;
  no_residues.disabled_passes.push_back("residues");
  Result<PreparedProgram> bare =
      PrepareProgram(session.program(), session.ics(), no_residues);
  ASSERT_TRUE(bare.ok()) << bare.status().message();
  EXPECT_TRUE(bare.value().fallback.ok());
  ASSERT_NE(bare.value().compiled, nullptr);
  bool residues_disabled = false;
  for (const PassRunInfo& info : bare.value().report.pass_runs) {
    if (info.name == "residues") residues_disabled = info.disabled;
  }
  EXPECT_TRUE(residues_disabled);

  // The ablation left the session's one prepared program alone.
  EXPECT_EQ(session.Prepare().value(), served);
  EXPECT_EQ(Misses(engine), 1);
  EXPECT_EQ(PipelineRuns(engine), 1);

  // It executes on the session like its own program, with the same answers
  // on this consistent database, but it has no view.
  Database edb = session.MakeEdb();
  EXPECT_EQ(session.Execute(bare.value(), edb).take(),
            session.Execute(*served, edb).take());
  Result<MaterializedView*> view = session.Materialize(bare.value());
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session.has_view());
}

TEST(EngineTest, SessionHoldsOneViewOfItsOwnProgram) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  EXPECT_FALSE(session.has_view());
  MaterializedView* view = session.Materialize(*prepared).value();
  EXPECT_TRUE(session.has_view());
  EXPECT_EQ(session.Materialize(*prepared).value(), view);
  EXPECT_EQ(engine.metrics().GetCounter("engine/views_materialized")->value(),
            1);
  EXPECT_EQ(view->Answers(),
            session.Execute(*prepared, session.MakeEdb()).take());
}

TEST(EngineTest, ExecuteMatchesOriginalOnConsistentDatabase) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  Database edb = session.MakeEdb();

  auto original = session.ExecuteOriginal(edb).take();
  auto rewritten = session.Execute(*prepared, edb).take();
  EXPECT_FALSE(original.empty());
  EXPECT_EQ(original, rewritten);
  EXPECT_EQ(engine.metrics().GetCounter("engine/executions")->value(), 2);

  // Repeated execution over the cached plan: no new pipeline runs.
  auto again = session.Execute(*prepared, edb).take();
  EXPECT_EQ(again, rewritten);
  EXPECT_EQ(PipelineRuns(engine), 1);
}

TEST(EngineTest, PrepareSurfacesUnsupportedPrograms) {
  // IDB negation is outside the rewriting's theory: the pipeline reports
  // kUnsupported, and Prepare caches a program that serves P as written,
  // with that status in `fallback`.
  Engine engine;
  Session session = engine
                        .Open(R"(
                          q(X) :- e(X, Y).
                          p(X) :- e(X, Y), !q(Y).
                          e(1, 2). e(2, 3).
                          ?- p.
                        )")
                        .take();
  bool cache_hit = true;
  Result<const PreparedProgram*> prepared =
      session.Prepare(nullptr, &cache_hit);
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  EXPECT_FALSE(cache_hit);
  const PreparedProgram& served = *prepared.value();
  EXPECT_EQ(served.fallback.code(), StatusCode::kUnsupported);
  EXPECT_FALSE(served.fallback.message().empty());
  EXPECT_EQ(served.program().ToString(), session.program().ToString());
  EXPECT_TRUE(served.report.pass_runs.empty());
  ASSERT_NE(served.compiled, nullptr);
  Database edb = session.MakeEdb();
  EXPECT_EQ(session.Execute(served, edb).take(),
            session.ExecuteOriginal(edb).take());

  Result<const PreparedProgram*> again = session.Prepare(nullptr, &cache_hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(again.value(), prepared.value());
  EXPECT_EQ(PipelineRuns(engine), 1);
  EXPECT_EQ(
      engine.metrics().GetCounter("engine/prepare_cache_hits")->value(), 1);
}

TEST(EngineTest, PrepareSurfacesResourceLimits) {
  // An optimizer limit cuts the run short: the program serves P, with the
  // limit's kResourceExhausted in `fallback`.
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  SqoOptions tiny;
  tiny.adorn.max_adorned_preds = 1;
  Result<PreparedProgram> prepared =
      PrepareProgram(session.program(), session.ics(), tiny);
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  const PreparedProgram& served = prepared.value();
  EXPECT_EQ(served.fallback.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(served.fallback.message().find("max_adorned_preds"),
            std::string::npos)
      << served.fallback.message();
  EXPECT_EQ(served.program().ToString(), session.program().ToString());
  EXPECT_TRUE(served.report.pass_runs.empty());
  ASSERT_NE(served.compiled, nullptr);
  Database edb = session.MakeEdb();
  EXPECT_EQ(session.Execute(served, edb).take(),
            session.ExecuteOriginal(edb).take());
}

TEST(EngineTest, PrepareRejectsUnknownDisabledPass) {
  SqoOptions options;
  options.disabled_passes.push_back("no_such_pass");
  Result<PreparedProgram> prepared =
      PrepareProgram(MakeAbClosureProgram(), {MakeAbIc()}, options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ExternalMetricsRegistryReceivesEngineCounters) {
  MetricsRegistry metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(options);
  Session session = engine.Open(kFigure1).take();
  session.Prepare().value();
  session.Prepare().value();
  EXPECT_EQ(metrics.GetCounter("engine/prepare_cache_hits")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("engine/prepare_cache_misses")->value(), 1);
  // The pipeline's own gauges landed in the same registry.
  EXPECT_GT(metrics.gauges().count("sqo/phase/adorn_ns"), 0u);
}

TEST(EngineTest, FailedPrepareIsNotCached) {
  // Negation through recursion, built past the parser's validation: the
  // pipeline rejects it, nothing is published, and each Prepare runs the
  // pipeline again.
  Program program;
  program.AddRule(ParseRule("p(X) :- e(X), !q(X).").value());
  program.AddRule(ParseRule("q(X) :- e(X), !p(X).").value());
  program.SetQuery("p");
  Engine engine;
  Session session = engine.Open(std::move(program), {}).take();
  for (int attempt = 1; attempt <= 2; ++attempt) {
    Result<const PreparedProgram*> prepared = session.Prepare();
    ASSERT_FALSE(prepared.ok());
    EXPECT_NE(prepared.status().message().find("not stratified"),
              std::string::npos)
        << prepared.status().message();
    EXPECT_EQ(PipelineRuns(engine), attempt);
  }
  EXPECT_EQ(Hits(engine), 0);
}

TEST(EngineTest, ConcurrentPrepareIsSingleFlight) {
  // Eight threads hammer one session's Prepare: exactly one runs
  // the pipeline, the rest block on the in-flight entry and get the same
  // prepared program (7 hits, 1 miss, 1 pipeline run).
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  constexpr int kThreads = 8;
  std::vector<const PreparedProgram*> prepared(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, &prepared, t] {
      Result<const PreparedProgram*> result = session.Prepare();
      if (result.ok()) prepared[static_cast<size_t>(t)] = result.value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(prepared[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(prepared[static_cast<size_t>(t)], prepared[0]);
  }
  EXPECT_EQ(PipelineRuns(engine), 1);
  EXPECT_EQ(Misses(engine), 1);
  EXPECT_EQ(Hits(engine), kThreads - 1);
}

TEST(EngineTest, SessionsAreIndependent) {
  Engine engine;
  Session a = engine.Open(kFigure1).take();
  Session b = engine.Open(MakeAbClosureProgram(), {MakeAbIc()}).take();
  const PreparedProgram* pa = a.Prepare().value();
  const PreparedProgram* pb = b.Prepare().value();
  EXPECT_NE(pa, pb);
  EXPECT_EQ(a.Prepare().value(), pa);
  EXPECT_EQ(b.Prepare().value(), pb);
  EXPECT_EQ(Misses(engine), 2);
  EXPECT_EQ(Hits(engine), 2);
}

TEST(EngineTest, DistinctProgramsKeepTheInternerBounded) {
  // Fresh names are scoped to one optimizer run, so a stream of distinct
  // programs reuses them instead of interning new ones per run.
  Engine engine;
  Rng rng(7);
  const int before = GlobalStrings().size();
  for (int i = 0; i < 500; ++i) {
    ColoredClosure cc = MakeColoredClosure(3, 1 + i % 4, &rng);
    std::vector<Atom> facts{
        Atom("e0", {Term::Int(i), Term::Int(i + 1)})};
    Session session =
        engine.Open(cc.program, cc.ics, std::move(facts)).take();
    ASSERT_TRUE(session.Prepare().ok()) << "program " << i;
  }
  EXPECT_EQ(PipelineRuns(engine), 500);
  EXPECT_LT(GlobalStrings().size() - before, 2000);
}

TEST(EngineTest, ReoptimizingARewrittenProgramKeepsItsAnswers) {
  // A rewritten program's variables carry fresh '#' names; optimizing it
  // again must draw names apart from them (the run reserves its input's
  // variables) and still answer like the original.
  Engine engine;
  Rng rng(11);
  ColoredClosure cc = MakeColoredClosure(3, 3, &rng);
  Session original = engine.Open(cc.program, cc.ics).take();
  const Program& rewritten = original.Prepare().value()->program();
  ASSERT_NE(rewritten.ToString().find('#'), std::string::npos);

  Session again = engine.Open(rewritten, cc.ics).take();
  const PreparedProgram* reoptimized = again.Prepare().value();
  for (int trial = 0; trial < 3; ++trial) {
    Database edb = MakeColoredEdges(3, 40, 90, cc.ics, &rng);
    std::vector<Tuple> expected = original.ExecuteOriginal(edb).take();
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(again.Execute(*reoptimized, edb).take(), expected)
        << "trial " << trial;
  }
}

TEST(EngineTest, PrepareReportsCacheHitToCaller) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  bool hit = true;
  ASSERT_TRUE(session.Prepare(nullptr, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(session.Prepare(nullptr, &hit).ok());
  EXPECT_TRUE(hit);
}

// ------------------------------------------------------- EXPLAIN / ANALYZE

TEST(ExplainTest, PassRowsChainBeforeAfterShapes) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const SqoReport& report = session.Prepare().value()->report;
  ExplainReport explain = BuildExplainReport(report);
  ASSERT_EQ(explain.passes.size(), PassManager::PassNames().size());
  // The chain invariant: each pass starts where its predecessor ended.
  for (size_t i = 1; i < explain.passes.size(); ++i) {
    EXPECT_EQ(explain.passes[i].rules_before,
              explain.passes[i - 1].rules_after);
    EXPECT_EQ(explain.passes[i].literals_before,
              explain.passes[i - 1].literals_after);
    EXPECT_EQ(explain.passes[i].negations_before,
              explain.passes[i - 1].negations_after);
    EXPECT_EQ(explain.passes[i].comparisons_before,
              explain.passes[i - 1].comparisons_after);
  }
  // Figure 1: four input rules, and adornment grows the program.
  EXPECT_EQ(explain.passes.front().rules_before, 4);
  EXPECT_GT(explain.passes.back().rules_after, 4);
  EXPECT_FALSE(explain.analyzed);
  EXPECT_GT(explain.optimize_ns, 0);
  EXPECT_GT(explain.intern_hits + explain.intern_misses, 0);
}

TEST(ExplainTest, AttachRuntimeJoinsProfilesToRewrittenRules) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  Database edb = session.MakeEdb();
  EvalOptions eval;
  eval.profile_rules = true;
  EvalStats stats;
  std::vector<RuleProfile> profiles;
  std::vector<Tuple> answers =
      session.Execute(*prepared, edb, eval, &stats, &profiles).take();

  ExplainReport explain = BuildExplainReport(prepared->report);
  AttachRuntime(prepared->program(), stats, profiles,
                static_cast<int64_t>(answers.size()), 12345, &explain);
  EXPECT_TRUE(explain.analyzed);
  EXPECT_EQ(explain.answers, static_cast<int64_t>(answers.size()));
  EXPECT_EQ(explain.execute_ns, 12345);
  ASSERT_EQ(explain.rules.size(), prepared->program().rules().size());
  int64_t firings = 0;
  for (const ExplainRuleRow& row : explain.rules) {
    EXPECT_TRUE(row.executed);
    EXPECT_FALSE(row.rule_text.empty());
    firings += row.profile.firings;
  }
  // The join is complete: per-rule firings sum to the aggregate.
  EXPECT_EQ(firings, stats.rule_firings);
  EXPECT_NE(explain.ToText().find("== runtime =="), std::string::npos);
  EXPECT_NE(explain.Summary().find("answers="), std::string::npos);
}

TEST(ExplainTest, JsonRendersAndParses) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  ExplainReport explain = BuildExplainReport(prepared->report);
  Result<JsonValue> parsed = ParseJson(explain.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  const JsonValue* passes = root.Find("passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->array.size(), PassManager::PassNames().size());
  const JsonValue* plan = root.Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(plan->Find("satisfiable"), nullptr);
  EXPECT_EQ(root.Find("runtime"), nullptr);  // not analyzed

  EvalStats stats;
  std::vector<RuleProfile> profiles;
  Database edb = session.MakeEdb();
  EvalOptions eval;
  eval.profile_rules = true;
  std::vector<Tuple> answers =
      session.Execute(*prepared, edb, eval, &stats, &profiles).take();
  AttachRuntime(prepared->program(), stats, profiles,
                static_cast<int64_t>(answers.size()), 1, &explain);
  parsed = ParseJson(explain.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* runtime = parsed.value().Find("runtime");
  ASSERT_NE(runtime, nullptr);
  const JsonValue* rules = runtime->Find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->array.size(), explain.rules.size());
}

}  // namespace
}  // namespace sqod
