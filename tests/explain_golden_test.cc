// Golden tests for the compiled-plan side of EXPLAIN: kernel selection is
// part of the observable contract (EXPLAIN text, EXPLAIN ANALYZE JSON, the
// slow-query log), so this file pins which kernel the compiler picks for
// the canonical rule shapes and how the selection renders.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/explain.h"
#include "src/eval/bytecode.h"
#include "src/eval/plan.h"
#include "src/obs/json.h"
#include "src/parser/parser.h"
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

// Maps every compiled plan to its kernel name, keyed by
// (rule_index, delta_subgoal).
std::map<std::pair<int, int>, std::string> KernelsByPlan(
    const CompiledProgram& compiled) {
  std::map<std::pair<int, int>, std::string> kernels;
  for (const CompiledProgram::PlanInfo& plan : compiled.plans) {
    kernels[{plan.rule_index, plan.delta_subgoal}] =
        KernelName(plan.kernel);
  }
  return kernels;
}

// The canonical rule shapes get the kernels the compiler documents:
//  * single-atom copy rule           -> scan_filter_emit
//  * binary join on a bound key      -> scan_probe_emit
//  * anything carrying a negation    -> generic
TEST(ExplainGoldenTest, KernelSelectionMatchesRuleShapes) {
  Result<ParsedUnit> parsed = ParseUnit(R"(
    copy(X, Y) :- e(X, Y).
    join(X, Z) :- e(X, Y), f(Y, Z).
    guarded(X) :- n(X), !e(X, X).
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
    ?- tc.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Result<CompiledProgram> compiled = CompileProgram(parsed.value().program);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  std::map<std::pair<int, int>, std::string> kernels =
      KernelsByPlan(compiled.value());

  // Full plans (delta_subgoal = -1), one per iteration-0 rule.
  EXPECT_EQ((kernels[{0, -1}]), "scan_filter_emit");  // copy
  EXPECT_EQ((kernels[{1, -1}]), "scan_probe_emit");   // join
  EXPECT_EQ((kernels[{2, -1}]), "generic");           // negation
  EXPECT_EQ((kernels[{3, -1}]), "scan_filter_emit");  // tc base
  // The recursive rule gets only its semi-naive delta plan (delta on the
  // tc occurrence, subgoal index 1): scan the delta, probe e on its
  // bound key — the two-level probe kernel.
  EXPECT_EQ((kernels.count({4, -1})), 0u);
  ASSERT_TRUE((kernels.count({4, 1})));
  EXPECT_EQ((kernels[{4, 1}]), "scan_probe_emit");
  EXPECT_EQ(kernels.size(), 5u);

  EXPECT_GT(compiled.value().total_ops, 0);
  for (const CompiledProgram::PlanInfo& plan : compiled.value().plans) {
    EXPECT_GT(plan.op_count, 0);
  }
}

TEST(ExplainGoldenTest, TextReportRendersKernelTable) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  ASSERT_NE(prepared->compiled, nullptr);
  ExplainReport explain =
      BuildExplainReport(prepared->report, prepared->compiled.get());
  EXPECT_TRUE(explain.compiled);
  EXPECT_GT(explain.compile_ns, 0);
  EXPECT_GT(explain.total_ops, 0);
  EXPECT_EQ(explain.kernels.size(), prepared->compiled->plans.size());

  std::string text = explain.ToText();
  EXPECT_NE(text.find("== kernels =="), std::string::npos);
  EXPECT_NE(text.find("scan_filter_emit"), std::string::npos);
  // Semi-naive delta plans are listed with their delta subgoal; full plans
  // render the delta column as "-".
  bool saw_full = false, saw_delta = false;
  for (const ExplainKernelRow& row : explain.kernels) {
    EXPECT_FALSE(row.kernel.empty());
    EXPECT_GT(row.op_count, 0);
    saw_full |= row.delta_subgoal < 0;
    saw_delta |= row.delta_subgoal >= 0;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_delta);
}

TEST(ExplainGoldenTest, JsonCarriesKernelsAndExecutedOps) {
  Engine engine;
  Session session = engine.Open(kFigure1).take();
  const PreparedProgram* prepared = session.Prepare().value();
  ExplainReport explain =
      BuildExplainReport(prepared->report, prepared->compiled.get());

  Database edb = session.MakeEdb();
  EvalOptions eval;
  eval.profile_rules = true;
  EvalStats stats;
  std::vector<RuleProfile> profiles;
  std::vector<Tuple> answers =
      session.Execute(*prepared, edb, eval, &stats, &profiles).take();
  AttachRuntime(prepared->program(), stats, profiles,
                static_cast<int64_t>(answers.size()), 1, &explain);
  // Compiled mode executed, so the per-rule op counters joined in.
  EXPECT_GT(explain.ops_executed, 0);
  EXPECT_NE(explain.ToText().find("bytecode ops:"), std::string::npos);

  Result<JsonValue> parsed = ParseJson(explain.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* kernels = parsed.value().Find("kernels");
  ASSERT_NE(kernels, nullptr);
  EXPECT_NE(kernels->Find("compile_ns"), nullptr);
  EXPECT_NE(kernels->Find("total_ops"), nullptr);
  const JsonValue* plans = kernels->Find("plans");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->array.size(), prepared->compiled->plans.size());
  for (const JsonValue& plan : plans->array) {
    ASSERT_NE(plan.Find("kernel"), nullptr);
    const std::string& name = plan.Find("kernel")->string;
    EXPECT_TRUE(name == "generic" || name == "scan_filter_emit" ||
                name == "scan_probe_emit")
        << name;
  }
  const JsonValue* runtime = parsed.value().Find("runtime");
  ASSERT_NE(runtime, nullptr);
  EXPECT_NE(runtime->Find("ops_executed"), nullptr);
}

// EXPLAIN's "== lowering ==" section names every decision, and the
// kernel table shows the served goodPath program's magic propagation rule
// (recursive, reading the step it passes demand along) on scan_probe_emit
// with its threshold residue running inside the kernel.
TEST(ExplainGoldenTest, LoweringSectionAndFilteredProbeKernel) {
  Engine engine;
  Session session =
      engine.Open(MakeGoodPathProgram(), MakeMonotoneIcs(0)).take();
  const PreparedProgram* prepared = session.Prepare().value();
  ExplainReport explain = BuildExplainReport(
      prepared->report, prepared->compiled.get(), &prepared->lowered);
  const std::string text = explain.ToText();
  EXPECT_NE(text.find("== lowering =="), std::string::npos) << text;
  EXPECT_NE(text.find("merged:            goodPath <- 1 copy (renamed)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dropped:           Q#0 < Z#0 from "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("kept adorned:      path@1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("demand:            path@1_n1/bf (1 seed, "
                      "1 propagation rule, 2 guarded rules)"),
            std::string::npos)
      << text;

  // The magic propagation rule: the recursive rule with a magic head.
  const std::vector<Rule>& rules = prepared->program().rules();
  int recursive = -1;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (PredName(rules[i].head.pred()).rfind("m@", 0) != 0) continue;
    for (const Literal& l : rules[i].body) {
      if (l.atom.pred() == rules[i].head.pred()) {
        recursive = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(recursive, 0);
  ASSERT_FALSE(rules[recursive].comparisons.empty());
  int plans = 0;
  for (const ExplainKernelRow& row : explain.kernels) {
    if (row.rule_index != recursive) continue;
    ++plans;
    EXPECT_EQ(row.kernel, "scan_probe_emit") << row.delta_subgoal;
  }
  EXPECT_EQ(plans, 1);  // the delta plan; recursive rules have no full plan

  // The query rule reads the recursive path@1 but is a component of its
  // own: it compiles to one full plan and no delta plan, so it runs once,
  // after path@1's fixpoint, instead of once per path@1 iteration.
  const PredId query = prepared->program().query();
  int query_full = 0, query_delta = 0;
  for (const ExplainKernelRow& row : explain.kernels) {
    if (rules[row.rule_index].head.pred() != query) continue;
    ++(row.delta_subgoal < 0 ? query_full : query_delta);
  }
  EXPECT_EQ(query_full, 1);
  EXPECT_EQ(query_delta, 0);

  Result<JsonValue> json = ParseJson(explain.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().message();
  const JsonValue* lowering = json.value().Find("lowering");
  ASSERT_NE(lowering, nullptr);
  ASSERT_NE(lowering->Find("merged"), nullptr);
  EXPECT_EQ(lowering->Find("merged")->array.size(), 1u);
  ASSERT_NE(lowering->Find("kept"), nullptr);
  EXPECT_EQ(lowering->Find("kept")->array.size(), 1u);
  const JsonValue* demand = lowering->Find("demand");
  ASSERT_NE(demand, nullptr);
  ASSERT_EQ(demand->array.size(), 1u);
  ASSERT_NE(demand->array[0].Find("declined"), nullptr);
  EXPECT_FALSE(demand->array[0].Find("declined")->boolean);
  ASSERT_NE(demand->array[0].Find("seeds"), nullptr);
  EXPECT_EQ(demand->array[0].Find("seeds")->number, 1);
}

// A unit outside the rewriting's theory is served as P: EXPLAIN has no
// pass rows for it, and every rendering names the reason instead.
TEST(ExplainGoldenTest, FallbackNamesTheReasonInEveryRendering) {
  Engine engine;
  Session session = engine
                        .Open(R"(
                          q(X) :- e(X, Y).
                          p(X) :- e(X, Y), !q(Y).
                          ?- p.
                        )")
                        .take();
  const PreparedProgram* prepared = session.Prepare().value();
  ASSERT_EQ(prepared->fallback.code(), StatusCode::kUnsupported);
  ExplainReport explain = BuildExplainReport(
      prepared->report, prepared->compiled.get(), &prepared->lowered);
  explain.fallback = prepared->fallback;
  EXPECT_TRUE(explain.passes.empty());

  const std::string text = explain.ToText();
  EXPECT_NE(text.find("served:            P as written (UNSUPPORTED: "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rules:             2 -> 2"), std::string::npos) << text;
  EXPECT_NE(explain.Summary().find(" fallback=UNSUPPORTED"), std::string::npos)
      << explain.Summary();

  Result<JsonValue> json = ParseJson(explain.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().message();
  const JsonValue* plan = json.value().Find("plan");
  ASSERT_NE(plan, nullptr);
  const JsonValue* fallback = plan->Find("fallback");
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->string.rfind("UNSUPPORTED: ", 0), 0u)
      << fallback->string;

  // The served program's own EXPLAIN carries no fallback field.
  Session figure1 = engine.Open(kFigure1).take();
  ExplainReport rewritten =
      BuildExplainReport(figure1.Prepare().value()->report);
  EXPECT_EQ(rewritten.ToJson().find("fallback"), std::string::npos);
  EXPECT_EQ(rewritten.Summary().find("fallback"), std::string::npos);
}

// The disassembler is EXPLAIN's drill-down: every compiled plan prints its
// opcode stream, and the canonical copy rule lowers to the documented
// scan / check / emit sequence.
TEST(ExplainGoldenTest, DisassemblyShowsOpcodeStream) {
  Result<ParsedUnit> parsed = ParseUnit(R"(
    copy(X, Y) :- e(X, Y).
    ?- copy.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  CompiledRule rule =
      CompileRulePlan(BuildPlan(parsed.value().program.rules()[0], 0, -1),
                      parsed.value().program.IdbPreds());
  std::string text = rule.ToString();
  EXPECT_NE(text.find("SCAN_FULL"), std::string::npos);
  EXPECT_NE(text.find("LOAD_COL"), std::string::npos);
  EXPECT_NE(text.find("EMIT_HEAD"), std::string::npos);
  EXPECT_EQ(rule.kernel, KernelId::kScanFilterEmit);
}

}  // namespace
}  // namespace sqod
