#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "src/parser/parser.h"
#include "src/sqo/pass_manager.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

const std::vector<std::string> kExpectedOrder = {
    "validate",  "normalize", "fd_rewrite", "local_rewrite",
    "adorn",     "tree",      "residues",   "prune"};

// Renames every `name#N` variable token to a sequential id in order of first
// appearance. Normalization mints fresh variables from a process-wide
// counter, so two pipeline runs over the same program produce
// alpha-equivalent but textually different rewrites.
std::string Canon(const std::string& text) {
  std::string out;
  std::map<std::string, std::string> renamed;
  size_t i = 0;
  while (i < text.size()) {
    size_t start = i;
    while (i < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[i])) ||
            text[i] == '_' || text[i] == '#')) {
      ++i;
    }
    if (i == start) {
      out += text[i++];
      continue;
    }
    std::string token = text.substr(start, i - start);
    if (token.find('#') == std::string::npos) {
      out += token;
      continue;
    }
    auto [it, inserted] =
        renamed.emplace(token, "V" + std::to_string(renamed.size()));
    out += it->second;
  }
  return out;
}

TEST(PassManagerTest, PassNamesInPipelineOrder) {
  EXPECT_EQ(PassManager::PassNames(), kExpectedOrder);
}

TEST(PassManagerTest, RunMatchesOptimizeProgram) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};

  SqoReport via_manager = PassManager().Run(p, ics).take();
  SqoReport via_wrapper = OptimizeProgram(p, ics).take();
  EXPECT_EQ(Canon(via_manager.rewritten.ToString()),
            Canon(via_wrapper.rewritten.ToString()));
  EXPECT_EQ(Canon(via_manager.adorned.ToString()),
            Canon(via_wrapper.adorned.ToString()));
  EXPECT_EQ(via_manager.tree_classes, via_wrapper.tree_classes);
  EXPECT_EQ(via_manager.query_satisfiable, via_wrapper.query_satisfiable);
}

TEST(PassManagerTest, ReportsOnePassRunPerPass) {
  SqoReport report =
      PassManager().Run(MakeAbClosureProgram(), {MakeAbIc()}).take();
  ASSERT_EQ(report.pass_runs.size(), kExpectedOrder.size());
  for (size_t i = 0; i < kExpectedOrder.size(); ++i) {
    const PassRunInfo& info = report.pass_runs[i];
    EXPECT_EQ(info.name, kExpectedOrder[i]);
    EXPECT_TRUE(info.ran()) << info.name;
    EXPECT_FALSE(info.disabled);
    EXPECT_FALSE(info.skipped);
    EXPECT_GE(info.wall_ns, 0);
    EXPECT_GT(info.rules_after, 0) << info.name;
  }
}

TEST(PassManagerTest, DisablingTreeBuildsNoQueryTree) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};

  SqoOptions by_name;
  by_name.disabled_passes.push_back("tree");
  SqoReport via_name = PassManager(by_name).Run(p, ics).take();

  EXPECT_EQ(via_name.tree_classes, 0);

  const PassRunInfo* tree_info = nullptr;
  for (const PassRunInfo& info : via_name.pass_runs) {
    if (info.name == "tree") tree_info = &info;
  }
  ASSERT_NE(tree_info, nullptr);
  EXPECT_TRUE(tree_info->disabled);
  EXPECT_FALSE(tree_info->ran());
}

TEST(PassManagerTest, DisablingFdRewriteKeepsTheJoin) {
  // An FD-shaped IC plus a joining rule: with fd_rewrite the join
  // collapses, without it the program keeps both atoms.
  Program p = ParseProgram(R"(
    q(X, Z, W) :- e(X, Y, Z), e(X, Y2, W).
    ?- q.
  )").take();
  Constraint fd =
      ParseConstraint(":- e(X, Y1, Z1), e(X, Y2, Z2), Z1 != Z2.").take();
  std::vector<Constraint> ics{fd};

  SqoOptions by_name;
  by_name.disabled_passes.push_back("fd_rewrite");

  SqoReport with_fd = OptimizeProgram(p, ics).take();
  SqoReport name_off = PassManager(by_name).Run(p, ics).take();
  EXPECT_NE(Canon(with_fd.normalized.ToString()),
            Canon(name_off.normalized.ToString()));
}

TEST(PassManagerTest, TreeSkippedWithoutQueryPredicate) {
  Program p;
  p.AddRule(ParseRule("tc(X, Y) :- e(X, Y).").take());
  SqoReport report = PassManager().Run(p, {}).take();
  const PassRunInfo* tree_info = nullptr;
  for (const PassRunInfo& info : report.pass_runs) {
    if (info.name == "tree") tree_info = &info;
  }
  ASSERT_NE(tree_info, nullptr);
  EXPECT_TRUE(tree_info->skipped);
  EXPECT_FALSE(tree_info->disabled);
  EXPECT_FALSE(report.rewritten.rules().empty());
}

TEST(PassManagerTest, DisablingAdornDegradesToNormalizedProgram) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  SqoOptions options;
  options.disabled_passes.push_back("adorn");
  SqoReport report = PassManager(options).Run(p, ics).take();
  // No adornment: the tree is structurally skipped and the (normalized,
  // residue-annotated, pruned) input program is the rewriting.
  EXPECT_EQ(report.adorned_predicates, 0);
  EXPECT_EQ(report.tree_classes, 0);
  EXPECT_FALSE(report.rewritten.rules().empty());
  for (const PassRunInfo& info : report.pass_runs) {
    if (info.name == "adorn") EXPECT_TRUE(info.disabled);
    if (info.name == "tree") EXPECT_TRUE(info.skipped);
  }
}

TEST(PassManagerTest, UnknownDisabledPassIsInvalidArgument) {
  SqoOptions options;
  options.disabled_passes.push_back("typo");
  Result<SqoReport> report =
      PassManager(options).Run(MakeAbClosureProgram(), {MakeAbIc()});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("typo"), std::string::npos);
}

TEST(PassManagerTest, IsDisabledReflectsDisabledPasses) {
  SqoOptions options;
  options.disabled_passes = {"tree", "fd_rewrite", "prune"};
  PassManager manager(options);
  EXPECT_TRUE(manager.IsDisabled("tree"));
  EXPECT_TRUE(manager.IsDisabled("fd_rewrite"));
  EXPECT_TRUE(manager.IsDisabled("prune"));
  EXPECT_FALSE(manager.IsDisabled("residues"));
  EXPECT_FALSE(manager.IsDisabled("adorn"));
}

TEST(PassManagerTest, RunIntoExposesEngineAndTree) {
  PassManager manager;
  PassContext ctx;
  ASSERT_TRUE(
      manager.RunInto(MakeAbClosureProgram(), {MakeAbIc()}, &ctx).ok());
  ASSERT_NE(ctx.engine, nullptr);
  ASSERT_NE(ctx.tree, nullptr);
  EXPECT_EQ(static_cast<int>(ctx.engine->apreds().size()),
            ctx.report.adorned_predicates);
  EXPECT_EQ(static_cast<int>(ctx.tree->classes().size()),
            ctx.report.tree_classes);
}

TEST(PassManagerTest, ValidationErrorsKeepTheirCodes) {
  // IDB negation: rejected by the validate pass with kUnsupported.
  Program p = ParseProgram(R"(
    q(X) :- e(X, Y).
    p(X) :- e(X, Y), !q(Y).
    ?- p.
  )").take();
  Result<SqoReport> report = PassManager().Run(p, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace sqod
