#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "src/parser/lexer.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("p(X, 1) :- q(X), X >= -2.");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.value()) kinds.push_back(t.kind);
  std::vector<TokenKind> expected{
      TokenKind::kIdent,  TokenKind::kLParen, TokenKind::kVariable,
      TokenKind::kComma,  TokenKind::kInteger, TokenKind::kRParen,
      TokenKind::kImplies, TokenKind::kIdent, TokenKind::kLParen,
      TokenKind::kVariable, TokenKind::kRParen, TokenKind::kComma,
      TokenKind::kVariable, TokenKind::kGe, TokenKind::kInteger,
      TokenKind::kDot, TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("% a comment\np(X).\n% another");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().size(), 6u);  // ident ( var ) . eof
}

TEST(LexerTest, NegativeIntegers) {
  auto tokens = Tokenize("-42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].number, -42);
}

TEST(LexerTest, Strings) {
  auto tokens = Tokenize("p(\"hello world\").");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens.value()[2].text, "hello world");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("p(\"oops).").ok());
}

TEST(LexerTest, BadCharacterReportsPosition) {
  auto result = Tokenize("p(X) :- q(X);\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(LexerTest, BangVsNotEqual) {
  auto t1 = Tokenize("!q(X)");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value()[0].kind, TokenKind::kBang);
  auto t2 = Tokenize("X != Y");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value()[1].kind, TokenKind::kNe);
}

TEST(ParserTest, RuleRoundTrip) {
  Rule r = ParseRule("path(X, Y) :- step(X, Z), path(Z, Y), X < Y.").take();
  EXPECT_EQ(r.ToString(), "path(X, Y) :- step(X, Z), path(Z, Y), X < Y.");
}

TEST(ParserTest, NegatedLiteral) {
  Rule r = ParseRule("p(X) :- e(X), !blocked(X).").take();
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_TRUE(r.body[1].negated);
}

TEST(ParserTest, ConstraintWithComparison) {
  Constraint ic =
      ParseConstraint(":- startPoint(X), endPoint(Y), Y <= X.").take();
  EXPECT_EQ(ic.body.size(), 2u);
  ASSERT_EQ(ic.comparisons.size(), 1u);
  EXPECT_EQ(ic.comparisons[0].op, CmpOp::kLe);
}

TEST(ParserTest, UnitWithFactsRulesConstraintsQuery) {
  auto unit = ParseUnit(R"(
    % the Figure 1 example
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Y).
    p(X, Y) :- a(X, Z), p(Z, Y).
    p(X, Y) :- b(X, Z), p(Z, Y).
    :- a(X, Y), b(Y, Z).
    a(1, 2).
    b(2, 3).
    ?- p.
  )");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit.value().program.rules().size(), 4u);
  EXPECT_EQ(unit.value().constraints.size(), 1u);
  EXPECT_EQ(unit.value().facts.size(), 2u);
  EXPECT_EQ(unit.value().program.query(), InternPred("p"));
}

TEST(ParserTest, SymbolAndStringConstants) {
  Rule r = ParseRule("p(X) :- e(X, foo), e(X, \"bar baz\").").take();
  EXPECT_EQ(r.body[0].atom.arg(1), Term::Symbol("foo"));
  EXPECT_EQ(r.body[1].atom.arg(1), Term::Symbol("bar baz"));
}

TEST(ParserTest, ZeroArityAtoms) {
  auto unit = ParseUnit("halt :- reach(T).\n?- halt.");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit.value().program.rules()[0].head.arity(), 0);
}

TEST(ParserTest, NonGroundFactFails) {
  EXPECT_FALSE(ParseUnit("p(X).").ok());
}

TEST(ParserTest, ValidationRunsOnUnit) {
  // Unsafe rule: head variable Y unbound.
  EXPECT_FALSE(ParseUnit("p(X, Y) :- e(X).").ok());
}

TEST(ParserTest, ConstraintValidatedAgainstProgram) {
  // IC mentions an IDB predicate.
  EXPECT_FALSE(ParseUnit(R"(
    p(X) :- e(X).
    :- p(X).
  )").ok());
}

TEST(ParserTest, ComparisonBetweenConstants) {
  Rule r = ParseRule("p(X) :- e(X), 1 < 2.").take();
  ASSERT_EQ(r.comparisons.size(), 1u);
  EXPECT_EQ(r.comparisons[0].lhs, Term::Int(1));
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto result = ParseProgram("p(X) :- e(X)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line"), std::string::npos);
}

// Integer literals at both ends of int64 parse exactly; one past either
// end is an error with its position, never a wrapped value.
TEST(ParserTest, IntegerLiteralBounds) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::pair<const char*, int64_t> in_range[] = {
      {"9223372036854775807", kMax},
      {"9223372036854775806", kMax - 1},
      {"-9223372036854775808", kMin},
      {"-9223372036854775807", kMin + 1},
  };
  for (const auto& [text, want] : in_range) {
    Result<Rule> rule =
        ParseRule(std::string("p(X) :- e(X), X < ") + text + ".");
    ASSERT_TRUE(rule.ok()) << text << ": " << rule.status().message();
    EXPECT_EQ(rule.value().comparisons[0].rhs, Term::Int(want)) << text;
  }
  for (const char* text :
       {"9223372036854775808", "-9223372036854775809",
        "99999999999999999999999", "-99999999999999999999999"}) {
    Result<Rule> rule =
        ParseRule(std::string("p(X) :- e(X), X < ") + text + ".");
    ASSERT_FALSE(rule.ok()) << text;
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rule.status().message(),
              "integer literal out of range at line 1, column 19")
        << text;
  }
  Result<ParsedUnit> fact =
      ParseUnit("e(1, 99999999999999999999999).\n?- e.");
  ASSERT_FALSE(fact.ok());
  EXPECT_EQ(fact.status().message(),
            "integer literal out of range at line 1, column 6");
}

// The optimizer names its generated predicates p@<k> and p@<k>_n<class>;
// a unit that names one is rejected where the '@' stands, so it can never
// read or write a generated copy's tuples.
TEST(ParserTest, GeneratedPredicateNamesAreRejected) {
  Result<ParsedUnit> unit = ParseUnit(
      "p(X) :- e(X). q(X) :- p@0_n1(X). q(X) :- p(X), z(X).\n"
      "e(1). p@0_n1(7).\n"
      "?- q.\n");
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unit.status().message(),
            "unexpected character '@' at line 1, column 24");
  Result<ParsedUnit> fact = ParseUnit("p(X) :- e(X).\np@0(7).\n?- p.\n");
  ASSERT_FALSE(fact.ok());
  EXPECT_EQ(fact.status().message(),
            "unexpected character '@' at line 2, column 2");
}

TEST(ParserTest, AtomText) {
  Atom a = ParseAtomText("goodPath(X, Y)").take();
  EXPECT_EQ(a.pred(), InternPred("goodPath"));
  EXPECT_EQ(a.arity(), 2);
}

}  // namespace
}  // namespace sqod
