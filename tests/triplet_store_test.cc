#include "src/sqo/triplet_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/ast/match_memo.h"
#include "src/ast/unify.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

// A small pool of distinct triplets exercising every identity dimension:
// ic_index, unmapped set, sigma keys, sigma images (positions vs constant).
std::vector<Triplet> SampleTriplets() {
  VarId x = Term::Var("X").var();
  VarId y = Term::Var("Y").var();
  std::vector<Triplet> out;
  for (int ic = 0; ic < 2; ++ic) {
    for (const std::vector<int>& unmapped :
         {std::vector<int>{}, std::vector<int>{0}, std::vector<int>{0, 1}}) {
      Triplet t;
      t.ic_index = ic;
      t.unmapped = unmapped;
      out.push_back(t);
      t.sigma.emplace(x, VarImage::AtPositions({0}));
      out.push_back(t);
      t.sigma.emplace(y, VarImage::AtPositions({1, 2}));
      out.push_back(t);
    }
    Triplet c;
    c.ic_index = ic;
    c.unmapped = {1};
    c.sigma.emplace(x, VarImage::Constant(Value::Int(7)));
    out.push_back(c);
  }
  return out;
}

// operator< must be a strict weak ordering whose induced equivalence is
// exactly operator== (the interner's correctness rests on this agreement).
TEST(TripletOrderingTest, LessAndEqualsAgree) {
  std::vector<Triplet> pool = SampleTriplets();
  for (const Triplet& a : pool) {
    EXPECT_FALSE(a < a);  // irreflexive
    for (const Triplet& b : pool) {
      const bool eq = a == b;
      const bool lt = a < b;
      const bool gt = b < a;
      EXPECT_FALSE(lt && gt);            // asymmetric
      EXPECT_EQ(eq, !lt && !gt);         // equivalence == equality
      if (eq) EXPECT_EQ(a.Hash(), b.Hash());
    }
  }
}

TEST(TripletOrderingTest, LessIsTransitiveOnSample) {
  std::vector<Triplet> pool = SampleTriplets();
  for (const Triplet& a : pool) {
    for (const Triplet& b : pool) {
      for (const Triplet& c : pool) {
        if (a < b && b < c) EXPECT_TRUE(a < c);
      }
    }
  }
}

TEST(AdornmentCanonicalizationTest, IdempotentAndOrderInsensitive) {
  std::vector<Triplet> pool = SampleTriplets();
  Adornment adorned(pool.begin(), pool.begin() + 5);
  adorned.push_back(pool[2]);  // duplicate
  CanonicalizeAdornment(&adorned);
  Adornment once = adorned;
  CanonicalizeAdornment(&adorned);
  EXPECT_EQ(AdornmentKey(once), AdornmentKey(adorned));  // idempotent

  // Any permutation of the same triplets canonicalizes to the same form.
  Adornment shuffled(pool.begin(), pool.begin() + 5);
  std::reverse(shuffled.begin(), shuffled.end());
  shuffled.insert(shuffled.begin(), pool[2]);
  CanonicalizeAdornment(&shuffled);
  EXPECT_EQ(AdornmentKey(once), AdornmentKey(shuffled));
}

// Equal values intern to equal ids no matter when or in what order they
// arrive, and an id always resolves back to the value it was minted for.
TEST(TripletStoreTest, InternIdsStableAcrossInsertionOrders) {
  std::vector<Triplet> pool = SampleTriplets();
  TripletStore store;
  std::vector<TripletId> first;
  for (const Triplet& t : pool) first.push_back(store.InternTriplet(t));
  // Re-intern in reverse: every id must match the first round.
  for (size_t i = pool.size(); i-- > 0;) {
    EXPECT_EQ(store.InternTriplet(pool[i]), first[i]);
    EXPECT_EQ(store.triplet(first[i]), pool[i]);
  }
  // Distinct values got distinct ids.
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      EXPECT_EQ(first[i] == first[j], pool[i] == pool[j]);
    }
  }
  // A second store seeded in reverse order mints different ids but induces
  // the same equalities.
  TripletStore reversed;
  std::vector<TripletId> second(pool.size());
  for (size_t i = pool.size(); i-- > 0;) {
    second[i] = reversed.InternTriplet(pool[i]);
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < pool.size(); ++j) {
      EXPECT_EQ(first[i] == first[j], second[i] == second[j]);
    }
  }
}

TEST(TripletStoreTest, AdornmentIdIgnoresPresentationOrder) {
  std::vector<Triplet> pool = SampleTriplets();
  Adornment a(pool.begin(), pool.begin() + 4);
  Adornment b(a.rbegin(), a.rend());
  CanonicalizeAdornment(&a);
  CanonicalizeAdornment(&b);
  TripletStore store;
  EXPECT_EQ(store.InternAdornment(a), store.InternAdornment(b));
}

TEST(TripletStoreTest, RuleTripletIdIgnoresProvenance) {
  RuleTriplet t;
  t.ic_index = 0;
  t.unmapped = {0, 2};
  t.sigma.emplace(Term::Var("X").var(), Term::Var("U"));
  RuleTriplet u = t;
  u.sources = {1, -1, 0};
  TripletStore store;
  RuleTripletId id = store.InternRuleTriplet(t);
  EXPECT_EQ(store.InternRuleTriplet(u), id);
  EXPECT_TRUE(store.rule_triplet(id).sources.empty());
}

// The merge combinator intersects the unmapped sets, unions the sigmas,
// rejects a sigma conflict, and answers a repeated call with the same id.
TEST(TripletStoreTest, MergeComposesAndRejectsConflicts) {
  VarId x = Term::Var("X").var();
  VarId y = Term::Var("Y").var();
  RuleTriplet a;
  a.ic_index = 0;
  a.unmapped = {0, 1};
  a.sigma.emplace(x, Term::Var("U"));
  RuleTriplet b;
  b.ic_index = 0;
  b.unmapped = {1, 2};
  b.sigma.emplace(y, Term::Var("V"));
  RuleTriplet clash;
  clash.ic_index = 0;
  clash.unmapped = {1};
  clash.sigma.emplace(x, Term::Var("W"));

  TripletStore store;
  RuleTripletId ia = store.InternRuleTriplet(a);
  RuleTripletId ib = store.InternRuleTriplet(b);
  RuleTripletId ic = store.InternRuleTriplet(clash);
  int32_t merged = store.MergeRuleTriplets(ia, ib);
  ASSERT_GE(merged, 0);
  const RuleTriplet& m = store.rule_triplet(merged);
  EXPECT_EQ(m.unmapped, std::vector<int>{1});
  EXPECT_EQ(m.sigma.size(), 2u);
  // X is already bound to U in `a`; `clash` rebinds it to W. The cached
  // verdict answers the repeat.
  EXPECT_EQ(store.MergeRuleTriplets(ia, ic), TripletStore::kIncompatible);
  EXPECT_EQ(store.MergeRuleTriplets(ia, ic), TripletStore::kIncompatible);
  // Repeating the call gives the same id.
  EXPECT_EQ(store.MergeRuleTriplets(ia, ib), merged);
}

// ComputeMatchDelta + ApplyMatchDelta must agree with MatchInto, which the
// delta-driven enumerations (EDB base triplets, residues, homomorphisms)
// substitute for it.
TEST(AtomMatchMemoTest, DeltaCompositionEqualsMatchInto) {
  std::vector<std::pair<const char*, const char*>> cases = {
      {"e(X, Y)", "e(a, b)"},     {"e(X, X)", "e(a, a)"},
      {"e(X, X)", "e(a, b)"},     {"e(c, Y)", "e(c, d)"},
      {"e(c, Y)", "e(d, d)"},     {"e(X, Y)", "f(a, b)"},
      {"e(X, Y, Z)", "e(a, b)"},
  };
  for (const auto& [ps, ts] : cases) {
    Atom pattern = ParseAtomText(ps).take();
    Atom target = ParseAtomText(ts).take();
    Substitution direct;
    bool direct_ok = MatchInto(pattern, target, &direct);
    MatchDelta delta = ComputeMatchDelta(pattern, target);
    Substitution via;
    bool via_ok = ApplyMatchDelta(delta, &via);
    EXPECT_EQ(direct_ok, via_ok) << ps << " -> " << ts;
    if (direct_ok) {
      EXPECT_EQ(direct.ToString(), via.ToString()) << ps << " -> " << ts;
    }
  }
}

// Memoized matches return the identical delta object on repeat lookups.
TEST(AtomMatchMemoTest, MatchIsMemoized) {
  AtomMatchMemo memo;
  AtomId p = memo.Intern(ParseAtomText("e(X, Y)").take());
  AtomId t = memo.Intern(ParseAtomText("e(a, b)").take());
  const MatchDelta& first = memo.Match(p, t);
  const MatchDelta& again = memo.Match(p, t);
  EXPECT_EQ(&first, &again);
  EXPECT_TRUE(first.ok);
  EXPECT_GT(memo.memo_hits(), 0);
}

TEST(TripletStoreTest, StatsCountHitsAndMisses) {
  TripletStore store;
  Triplet t;
  t.ic_index = 0;
  t.unmapped = {0};
  store.InternTriplet(t);
  store.InternTriplet(t);
  TripletStore::Stats s = store.stats();
  EXPECT_EQ(s.intern_misses, 1);
  EXPECT_EQ(s.intern_hits, 1);
  EXPECT_EQ(s.size, 1);
}

}  // namespace
}  // namespace sqod
