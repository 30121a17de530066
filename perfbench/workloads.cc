// Seeded input generators for the three workloads, and their oracles.
//
// Every input is a function of the seed alone: the same seed gives the same
// units, batches and pick streams, which OpSequenceDigest fingerprints.

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "perfbench/bench.h"
#include "src/base/check.h"
#include "src/cq/ic_check.h"
#include "src/engine/engine.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"

namespace perfbench {

using namespace sqod;

uint64_t Fnv(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t AnswerDigest(const std::vector<Tuple>& answers) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) { h = Mix64(h ^ x); };
  mix(answers.size());
  for (const Tuple& t : answers) {
    mix(t.size());
    for (const Value& v : t) {
      if (v.is_int()) {
        mix(static_cast<uint64_t>(v.as_int()));
      } else {
        mix(Fnv(v.symbol_name()) ^ 0x5bd1e995u);
      }
    }
  }
  return h;
}

const Batch& ViewSession::BatchFor(int64_t index) const {
  const int64_t k = (index / 2) % static_cast<int64_t>(forward.size());
  return index % 2 == 0 ? forward[k] : backward[k];
}

const Expected& ViewSession::ExpectedAt(int64_t version) const {
  if (version % 2 == 0) return base;
  const int64_t k = ((version - 1) / 2) % static_cast<int64_t>(forward.size());
  return after_forward[k];
}

bool ParseKind(const std::string& name, Kind* kind) {
  if (name == "cold-optimize") {
    *kind = Kind::kColdOptimize;
  } else if (name == "oneshot-eval") {
    *kind = Kind::kOneshotEval;
  } else if (name == "view-churn") {
    *kind = Kind::kViewChurn;
  } else {
    return false;
  }
  return true;
}

int Pick(uint64_t seed, int stream, int64_t i, int n) {
  // Each block of n consecutive picks is a seeded permutation of 0..n-1
  // (Fisher-Yates), so every stream issues each choice equally often.
  const int64_t block = i / n;
  uint64_t state = Mix64(seed ^ Mix64(0x9e37u + static_cast<uint64_t>(stream)) ^
                         Mix64(static_cast<uint64_t>(block)));
  std::vector<int> perm(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) perm[static_cast<size_t>(k)] = k;
  for (int k = n - 1; k > 0; --k) {
    state = Mix64(state);
    std::swap(perm[static_cast<size_t>(k)],
              perm[static_cast<size_t>(state % static_cast<uint64_t>(k + 1))]);
  }
  return perm[static_cast<size_t>(i % n)];
}

namespace {

Term V(const std::string& name) { return Term::Var(name); }

// Renders `db` as sorted fact lines, so the text does not depend on hash
// iteration order.
std::string FactsText(const Database& db) {
  std::vector<std::string> lines;
  for (const auto& [pred, rel] : db.relations()) {
    for (TupleRef t : rel.rows()) {
      std::string line = PredName(pred) + "(";
      for (int i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += t[i].ToString();
      }
      line += ").";
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string UnitText(const Program& program,
                     const std::vector<Constraint>& ics, const Database& db) {
  std::string out = program.ToString();
  for (const Constraint& ic : ics) {
    out += ic.ToString();
    out += '\n';
  }
  out += FactsText(db);
  return out;
}

int Uniform(Rng* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

// The Figure-1 a/b closure with one IC forbidding an alternating a/b chain
// of `width` edges; its EDB is random a/b edges kept only while the IC
// holds.
Unit MakeWideUnit(int width, Rng* rng) {
  Program program = MakeAbClosureProgram();
  Constraint ic;
  for (int i = 0; i < width; ++i) {
    ic.body.push_back(Literal::Pos(
        Atom(i % 2 == 0 ? "a" : "b",
             {V("V" + std::to_string(i)), V("V" + std::to_string(i + 1))})));
  }
  std::vector<Constraint> ics = {ic};
  Database db;
  const int nodes = Uniform(rng, 12, 24);
  const int edges = Uniform(rng, 20, 50);
  for (int tries = 0; db.TotalTuples() < edges && tries < edges * 20;
       ++tries) {
    Atom fact(Uniform(rng, 0, 1) == 0 ? "a" : "b",
              {Term::Int(Uniform(rng, 0, nodes - 1)),
               Term::Int(Uniform(rng, 0, nodes - 1))});
    if (!db.InsertAtom(fact)) continue;
    if (!SatisfiesAll(db, ics)) db.EraseAtom(fact);
  }
  return {"wide" + std::to_string(width), UnitText(program, ics, db), {}};
}

Unit MakeColoredUnit(int colors, int num_ics, Rng* rng) {
  ColoredClosure cc = MakeColoredClosure(colors, num_ics, rng);
  Database db = MakeColoredEdges(colors, Uniform(rng, 12, 24),
                                 Uniform(rng, 20, 50), cc.ics, rng);
  return {"colored" + std::to_string(colors),
          UnitText(cc.program, cc.ics, db), {}};
}

Unit MakeRandomUnit(int colors, int num_ics, Rng* rng) {
  RandomProgram rp = MakeRandomProgram(colors, Uniform(rng, 2, 4),
                                       Uniform(rng, 2, 6), num_ics, rng);
  Database db = MakeColoredEdges(colors, Uniform(rng, 12, 24),
                                 Uniform(rng, 20, 50), rp.ics, rng);
  return {"random", UnitText(rp.program, rp.ics, db), {}};
}

Unit MakeGoodPathUnit(int nodes, int edges, int ends, int threshold,
                      Rng* rng) {
  GoodPathConfig config;
  config.nodes = nodes;
  config.edges = edges;
  config.num_start = ends;
  config.num_end = ends;
  config.threshold = threshold;
  Database db = MakeGoodPathWorkload(config, rng);
  return {"goodpath", UnitText(MakeGoodPathProgram(),
                               MakeMonotoneIcs(threshold), db), {}};
}

// The i-th cold unit. Families and their size parameters cycle through a
// fixed grid, so every seed sends the same mix; the seed only varies the
// ICs picked and the facts.
Unit MakeColdUnit(int64_t i, Rng* rng) {
  const int64_t cell = i / 4;
  switch (i % 4) {
    case 0:
      return MakeColoredUnit(2 + static_cast<int>(cell % 3),
                             1 + static_cast<int>((cell / 3) % 5), rng);
    case 1:
      return MakeWideUnit(2 + static_cast<int>(cell % 3), rng);
    case 2:
      return MakeRandomUnit(2 + static_cast<int>(cell % 2),
                            1 + static_cast<int>((cell / 2) % 3), rng);
    default:
      return MakeGoodPathUnit(40, 35, 5, Uniform(rng, 5, 35), rng);
  }
}

// Fills `out` with `count` units whose sources were never generated before
// (`seen` holds the source digests already used).
void MakeColdUnits(int64_t count, Rng* rng, std::set<uint64_t>* seen,
                   std::vector<Unit>* out) {
  for (int64_t i = 0; i < count; ++i) {
    for (int attempt = 0;; ++attempt) {
      SQOD_CHECK_MSG(attempt < 1000, "cannot generate a distinct unit");
      Unit unit = MakeColdUnit(i, rng);
      if (!seen->insert(Fnv(unit.source)).second) continue;
      out->push_back(std::move(unit));
      break;
    }
  }
}

// The Figure-1 chain of E13: b-edges 0..nodes/2, a-edges after it.
std::string Figure1Source(int nodes) {
  std::ostringstream out;
  out << "p(X, Y) :- a(X, Y).\n"
         "p(X, Y) :- b(X, Y).\n"
         "p(X, Y) :- a(X, Z), p(Z, Y).\n"
         "p(X, Y) :- b(X, Z), p(Z, Y).\n"
         ":- a(X, Y), b(Y, Z).\n";
  const int half = nodes / 2;
  for (int i = 0; i < half; ++i) out << "b(" << i << ", " << i + 1 << ").\n";
  for (int i = half; i < nodes - 1; ++i) {
    out << "a(" << i << ", " << i + 1 << ").\n";
  }
  out << "?- p.\n";
  return out.str();
}

std::vector<Unit> MakeOneshotPool(bool small, Rng* rng) {
  std::vector<Unit> pool;
  const int nodes = small ? 200 : 1000;
  for (int pct : {0, 30, 60, 90}) {
    Unit unit = MakeGoodPathUnit(nodes, nodes * 3, 25, nodes * pct / 100, rng);
    unit.family = "goodpath" + std::to_string(pct);
    pool.push_back(std::move(unit));
  }
  pool.push_back({"figure1", Figure1Source(small ? 32 : 128), {}});
  // The ICs are fixed and only the edges are seeded: which compositions are
  // forbidden changes the closure size several-fold, the edges far less.
  Rng fixed_ics(20261016u);
  ColoredClosure cc = MakeColoredClosure(3, 1, &fixed_ics);
  const int cc_nodes = small ? 40 : 150;
  Database db = MakeColoredEdges(3, cc_nodes, cc_nodes * 3, cc.ics, rng);
  pool.push_back({"colored3", UnitText(cc.program, cc.ics, db), {}});
  return pool;
}

std::string EdgeFact(const char* pred, int u, int v) {
  return std::string(pred) + "(" + std::to_string(u) + ", " +
         std::to_string(v) + ")";
}

// Builds `batches` forward/backward pairs on `pred`: each forward deletes
// `churn` live edges and inserts `churn` fresh ones from `fresh`.
void MakeChurn(const char* pred, const std::vector<std::pair<int, int>>& live,
               const std::set<std::pair<int, int>>& present,
               const std::vector<std::pair<int, int>>& fresh, int churn,
               int batches, Rng* rng, ViewSession* s) {
  for (int k = 0; k < batches; ++k) {
    Batch fwd;
    Batch bwd;
    std::set<std::pair<int, int>> taken;
    while (static_cast<int>(fwd.deletes.size()) < churn) {
      const auto& e = live[static_cast<size_t>(
          Uniform(rng, 0, static_cast<int>(live.size()) - 1))];
      if (!taken.insert(e).second) continue;
      fwd.deletes.push_back(EdgeFact(pred, e.first, e.second));
      bwd.inserts.push_back(EdgeFact(pred, e.first, e.second));
    }
    while (static_cast<int>(fwd.inserts.size()) < churn) {
      const auto& e = fresh[static_cast<size_t>(
          Uniform(rng, 0, static_cast<int>(fresh.size()) - 1))];
      if (present.count(e) > 0 || !taken.insert(e).second) continue;
      fwd.inserts.push_back(EdgeFact(pred, e.first, e.second));
      bwd.deletes.push_back(EdgeFact(pred, e.first, e.second));
    }
    s->forward.push_back(std::move(fwd));
    s->backward.push_back(std::move(bwd));
  }
}

// E12's recursive family: a forest of 8-node chains with ~25% (i, i+2)
// shortcuts, maintained by DRed. Fresh edges are (i, i+3) hops in a chain.
ViewSession MakeTcSession(int nodes, int batches, Rng* rng) {
  constexpr int kChainLen = 8;
  ViewSession s;
  s.name = "tc";
  std::string text =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "?- tc.\n";
  const int chains = std::max(1, nodes / kChainLen);
  std::set<std::pair<int, int>> present;
  std::vector<std::pair<int, int>> live;
  auto add = [&](int u, int v) {
    if (!present.insert({u, v}).second) return;
    live.emplace_back(u, v);
    text += EdgeFact("edge", u, v) + ".\n";
  };
  for (int c = 0; c < chains; ++c) {
    const int base = c * kChainLen;
    for (int i = 0; i < kChainLen - 1; ++i) {
      add(base + i, base + i + 1);
      if (i < kChainLen - 2 && Uniform(rng, 0, 3) == 0) add(base + i, base + i + 2);
    }
  }
  std::vector<std::pair<int, int>> fresh;
  for (int c = 0; c < chains; ++c) {
    for (int i = 0; i + 3 < kChainLen; ++i) {
      fresh.emplace_back(c * kChainLen + i, c * kChainLen + i + 3);
    }
  }
  const int churn = std::max(1, static_cast<int>(live.size()) / 100);
  MakeChurn("edge", live, present, fresh, churn, batches, rng, &s);
  s.source = std::move(text);
  return s;
}

// E12's non-recursive family: q(X, Z) :- a(X, Y), b(Y, Z) over random
// graphs, maintained by counting. Churn lands on `a`.
ViewSession MakeJoin2Session(int nodes, int batches, Rng* rng) {
  ViewSession s;
  s.name = "join2";
  std::string text =
      "q(X, Z) :- a(X, Y), b(Y, Z).\n"
      "?- q.\n";
  const int edges = 4 * nodes;
  std::set<std::pair<int, int>> a_set;
  std::set<std::pair<int, int>> b_set;
  std::vector<std::pair<int, int>> a_live;
  while (static_cast<int>(a_set.size()) < edges) {
    std::pair<int, int> e(Uniform(rng, 0, nodes - 1), Uniform(rng, 0, nodes - 1));
    if (!a_set.insert(e).second) continue;
    a_live.push_back(e);
    text += EdgeFact("a", e.first, e.second) + ".\n";
  }
  while (static_cast<int>(b_set.size()) < edges) {
    std::pair<int, int> e(Uniform(rng, 0, nodes - 1), Uniform(rng, 0, nodes - 1));
    if (!b_set.insert(e).second) continue;
    text += EdgeFact("b", e.first, e.second) + ".\n";
  }
  std::vector<std::pair<int, int>> fresh;
  for (int i = 0; i < edges; ++i) {
    fresh.emplace_back(Uniform(rng, 0, nodes - 1), Uniform(rng, 0, nodes - 1));
  }
  const int churn = std::max(1, 2 * edges / 100);
  MakeChurn("a", a_live, a_set, fresh, churn, batches, rng, &s);
  s.source = std::move(text);
  return s;
}

}  // namespace

Workload MakeWorkload(Kind kind, uint64_t seed, bool small,
                      int64_t cold_units) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(kind));
  switch (kind) {
    case Kind::kColdOptimize: {
      w.name = "cold-optimize";
      std::set<uint64_t> seen;
      MakeColdUnits(cold_units, &rng, &seen, &w.units);
      MakeColdUnits(small ? 8 : kColdSampleUnits, &rng, &seen,
                    &w.sample_units);
      break;
    }
    case Kind::kOneshotEval:
      w.name = "oneshot-eval";
      w.units = MakeOneshotPool(small, &rng);
      break;
    case Kind::kViewChurn:
      w.name = "view-churn";
      w.sessions.push_back(MakeTcSession(small ? 64 : 512, 32, &rng));
      w.sessions.push_back(MakeJoin2Session(small ? 32 : 128, 32, &rng));
      break;
  }
  return w;
}

namespace {

Expected Evaluate(Session* session, const Database& edb) {
  Result<std::vector<Tuple>> answers = session->ExecuteOriginal(edb);
  SQOD_CHECK_MSG(answers.ok(), answers.status().message().c_str());
  return {AnswerDigest(answers.value()),
          static_cast<int64_t>(answers.value().size())};
}

}  // namespace

void ApplyBatchText(const Batch& batch, Database* db) {
  for (const std::string& text : batch.deletes) {
    db->EraseAtom(ParseAtomText(text).value());
  }
  for (const std::string& text : batch.inserts) {
    db->InsertAtom(ParseAtomText(text).value());
  }
}

void ComputeOracles(Workload* w) {
  Engine engine;
  auto oracle = [&engine](Unit* unit) {
    Result<Session> session = engine.Open(unit->source);
    SQOD_CHECK_MSG(session.ok(), session.status().message().c_str());
    Session& s = session.value();
    SQOD_CHECK_MSG(SatisfiesAll(s.MakeEdb(), s.ics()),
                   "generated facts violate the unit's ICs");
    unit->expected = Evaluate(&s, s.MakeEdb());
  };
  for (Unit& unit : w->units) oracle(&unit);
  for (Unit& unit : w->sample_units) oracle(&unit);
  for (ViewSession& vs : w->sessions) {
    Result<Session> session = engine.Open(vs.source);
    SQOD_CHECK_MSG(session.ok(), session.status().message().c_str());
    Session& s = session.value();
    const Database base = s.MakeEdb();
    vs.base = Evaluate(&s, base);
    vs.after_forward.clear();
    for (const Batch& fwd : vs.forward) {
      Database edb = base;
      ApplyBatchText(fwd, &edb);
      vs.after_forward.push_back(Evaluate(&s, edb));
    }
  }
}

uint64_t OpSequenceDigest(const Workload& w, int connections) {
  uint64_t h = Fnv(w.name);
  for (const Unit& unit : w.units) h = Fnv(unit.source, h);
  for (const Unit& unit : w.sample_units) h = Fnv(unit.source, h);
  for (const ViewSession& s : w.sessions) {
    h = Fnv(s.source, h);
    for (size_t k = 0; k < s.forward.size(); ++k) {
      for (const Batch* b : {&s.forward[k], &s.backward[k]}) {
        for (const std::string& f : b->deletes) h = Fnv("-" + f, h);
        for (const std::string& f : b->inserts) h = Fnv("+" + f, h);
      }
    }
  }
  const int n = w.kind == Kind::kOneshotEval
                    ? static_cast<int>(w.units.size())
                    : static_cast<int>(w.sessions.size());
  if (w.kind != Kind::kColdOptimize) {
    for (int c = 0; c < connections; ++c) {
      for (int64_t i = 0; i < 4096; ++i) {
        h = Mix64(h ^ static_cast<uint64_t>(Pick(w.seed, c, i, n)));
      }
    }
  }
  return h;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail Summarize(std::vector<double> values) {
  Tail t;
  t.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  auto at = [&values](double q) {
    // Nearest-rank percentile.
    size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    return values[rank];
  };
  t.p50 = at(0.5);
  // Highest percentile in {99, 98, ..., 50} with >= 10 samples beyond it.
  t.high_pct = 50;
  t.high = t.p50;
  for (int pct = 99; pct >= 50; --pct) {
    const double beyond = static_cast<double>(values.size()) * (100 - pct) / 100;
    if (beyond >= 10) {
      t.high_pct = pct;
      t.high = at(pct / 100.0);
      break;
    }
  }
  return t;
}

}  // namespace perfbench
