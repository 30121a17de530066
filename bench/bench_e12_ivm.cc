// Experiment E12 — incremental view maintenance vs recompute-from-scratch.
//
// Two workload families, each swept over database size x churn rate:
//
//  * Join2: q(X,Z) :- a(X,Y), b(Y,Z) over random graphs. Non-recursive,
//    so maintenance runs the counting algorithm (signed delta joins,
//    derivation-count updates).
//
//  * Tc: transitive closure over a forest of short chains with ~25%
//    shortcut edges. Recursive, so maintenance runs DRed; the shortcuts
//    create alternative derivations, making the rederivation phase do real
//    work instead of rubber-stamping every over-deletion.
//
// Every (size, churn) point is measured twice with identical seeds and
// hence identical delta sequences: BM_E12_Maintain* applies each batch
// through the incremental path (counting/DRed, fallback disabled), and
// BM_E12_Recompute* applies the same batches with force_recompute — the
// cost an engine without a maintenance layer pays per batch. The ratio is
// the E12 headline: scripts/compare_ivm.py pairs the entries and gates
// maintain >= 5x recompute at <=1% churn at the largest size (EXPERIMENTS.md).
//
// Batches alternate between a forward delta (delete k live edges, insert k
// fresh ones) and its inverse, so the database stays bounded, every batch
// nets to a real change, and the timing loop measures steady state. The
// churn argument is in per-mille of the edge count: 1 = 0.1%, 10 = 1%,
// 100 = 10%.

#include <benchmark/benchmark.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/eval/evaluator.h"
#include "src/eval/maintain.h"
#include "src/parser/parser.h"
#include "src/workload/graphs.h"

namespace sqod {
namespace {

constexpr char kJoin2Source[] =
    "q(X, Z) :- a(X, Y), b(Y, Z).\n"
    "?- q.\n";

constexpr char kTcSource[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
    "?- tc.\n";

Atom EdgeAtom(const char* pred, int u, int v) {
  return Atom(pred, {Term::Int(u), Term::Int(v)});
}

struct IvmWorkload {
  Program program;
  Database edb;
  FactDelta forward;   // delete k live edges, insert k fresh ones
  FactDelta backward;  // the exact inverse
  int edges = 0;
};

// Picks k spread-out victims from `live` and k fresh insertions from
// `candidates` (first k not already present), and builds the alternating
// forward/backward batches on `pred`.
void BuildChurn(const char* pred, const std::vector<std::pair<int, int>>& live,
                const std::vector<std::pair<int, int>>& candidates,
                const std::set<std::pair<int, int>>& present, int churn,
                IvmWorkload* w) {
  const int n = static_cast<int>(live.size());
  std::set<std::pair<int, int>> taken;
  for (int i = 0; i < churn; ++i) {
    const auto& e = live[static_cast<size_t>(i) * n / churn];
    if (!taken.insert(e).second) continue;
    w->forward.deletes.push_back(EdgeAtom(pred, e.first, e.second));
    w->backward.inserts.push_back(EdgeAtom(pred, e.first, e.second));
  }
  int fresh = 0;
  for (const auto& e : candidates) {
    if (fresh == churn) break;
    if (present.count(e) || !taken.insert(e).second) continue;
    w->forward.inserts.push_back(EdgeAtom(pred, e.first, e.second));
    w->backward.deletes.push_back(EdgeAtom(pred, e.first, e.second));
    ++fresh;
  }
  SQOD_CHECK_MSG(fresh == churn, "not enough fresh churn edges");
}

// Random graphs a and b of 4*nodes edges each; churn lands on `a`.
IvmWorkload MakeJoin2Workload(int nodes, int churn_per_mille) {
  IvmWorkload w;
  Result<Program> program = ParseProgram(kJoin2Source);
  SQOD_CHECK_MSG(program.ok(), program.status().message().c_str());
  w.program = program.take();
  Rng rng(20260808u + 31u * static_cast<unsigned>(nodes) +
          static_cast<unsigned>(churn_per_mille));
  const int edges = 4 * nodes;
  auto random_edges = [&](const char* pred, std::set<std::pair<int, int>>* out,
                          std::vector<std::pair<int, int>>* order) {
    while (static_cast<int>(out->size()) < edges) {
      std::pair<int, int> e(static_cast<int>(rng() % nodes),
                            static_cast<int>(rng() % nodes));
      if (!out->insert(e).second) continue;
      if (order != nullptr) order->push_back(e);
      w.edb.InsertAtom(EdgeAtom(pred, e.first, e.second));
    }
  };
  std::set<std::pair<int, int>> a_set, b_set;
  std::vector<std::pair<int, int>> a_edges;
  random_edges("a", &a_set, &a_edges);
  random_edges("b", &b_set, nullptr);
  w.edges = 2 * edges;
  const int churn = std::max(1, w.edges * churn_per_mille / 1000);
  std::vector<std::pair<int, int>> candidates;
  for (int i = 0; i < churn * 4; ++i) {
    candidates.emplace_back(static_cast<int>(rng() % nodes),
                            static_cast<int>(rng() % nodes));
  }
  BuildChurn("a", a_edges, candidates, a_set, churn, &w);
  return w;
}

// A forest of nodes/8 chains, 8 nodes each, plus a ~25% sprinkle of
// (i, i+2) shortcuts so deleted chain edges are often rederivable. Fresh
// churn edges are (i, i+3) hops inside a random chain. Chains are short
// on purpose: a deleted edge's over-deletion cone is O(chain_len^2)
// tuples while the recompute baseline pays the whole closure, so the
// chain length sets where maintain-vs-recompute lands — the E12 claim is
// about churn locality, not about maintaining dense global closures
// (where DRed's cone approaches the database and the recompute fallback
// is the right call anyway).
IvmWorkload MakeTcWorkload(int nodes, int churn_per_mille) {
  constexpr int kChainLen = 8;
  IvmWorkload w;
  Result<Program> program = ParseProgram(kTcSource);
  SQOD_CHECK_MSG(program.ok(), program.status().message().c_str());
  w.program = program.take();
  Rng rng(20260808u + 37u * static_cast<unsigned>(nodes) +
          static_cast<unsigned>(churn_per_mille));
  const int chains = std::max(1, nodes / kChainLen);
  std::set<std::pair<int, int>> present;
  std::vector<std::pair<int, int>> order;
  auto add = [&](int u, int v) {
    if (!present.insert({u, v}).second) return;
    order.emplace_back(u, v);
    w.edb.InsertAtom(EdgeAtom("edge", u, v));
  };
  for (int c = 0; c < chains; ++c) {
    const int base = c * kChainLen;
    for (int i = 0; i < kChainLen - 1; ++i) {
      add(base + i, base + i + 1);
      if (i < kChainLen - 2 && rng() % 4 == 0) add(base + i, base + i + 2);
    }
  }
  w.edges = static_cast<int>(order.size());
  const int churn = std::max(1, w.edges * churn_per_mille / 1000);
  std::vector<std::pair<int, int>> candidates;
  for (int i = 0; i < churn * 8; ++i) {
    const int base = static_cast<int>(rng() % chains) * kChainLen;
    const int from = static_cast<int>(rng() % (kChainLen - 3));
    candidates.emplace_back(base + from, base + from + 3);
  }
  BuildChurn("edge", order, candidates, present, churn, &w);
  return w;
}

// Materializes the workload's IDB, then applies the alternating churn
// batches once per benchmark iteration — incrementally, or through the
// full-recompute path when `force_recompute` is set.
void RunChurn(benchmark::State& state, const IvmWorkload& w,
              bool force_recompute) {
  Result<CompiledProgram> compiled = CompileProgram(w.program);
  SQOD_CHECK_MSG(compiled.ok(), compiled.status().message().c_str());
  const MaintenancePlan plan =
      BuildMaintenancePlan(w.program, compiled.value());
  Result<MaterializedState> materialized =
      MaterializeState(w.program, compiled.value(), plan, w.edb);
  SQOD_CHECK_MSG(materialized.ok(),
                 materialized.status().message().c_str());
  MaterializedState ms = materialized.take();

  ApplyDeltaOptions options;
  options.force_recompute = force_recompute;
  options.recompute_fraction = 1e9;  // pair stays pure: no silent fallback

  MaintainStats totals;
  bool flip = false;
  int64_t batches = 0;
  for (auto _ : state) {
    const FactDelta& delta = flip ? w.backward : w.forward;
    flip = !flip;
    Result<MaintainStats> stats =
        ApplyDeltaToState(w.program, compiled.value(), plan, delta, options,
                          &ms);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().message().c_str());
      return;
    }
    totals.Accumulate(stats.value());
    ++batches;
  }
  if (batches == 0) return;
  state.SetItemsProcessed(batches);
  state.counters["edb_edges"] = w.edges;
  state.counters["churn_edges"] =
      static_cast<double>(w.forward.inserts.size() + w.forward.deletes.size());
  state.counters["idb_delta_per_batch"] = static_cast<double>(
      (totals.idb_inserted + totals.idb_deleted) / batches);
  state.counters["over_del_ratio"] = totals.over_deletion_ratio();
  state.counters["recomputed_strata"] =
      static_cast<double>(totals.strata_recomputed);
}

void BM_E12_MaintainJoin2(benchmark::State& state) {
  RunChurn(state,
           MakeJoin2Workload(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1))),
           /*force_recompute=*/false);
}

void BM_E12_RecomputeJoin2(benchmark::State& state) {
  RunChurn(state,
           MakeJoin2Workload(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1))),
           /*force_recompute=*/true);
}

void BM_E12_MaintainTc(benchmark::State& state) {
  RunChurn(state,
           MakeTcWorkload(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1))),
           /*force_recompute=*/false);
}

void BM_E12_RecomputeTc(benchmark::State& state) {
  RunChurn(state,
           MakeTcWorkload(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1))),
           /*force_recompute=*/true);
}

// Args: {nodes, churn per-mille}. 1 = 0.1% churn, 10 = 1%, 100 = 10%.
BENCHMARK(BM_E12_MaintainJoin2)
    ->ArgsProduct({{256, 1024, 4096}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E12_RecomputeJoin2)
    ->ArgsProduct({{256, 1024, 4096}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E12_MaintainTc)
    ->ArgsProduct({{256, 1024, 4096}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E12_RecomputeTc)
    ->ArgsProduct({{256, 1024, 4096}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod
