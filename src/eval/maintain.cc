#include "src/eval/maintain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "src/base/check.h"
#include "src/obs/trace.h"

namespace sqod {

void MaintainStats::Accumulate(const MaintainStats& other) {
  version = other.version;
  recomputed = other.recomputed;
  edb_inserted += other.edb_inserted;
  edb_deleted += other.edb_deleted;
  idb_inserted += other.idb_inserted;
  idb_deleted += other.idb_deleted;
  over_deleted += other.over_deleted;
  rederived += other.rederived;
  count_updates += other.count_updates;
  strata_incremental += other.strata_incremental;
  strata_recomputed += other.strata_recomputed;
  strata_skipped += other.strata_skipped;
  maintain_ns += other.maintain_ns;
}

std::string MaintainStats::ToString() const {
  std::string out;
  out += "version=" + std::to_string(version);
  out += recomputed ? " mode=recompute" : " mode=incremental";
  out += " edb=+" + std::to_string(edb_inserted) + "/-" +
         std::to_string(edb_deleted);
  out += " idb=+" + std::to_string(idb_inserted) + "/-" +
         std::to_string(idb_deleted);
  out += " over_deleted=" + std::to_string(over_deleted);
  out += " rederived=" + std::to_string(rederived);
  out += " count_updates=" + std::to_string(count_updates);
  out += " strata=" + std::to_string(strata_incremental) + "i/" +
         std::to_string(strata_recomputed) + "r/" +
         std::to_string(strata_skipped) + "s";
  return out;
}

std::string MaintainStats::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "v%lld %s edb +%lld/-%lld idb +%lld/-%lld overdel %lld "
                "rederived %lld (ratio %.2f) strata %di/%dr/%ds",
                static_cast<long long>(version),
                recomputed ? "recompute" : "maintain",
                static_cast<long long>(edb_inserted),
                static_cast<long long>(edb_deleted),
                static_cast<long long>(idb_inserted),
                static_cast<long long>(idb_deleted),
                static_cast<long long>(over_deleted),
                static_cast<long long>(rederived), over_deletion_ratio(),
                strata_incremental, strata_recomputed, strata_skipped);
  return buf;
}

MaintenancePlan BuildMaintenancePlan(const Program& program,
                                     const CompiledProgram& compiled) {
  MaintenancePlan plan;
  plan.max_regs = compiled.max_regs;
  plan.strata.resize(compiled.strata.size());

  const std::vector<Rule>& rules = program.rules();
  plan.rules.resize(rules.size());
  PlanScratch scratch;
  auto lower = [&](const RulePlan& rp) {
    CompiledRule cr = CompileRulePlan(rp, compiled.idb_preds);
    plan.max_regs = std::max(plan.max_regs, cr.num_regs);
    return cr;
  };
  for (size_t s = 0; s < compiled.strata.size(); ++s) {
    MaintenancePlan::Stratum& st = plan.strata[s];
    for (int r : compiled.strata[s].rule_indices) {
      const Rule& rule = rules[r];
      st.heads.insert(rule.head.pred());

      MaintenancePlan::RuleMaint& rm = plan.rules[r];
      rm.rule_index = r;
      const int nbody = static_cast<int>(rule.body.size());
      rm.delta_plans.reserve(nbody);
      rm.negated.reserve(nbody);
      rm.body_pred.reserve(nbody);
      for (int i = 0; i < nbody; ++i) {
        const Literal& lit = rule.body[i];
        rm.negated.push_back(lit.negated ? 1 : 0);
        rm.body_pred.push_back(lit.atom.pred());
        st.body_preds.insert(lit.atom.pred());
        if (lit.negated) {
          // The delta of "not B" is a finite scan over the change to B:
          // flip the literal positive so BuildPlan can open the body there.
          Rule flipped = rule;
          flipped.body[i].negated = false;
          rm.delta_plans.push_back(lower(BuildPlan(flipped, r, i, &scratch)));
        } else {
          rm.delta_plans.push_back(lower(BuildPlan(rule, r, i, &scratch)));
        }
      }
      rm.support_plan =
          lower(BuildPlan(rule, r, -1, &scratch, /*head_bound=*/true));
    }
  }
  return plan;
}

namespace {

// Shared context for one ApplyDeltaToState call.
struct MaintCtx {
  const CompiledProgram* compiled;
  const MaintenancePlan* plan;
  MaterializedState* state;
  int64_t old_v = 0;        // previous snapshot version (V - 1)
  Database dplus;           // net insertions so far, EDB + completed strata
  Database dminus;          // net deletions so far
  VmContext vm;             // always probes indexes; counts nothing
  MaintainStats* stats = nullptr;

  MaintCtx(const CompiledProgram* compiled, const MaintenancePlan* plan,
           MaterializedState* state)
      : compiled(compiled), plan(plan), state(state) {
    vm.regs.resize(plan->max_regs);
  }

  // Predicate `pred`'s relation in the materialized state, read at
  // `as_of` (-1 = live, else a snapshot version).
  LevelRows Rows(PredId pred, int64_t as_of) const {
    return RowsOf(compiled->idb_preds.count(pred) > 0
                      ? state->idb.Find(pred)
                      : state->edb.Find(pred),
                  as_of);
  }
  static LevelRows RowsOf(const Relation* rel, int64_t as_of) {
    LevelRows rows;
    rows.rel = rel;
    rows.hi = rel == nullptr ? 0 : rel->size();
    rows.as_of = as_of;
    return rows;
  }
};

// Runs one compiled maintenance plan on the VM. `rows_at(j)` resolves the
// rows body position j reads, for join levels and negations alike;
// `sink(vals, n)` receives each derived head and returns false to end the
// enumeration early (support checks need one witness, not all of them).
// Registers the plan reads before loading them (a head-bound plan's head)
// must already be seeded in ctx->vm.regs.
template <typename RowsAt, typename Sink>
void RunMaintPlan(MaintCtx* ctx, const CompiledRule& cr, RowsAt&& rows_at,
                  Sink&& sink) {
  VmContext& vm = ctx->vm;
  vm.levels.clear();
  for (const LevelInfo& lvl : cr.levels) {
    vm.levels.push_back(rows_at(lvl.body_index));
  }
  vm.negs.clear();
  for (const NegInfo& neg : cr.negs) {
    vm.negs.push_back(rows_at(neg.body_index));
  }
  RunBytecode(cr, &vm, sink);
}

// How the non-delta positions of a delta plan read the state. Counting uses
// the telescoping discipline (new before the delta position, old after), so
// each changed derivation is enumerated exactly once; DRed phases read one
// consistent snapshot (old while over-deleting, new while re-inserting).
enum class OthersView { kTelescope, kAllOld, kAllLive };

// Runs delta plan i of `rm` with `delta_rel` (a plain, unversioned change
// set) at body position i. Every sink here consumes the whole enumeration.
template <typename Sink>
void RunDeltaPlan(MaintCtx* ctx, const MaintenancePlan::RuleMaint& rm, int i,
                  const Relation* delta_rel, OthersView others, Sink&& sink) {
  if (delta_rel == nullptr || delta_rel->empty()) return;
  auto rows_at = [&](int j) {
    if (j == i) return MaintCtx::RowsOf(delta_rel, -1);
    const bool old = others == OthersView::kAllOld ||
                     (others == OthersView::kTelescope && j > i);
    return ctx->Rows(rm.body_pred[j], old ? ctx->old_v : -1);
  };
  RunMaintPlan(ctx, rm.delta_plans[i], rows_at,
               [&](const Value* vals, int n) {
                 sink(vals, n);
                 return true;
               });
}

// True when `t` has at least one full-body derivation of `rm`'s rule in the
// current live state. The support plan's head registers are seeded from `t`.
bool HasSupport(MaintCtx* ctx, const MaintenancePlan::RuleMaint& rm,
                const Value* t, int n) {
  const CompiledRule& plan = rm.support_plan;
  if (plan.head_arity != n) return false;
  // Seed every head register, then check every head position against the
  // seeded values: a constant that differs, or a repeated head variable
  // whose values conflict, rules the tuple out.
  Value* regs = ctx->vm.regs.data();
  const ArgSrc* head = plan.args_pool.data() + plan.head_off;
  for (int i = 0; i < n; ++i) {
    if (!IsConstSrc(head[i])) regs[head[i]] = t[i];
  }
  for (int i = 0; i < n; ++i) {
    const Value& v = IsConstSrc(head[i]) ? plan.consts[ConstIdx(head[i])]
                                         : regs[head[i]];
    if (v != t[i]) return false;
  }
  bool found = false;
  RunMaintPlan(
      ctx, plan, [&](int j) { return ctx->Rows(rm.body_pred[j], -1); },
      [&](const Value*, int) {
        found = true;
        return false;
      });
  return found;
}

// Per-predicate scratch accumulating signed derivation-count deltas for one
// counting stratum; net transitions apply at stratum end so mid-stratum
// enumeration never sees half-applied version stamps.
struct CountScratch {
  struct Entry {
    Relation rel;
    std::vector<int64_t> deltas;
    explicit Entry(int arity) : rel(arity) {}
  };
  std::map<PredId, Entry> preds;

  void Add(PredId pred, const Value* vals, int n, int64_t d) {
    auto it = preds.find(pred);
    if (it == preds.end()) it = preds.emplace(pred, Entry(n)).first;
    Entry& e = it->second;
    int32_t r = e.rel.FindRow(vals, n);
    if (r < 0) {
      e.rel.Insert(vals, n);
      r = static_cast<int32_t>(e.rel.size()) - 1;
      e.deltas.push_back(0);
    }
    e.deltas[r] += d;
  }
};

// Counting maintenance for one non-recursive stratum: accumulate signed
// count deltas from every (rule, position, sign) delta join, then apply the
// net transitions and append this stratum's output deltas to the global
// change sets.
void MaintainCountingStratum(MaintCtx* ctx,
                             const CompiledProgram::Stratum& stratum) {
  CountScratch scratch;
  for (int r : stratum.rule_indices) {
    const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
    const int nbody = static_cast<int>(rm.body_pred.size());
    for (int i = 0; i < nbody; ++i) {
      PredId p = rm.body_pred[i];
      // Gained derivations: tuples added to a positive subgoal, or removed
      // from a negated one. Lost derivations: the mirror image.
      const Relation* gain =
          rm.negated[i] ? ctx->dminus.Find(p) : ctx->dplus.Find(p);
      const Relation* lose =
          rm.negated[i] ? ctx->dplus.Find(p) : ctx->dminus.Find(p);
      PredId head = rm.delta_plans[i].head_pred;
      RunDeltaPlan(ctx, rm, i, gain, OthersView::kTelescope,
                   [&](const Value* vals, int n) {
                     scratch.Add(head, vals, n, +1);
                   });
      RunDeltaPlan(ctx, rm, i, lose, OthersView::kTelescope,
                   [&](const Value* vals, int n) {
                     scratch.Add(head, vals, n, -1);
                   });
    }
  }

  for (auto& [pred, entry] : scratch.preds) {
    Relation* rel = ctx->state->idb.FindOrCreate(pred, entry.rel.arity());
    rel->EnableCounts();
    const int32_t rows = static_cast<int32_t>(entry.rel.size());
    for (int32_t sr = 0; sr < rows; ++sr) {
      const int64_t dv = entry.deltas[sr];
      if (dv == 0) continue;
      ++ctx->stats->count_updates;
      TupleRef t = entry.rel.row(sr);
      int32_t row = rel->FindRow(t.data(), t.size());
      if (row < 0) {
        SQOD_CHECK_MSG(dv > 0, "negative count for an absent tuple");
        rel->Insert(t);  // stamps added = V
        row = rel->FindRow(t.data(), t.size());
        rel->set_count(row, dv);
        ctx->dplus.Insert(pred, t);
        ++ctx->stats->idb_inserted;
        continue;
      }
      const int64_t c = rel->count(row) + dv;
      SQOD_CHECK_MSG(c >= 0, "derivation count went negative");
      rel->set_count(row, c);
      const bool was = rel->live(row);
      const bool now = c > 0;
      if (was && !now) {
        rel->EraseRow(row);
        ctx->dminus.Insert(pred, t);
        ++ctx->stats->idb_deleted;
      } else if (!was && now) {
        rel->ReviveRow(row);
        ctx->dplus.Insert(pred, t);
        ++ctx->stats->idb_inserted;
      }
    }
  }
}

// DRed maintenance for one recursive stratum: over-delete everything
// reachable from a deletion against the old snapshot, rescue over-deleted
// tuples that still have support, then propagate insertions (and rescues)
// semi-naively against the live state. Output deltas are classified from
// the version stamps of every touched row at the end.
void MaintainDredStratum(MaintCtx* ctx,
                         const CompiledProgram::Stratum& stratum,
                         const std::set<PredId>& heads) {
  MaterializedState* state = ctx->state;
  const int64_t v = state->version;
  std::vector<std::pair<PredId, int32_t>> touched;

  // Tombstones a derived head during over-deletion. Rows that were already
  // dead (before the batch, or from an earlier over-deletion) are skipped.
  Database over_new;
  auto over_delete = [&](const Value* vals, int n, PredId pred) {
    Relation* rel = state->idb.FindOrCreate(pred, n);
    int32_t row = rel->FindRow(vals, n);
    if (row < 0 || !rel->live(row)) return;
    rel->EraseRow(row);
    touched.emplace_back(pred, row);
    over_new.Insert(pred, vals, n);
    ++ctx->stats->over_deleted;
  };

  // Phase 1: over-delete. Seeds come from the global change sets (EDB and
  // lower strata); the worklist then closes over same-stratum derivations,
  // all against the old snapshot.
  for (int r : stratum.rule_indices) {
    const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
    const int nbody = static_cast<int>(rm.body_pred.size());
    for (int i = 0; i < nbody; ++i) {
      PredId p = rm.body_pred[i];
      const Relation* lose =
          rm.negated[i] ? ctx->dplus.Find(p) : ctx->dminus.Find(p);
      PredId head = rm.delta_plans[i].head_pred;
      RunDeltaPlan(ctx, rm, i, lose, OthersView::kAllOld,
                   [&](const Value* vals, int n) {
                     over_delete(vals, n, head);
                   });
    }
  }
  while (over_new.TotalTuples() > 0) {
    Database over_cur = std::move(over_new);
    over_new = Database();
    for (int r : stratum.rule_indices) {
      const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
      const int nbody = static_cast<int>(rm.body_pred.size());
      for (int i = 0; i < nbody; ++i) {
        if (rm.negated[i] || heads.count(rm.body_pred[i]) == 0) {
          continue;
        }
        const Relation* drel = over_cur.Find(rm.body_pred[i]);
        PredId head = rm.delta_plans[i].head_pred;
        RunDeltaPlan(ctx, rm, i, drel, OthersView::kAllOld,
                     [&](const Value* vals, int n) {
                       over_delete(vals, n, head);
                     });
      }
    }
  }

  // Makes a head live during rederivation/insertion and queues it for
  // same-stratum propagation. A row tombstoned by this very batch is
  // undeleted (net unchanged — its original added-version is preserved);
  // anything else becomes an insertion stamped at V.
  Database newly;
  auto process_up = [&](const Value* vals, int n, PredId pred) {
    Relation* rel = state->idb.FindOrCreate(pred, n);
    int32_t row = rel->FindRow(vals, n);
    if (row >= 0 && rel->live(row)) return;
    if (row < 0) {
      rel->Insert(vals, n);  // stamps added = V
      row = rel->FindRow(vals, n);
    } else if (rel->deleted_version(row) == v) {
      rel->UndeleteRow(row);
      ++ctx->stats->rederived;
    } else {
      rel->ReviveRow(row);
    }
    touched.emplace_back(pred, row);
    newly.Insert(pred, vals, n);
  };

  // Phase 2: rederive. Each over-deleted tuple that still has a full-body
  // witness in the live state comes back with its identity intact.
  const size_t num_over = touched.size();
  for (size_t k = 0; k < num_over; ++k) {
    auto [pred, row] = touched[k];
    Relation* rel = state->idb.FindOrCreate(
        pred, ctx->state->idb.Find(pred)->arity());
    if (rel->live(row)) continue;  // already rescued
    TupleRef t = rel->row(row);
    Value vals[Relation::kMaxArity];
    const int n = t.size();
    for (int i = 0; i < n; ++i) vals[i] = t[i];
    for (int r : stratum.rule_indices) {
      const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
      if (rm.support_plan.head_pred != pred) continue;
      if (HasSupport(ctx, rm, vals, n)) {
        rel->UndeleteRow(row);
        ++ctx->stats->rederived;
        newly.Insert(pred, vals, n);
        break;
      }
    }
  }

  // Inserting a derived head can reallocate the very relation the delta
  // join is scanning (a recursive rule reads its own head predicate), so
  // the insertion phases buffer the derived tuples and make them live only
  // after the scan finishes; the worklist picks them up for propagation.
  std::vector<Tuple> derived;
  auto run_buffered = [&](const MaintenancePlan::RuleMaint& rm, int i,
                          const Relation* drel) {
    derived.clear();
    RunDeltaPlan(ctx, rm, i, drel, OthersView::kAllLive,
                 [&](const Value* vals, int n) {
                   derived.emplace_back(vals, vals + n);
                 });
    PredId head = rm.delta_plans[i].head_pred;
    for (const Tuple& t : derived) {
      process_up(t.data(), static_cast<int>(t.size()), head);
    }
  };

  // Phase 3: insertion seeds from the global change sets.
  for (int r : stratum.rule_indices) {
    const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
    const int nbody = static_cast<int>(rm.body_pred.size());
    for (int i = 0; i < nbody; ++i) {
      PredId p = rm.body_pred[i];
      const Relation* gain =
          rm.negated[i] ? ctx->dminus.Find(p) : ctx->dplus.Find(p);
      run_buffered(rm, i, gain);
    }
  }

  // Phase 4: propagate every newly-live tuple (rescues and insertions
  // alike) through the same-stratum positions until the worklist drains.
  while (newly.TotalTuples() > 0) {
    Database cur = std::move(newly);
    newly = Database();
    for (int r : stratum.rule_indices) {
      const MaintenancePlan::RuleMaint& rm = ctx->plan->rules[r];
      const int nbody = static_cast<int>(rm.body_pred.size());
      for (int i = 0; i < nbody; ++i) {
        if (rm.negated[i] || heads.count(rm.body_pred[i]) == 0) {
          continue;
        }
        run_buffered(rm, i, cur.Find(rm.body_pred[i]));
      }
    }
  }

  // Classify the net effect of every touched row from its version stamps.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (auto [pred, row] : touched) {
    const Relation* rel = state->idb.Find(pred);
    if (rel->live(row)) {
      if (rel->added_version(row) == v) {
        ctx->dplus.Insert(pred, rel->row(row));
        ++ctx->stats->idb_inserted;
      }
    } else if (rel->deleted_version(row) == v) {
      ctx->dminus.Insert(pred, rel->row(row));
      ++ctx->stats->idb_deleted;
    }
  }
}

// Validates and nets the batch without mutating anything. On return dplus /
// dminus hold the effective EDB change (dedup'd, no-ops dropped).
Status NetBatch(const CompiledProgram& compiled, const FactDelta& delta,
                const MaterializedState& state, Database* dplus,
                Database* dminus) {
  auto validate = [&](const Atom& a) -> Status {
    if (!a.is_ground()) {
      return Status::InvalidArgument("delta fact is not ground: " +
                                     a.ToString());
    }
    if (a.arity() > Relation::kMaxArity) {
      return Status::InvalidArgument("delta fact arity exceeds " +
                                     std::to_string(Relation::kMaxArity));
    }
    if (compiled.idb_preds.count(a.pred()) > 0) {
      return Status::InvalidArgument(
          "cannot apply a delta to derived predicate " + PredName(a.pred()));
    }
    const Relation* rel = state.edb.Find(a.pred());
    if (rel != nullptr && rel->arity() != a.arity()) {
      return Status::InvalidArgument("arity mismatch for " +
                                     PredName(a.pred()) + ": " +
                                     a.ToString());
    }
    return Status::Ok();
  };
  for (const Atom& a : delta.inserts) SQOD_RETURN_IF_ERROR(validate(a));
  for (const Atom& a : delta.deletes) SQOD_RETURN_IF_ERROR(validate(a));

  // Deletes apply before inserts: a tuple in both stays present. Dedup
  // through plain staging databases, then keep only effective changes.
  Database ins, del;
  for (const Atom& a : delta.inserts) ins.InsertAtom(a);
  for (const Atom& a : delta.deletes) del.InsertAtom(a);
  for (const auto& [pred, rel] : del.relations()) {
    const Relation* ins_rel = ins.Find(pred);
    const Relation* cur = state.edb.Find(pred);
    for (TupleRef t : rel.rows()) {
      if (ins_rel != nullptr && ins_rel->Contains(t.data(), t.size())) {
        continue;  // delete + insert = no net change
      }
      if (cur != nullptr && cur->Contains(t.data(), t.size())) {
        dminus->Insert(pred, t);
      }
    }
  }
  for (const auto& [pred, rel] : ins.relations()) {
    const Relation* cur = state.edb.Find(pred);
    for (TupleRef t : rel.rows()) {
      if (cur == nullptr || !cur->Contains(t.data(), t.size())) {
        dplus->Insert(pred, t);
      }
    }
  }
  return Status::Ok();
}

// Seeds exact derivation counts for every counting (non-recursive)
// stratum's heads by running the stratum's compiled full plans over the
// current live state: one sink call per rule match.
void InitializeDerivationCounts(const CompiledProgram& compiled,
                                const MaintenancePlan& plan,
                                MaterializedState* state) {
  MaintCtx ctx(&compiled, &plan, state);
  for (const CompiledProgram::Stratum& st : compiled.strata) {
    if (st.recursive()) continue;
    for (const CompiledRule& cr : st.full) {
      Relation* rel = state->idb.FindOrCreate(cr.head_pred, cr.head_arity);
      rel->EnableCounts();
      rel->ResetCounts();
    }
    for (const CompiledRule& cr : st.full) {
      const MaintenancePlan::RuleMaint& rm = plan.rules[cr.rule_index];
      Relation* rel = state->idb.FindOrCreate(cr.head_pred, cr.head_arity);
      RunMaintPlan(
          &ctx, cr, [&](int j) { return ctx.Rows(rm.body_pred[j], -1); },
          [&](const Value* vals, int n) {
            int32_t row = rel->FindRow(vals, n);
            SQOD_CHECK_MSG(row >= 0 && rel->live(row),
                           "count init found a derivation for a "
                           "tuple missing from the fixpoint");
            rel->add_count(row, 1);
            return true;
          });
    }
  }
}

// Evaluates the program over the live EDB (already stamped at
// state->version) and brings the IDB to that fixpoint, then reseeds the
// derivation counts. An IDB with no relations yet (the initial
// materialization) takes the fresh fixpoint as is, versioned at
// state->version; otherwise the fresh fixpoint is diffed into the
// materialized rows, stamping transitions at the current version (the
// recompute fallback). Either way `stats` counts the IDB tuples that became
// live or died.
Status RecomputeState(const Program& program, const CompiledProgram& compiled,
                      const MaintenancePlan& plan, MaterializedState* state,
                      MaintainStats* stats) {
  EvalOptions eval;
  eval.compiled = &compiled;
  Evaluator evaluator(program, eval);
  Result<Database> fresh = evaluator.Evaluate(state->edb);
  if (!fresh.ok()) return fresh.status();
  const int64_t v = state->version;

  if (state->idb.relations().empty()) {
    state->idb = std::move(fresh).value();
    state->idb.EnableVersioning(v);
    stats->idb_inserted += state->idb.TotalTuples();
  } else {
    for (const auto& [pred, frel] : fresh.value().relations()) {
      Relation* rel = state->idb.FindOrCreate(pred, frel.arity());
      for (TupleRef t : frel.rows()) {
        int32_t row = rel->FindRow(t.data(), t.size());
        if (row >= 0 && rel->live(row)) continue;
        if (row < 0) {
          rel->Insert(t);
        } else {
          rel->ReviveRow(row);
        }
        ++stats->idb_inserted;
      }
    }
    for (auto& [pred, rel] : *state->idb.mutable_relations()) {
      const Relation* frel = fresh.value().Find(pred);
      const int32_t rows = static_cast<int32_t>(rel.size());
      for (int32_t r = 0; r < rows; ++r) {
        if (!rel.live(r) || rel.added_version(r) == v) continue;
        TupleRef t = rel.row(r);
        if (frel == nullptr || !frel->Contains(t.data(), t.size())) {
          rel.EraseRow(r);
          ++stats->idb_deleted;
        }
      }
    }
  }
  InitializeDerivationCounts(compiled, plan, state);
  return Status::Ok();
}

}  // namespace

Result<MaterializedState> MaterializeState(const Program& program,
                                           const CompiledProgram& compiled,
                                           const MaintenancePlan& plan,
                                           Database edb) {
  MaterializedState state;
  state.edb = std::move(edb);
  state.edb.EnableVersioning(0);
  MaintainStats stats;
  SQOD_RETURN_IF_ERROR(
      RecomputeState(program, compiled, plan, &state, &stats));
  return state;
}

Result<MaintainStats> ApplyDeltaToState(const Program& program,
                                        const CompiledProgram& compiled,
                                        const MaintenancePlan& plan,
                                        const FactDelta& delta,
                                        const ApplyDeltaOptions& options,
                                        MaterializedState* state) {
  const int64_t t0 = NowNs();
  MaintainStats stats;
  stats.version = state->version;

  MaintCtx ctx(&compiled, &plan, state);
  ctx.stats = &stats;

  SQOD_RETURN_IF_ERROR(
      NetBatch(compiled, delta, *state, &ctx.dplus, &ctx.dminus));
  const int64_t net_plus = ctx.dplus.TotalTuples();
  const int64_t net_minus = ctx.dminus.TotalTuples();
  if (net_plus + net_minus == 0) {
    stats.strata_skipped = static_cast<int>(plan.strata.size());
    stats.maintain_ns = NowNs() - t0;
    return stats;  // no effective change; version unchanged
  }
  const int64_t edb_live = state->edb.TotalTuples();
  const bool recompute =
      options.force_recompute ||
      static_cast<double>(net_plus + net_minus) >
          options.recompute_fraction * static_cast<double>(
                                           std::max<int64_t>(1, edb_live));

  // Advance the snapshot: every transition below stamps with V, the old
  // snapshot stays readable as LiveAt(row, V - 1).
  const int64_t v = state->version + 1;
  state->version = v;
  state->edb.SetVersion(v);
  state->idb.SetVersion(v);
  ctx.old_v = v - 1;
  stats.version = v;

  for (const auto& [pred, rel] : ctx.dminus.relations()) {
    for (TupleRef t : rel.rows()) {
      SQOD_CHECK(state->edb.Erase(pred, t.data(), t.size()));
      ++stats.edb_deleted;
    }
  }
  for (const auto& [pred, rel] : ctx.dplus.relations()) {
    Relation* target = state->edb.FindOrCreate(pred, rel.arity());
    for (TupleRef t : rel.rows()) {
      SQOD_CHECK(target->Insert(t));
      ++stats.edb_inserted;
    }
  }

  if (recompute) {
    SQOD_RETURN_IF_ERROR(
        RecomputeState(program, compiled, plan, state, &stats));
    stats.recomputed = true;
    stats.strata_recomputed = static_cast<int>(compiled.strata.size());
    stats.maintain_ns = NowNs() - t0;
    return stats;
  }

  for (size_t s = 0; s < compiled.strata.size(); ++s) {
    const CompiledProgram::Stratum& stratum = compiled.strata[s];
    bool affected = false;
    for (PredId p : plan.strata[s].body_preds) {
      const Relation* dp = ctx.dplus.Find(p);
      const Relation* dm = ctx.dminus.Find(p);
      if ((dp != nullptr && !dp->empty()) ||
          (dm != nullptr && !dm->empty())) {
        affected = true;
        break;
      }
    }
    if (!affected) {
      ++stats.strata_skipped;
      continue;
    }
    if (stratum.recursive()) {
      MaintainDredStratum(&ctx, stratum, plan.strata[s].heads);
    } else {
      MaintainCountingStratum(&ctx, stratum);
    }
    ++stats.strata_incremental;
  }

  stats.maintain_ns = NowNs() - t0;
  return stats;
}

}  // namespace sqod
