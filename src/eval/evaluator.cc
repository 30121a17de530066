#include "src/eval/evaluator.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "src/base/check.h"
#include "src/eval/bindings.h"
#include "src/eval/bytecode.h"
#include "src/eval/kernel.h"
#include "src/eval/plan.h"
#include "src/obs/export.h"

namespace sqod {

EvalStats EvalStats::FromProfiles(int64_t iterations,
                                  const std::vector<RuleProfile>& profiles) {
  EvalStats stats;
  stats.iterations = iterations;
  for (const RuleProfile& p : profiles) {
    stats.rule_firings += p.firings;
    stats.tuples_derived += p.derived;
    stats.duplicate_derivations += p.duplicates;
    stats.join_probes += p.probes;
    stats.comparison_checks += p.cmp_checks;
  }
  return stats;
}

std::string EvalStats::ToString() const {
  return "iterations=" + std::to_string(iterations) +
         " firings=" + std::to_string(rule_firings) +
         " derived=" + std::to_string(tuples_derived) +
         " duplicates=" + std::to_string(duplicate_derivations) +
         " probes=" + std::to_string(join_probes) +
         " cmp_checks=" + std::to_string(comparison_checks);
}

std::string RenderRuleProfileTable(const std::vector<RuleProfile>& profiles) {
  std::vector<const RuleProfile*> active;
  for (const RuleProfile& p : profiles) {
    if (p.firings > 0 || p.probes > 0 || p.cmp_checks > 0) {
      active.push_back(&p);
    }
  }
  std::sort(active.begin(), active.end(),
            [](const RuleProfile* a, const RuleProfile* b) {
              if (a->time_ns != b->time_ns) return a->time_ns > b->time_ns;
              if (a->firings != b->firings) return a->firings > b->firings;
              return a->rule_index < b->rule_index;
            });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%5s  %-28s %10s %10s %8s %12s %10s\n",
                "rule", "head", "firings", "derived", "dup%", "probes",
                "time");
  out += line;
  for (const RuleProfile* p : active) {
    std::string head = p->head.size() > 28 ? p->head.substr(0, 25) + "..."
                                           : p->head;
    std::snprintf(line, sizeof(line),
                  "%5d  %-28s %10lld %10lld %7.1f%% %12lld %10s\n",
                  p->rule_index, head.c_str(),
                  static_cast<long long>(p->firings),
                  static_cast<long long>(p->derived),
                  100.0 * p->duplicate_rate(),
                  static_cast<long long>(p->probes),
                  p->time_ns > 0 ? FormatDurationNs(p->time_ns).c_str() : "-");
    out += line;
  }
  return out;
}

namespace {

// Runtime context shared by all rules during one evaluation.
struct Context {
  const Program* program;
  const Database* edb;
  Database* idb;                // all IDB tuples derived so far
  const IdbFrontier* frontier;  // the iteration's row windows over `idb`
  HeadSink head;                // opened on `idb` by ResolveStepRows
  EvalOptions options;
  RuleProfile* rule_stats;    // profile slot of the rule being evaluated
  std::set<PredId> idb_preds;
  // Rows each join step of the running plan reads, by step position;
  // resolved once per activation (ResolveStepRows).
  std::vector<LevelRows> step_rows;
  int64_t* derived_count;
  bool* overflow;
};

// The interpreter's ResolveRelations: classifies each join step's source
// (EDB, the delta subgoal's window, or the IDB snapshot), resolves its rows
// for this activation, and opens the head sink.
void ResolveStepRows(const RulePlan& plan, Context* ctx) {
  ctx->step_rows.assign(plan.steps.size(), LevelRows());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    if (step.kind != PlanStep::Kind::kJoin) continue;
    const RelSource source = ctx->idb_preds.count(step.pred) == 0
                                 ? RelSource::kEdb
                             : step.index == plan.delta_subgoal
                                 ? RelSource::kIdbDelta
                                 : RelSource::kIdbTotal;
    ctx->step_rows[i] =
        ResolveRows(source, step.pred, *ctx->edb, *ctx->idb, *ctx->frontier);
  }
  ctx->head.Open(ctx->idb, plan.head_pred);
}

void DeriveHead(const RulePlan& plan, const Bindings& bindings, Context* ctx) {
  ++ctx->rule_stats->firings;
  Value head[Relation::kMaxArity];
  const int n = static_cast<int>(plan.head.size());
  for (int i = 0; i < n; ++i) head[i] = ArgValue(plan.head[i], bindings);
  if (!ctx->head.Stage(head, n)) {
    ++ctx->rule_stats->duplicates;
    return;
  }
  ++ctx->rule_stats->derived;
  ++*ctx->derived_count;
  if (ctx->options.max_derived >= 0 &&
      *ctx->derived_count > ctx->options.max_derived) {
    *ctx->overflow = true;
  }
}

// Recursive join over the plan steps.
void RunSteps(const RulePlan& plan, size_t step_index, Bindings* bindings,
              Context* ctx) {
  if (*ctx->overflow) return;
  if (step_index == plan.steps.size()) {
    DeriveHead(plan, *bindings, ctx);
    return;
  }
  const PlanStep& step = plan.steps[step_index];
  switch (step.kind) {
    case PlanStep::Kind::kComparison: {
      ++ctx->rule_stats->cmp_checks;
      if (EvalCmp(ArgValue(step.lhs, *bindings), step.op,
                  ArgValue(step.rhs, *bindings))) {
        RunSteps(plan, step_index + 1, bindings, ctx);
      }
      return;
    }
    case PlanStep::Kind::kNegation: {
      Value key[Relation::kMaxArity];
      const int n = static_cast<int>(step.args.size());
      for (int i = 0; i < n; ++i) key[i] = ArgValue(step.args[i], *bindings);
      // Negated IDB predicates live in strictly lower strata, already
      // completed in the IDB; EDB predicates live in the input database.
      const Relation* rel = ctx->idb_preds.count(step.pred) > 0
                                ? ctx->idb->Find(step.pred)
                                : ctx->edb->Find(step.pred);
      if (rel == nullptr || !rel->Contains(key, n)) {
        RunSteps(plan, step_index + 1, bindings, ctx);
      }
      return;
    }
    case PlanStep::Kind::kJoin: {
      const LevelRows rows = ctx->step_rows[step_index];
      if (rows.empty()) return;
      const Relation* rel = rows.rel;

      // Gather the probe key (bound positions) straight from the bindings.
      uint64_t mask = 0;
      Value key[Relation::kMaxArity];
      int klen = 0;
      const int n = static_cast<int>(step.args.size());
      for (int i = 0; i < n; ++i) {
        const ArgRef& a = step.args[i];
        if (a.var < 0) {
          mask |= uint64_t{1} << i;
          key[klen++] = a.const_val;
        } else if (bindings->IsBound(a.var)) {
          mask |= uint64_t{1} << i;
          key[klen++] = bindings->Get(a.var);
        }
      }

      auto try_row = [&](TupleRef row) {
        ++ctx->rule_stats->probes;
        size_t mark = bindings->Mark();
        bool ok = true;
        for (int i = 0; i < n && ok; ++i) {
          const ArgRef& a = step.args[i];
          ok = a.var < 0 ? a.const_val == row[i] : bindings->Bind(a.var, row[i]);
        }
        if (ok) RunSteps(plan, step_index + 1, bindings, ctx);
        bindings->Restore(mark);
      };

      // Tombstoned rows (versioned EDBs under incremental maintenance) are
      // skipped before the probe counter, so interpret/compile/kernel
      // executors stay counter-identical.
      if (mask != 0 && ctx->options.use_indexes) {
        Relation::Matches m = rel->Probe(mask, key, rows.lo, rows.hi);
        for (int32_t r = m.row; r >= 0; r = m.next(r)) {
          if (!rel->live(r)) continue;
          try_row(rel->row(r));
          if (*ctx->overflow) return;
        }
      } else {
        for (int64_t r = rows.lo; r < rows.hi; ++r) {
          if (!rel->live(r)) continue;
          try_row(rel->row(r));
          if (*ctx->overflow) return;
        }
      }
      return;
    }
  }
}

}  // namespace

Evaluator::Evaluator(const Program& program, EvalOptions options)
    : program_(program), options_(options) {}

Result<Database> Evaluator::Evaluate(const Database& edb) {
  stats_ = EvalStats();
  const std::vector<Rule>& rules = program_.rules();
  profiles_.assign(rules.size(), RuleProfile());
  for (size_t r = 0; r < rules.size(); ++r) {
    profiles_[r].rule_index = static_cast<int>(r);
    profiles_[r].head = PredName(rules[r].head.pred());
  }
  int64_t iterations = 0;

  Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  // Counters are always kept (they redirect existing increments); only the
  // wall-clock reads are gated, so the disabled path stays branch-cheap.
  const bool timed =
      options_.profile_rules || tracing || options_.metrics != nullptr;

  auto start_span = [&](const char* name) {
    return tracing ? tracer->StartSpan(name) : Span();
  };

  // Compiled mode: use the caller-provided artifact (PreparedProgram's
  // cache) or lower on the fly. Either way the artifact carries the
  // stratification and IDB classification, so Stratify() runs at most once
  // per program, not once per evaluation.
  const bool compile = options_.mode == EvalMode::kCompile;
  const CompiledProgram* compiled = options_.compiled;
  CompiledProgram local_compiled;
  int64_t compile_ns = 0;
  if (compile && compiled == nullptr) {
    Result<CompiledProgram> c = CompileProgram(program_);
    if (!c.ok()) return c.status();
    local_compiled = std::move(c.value());
    compiled = &local_compiled;
    compile_ns = local_compiled.compile_ns;
  }

  // One bindings array (interpret) / register file (compiled) reused across
  // every rule activation; nothing below allocates per probe or per bind.
  Bindings bindings;
  std::vector<Value> regs;
  std::vector<LevelRows> level_rows;
  std::vector<const Relation*> neg_rels;
  if (compile) {
    regs.resize(compiled->max_regs);
    level_rows.reserve(compiled->max_levels);
  }
  // Per-kernel activation counts, published at finish.
  int64_t kernel_runs[kNumKernels] = {0, 0, 0};

  // Single-insert semi-naive iteration (docs/evaluator.md): every derived
  // tuple is inserted once, straight into its IDB relation in `total`, and
  // the frontier's per-predicate row windows say which of those rows are
  // each iteration's delta and snapshot.
  Database total;
  IdbFrontier frontier;
  int64_t derived_count = 0;
  bool overflow = false;

  Context ctx;
  ctx.program = &program_;
  ctx.edb = &edb;
  ctx.idb = &total;
  ctx.frontier = &frontier;
  ctx.options = options_;
  ctx.rule_stats = nullptr;
  ctx.derived_count = &derived_count;
  ctx.overflow = &overflow;

  VmContext vm;
  vm.edb = &edb;
  vm.idb = &total;
  vm.frontier = &frontier;
  vm.use_indexes = options_.use_indexes;
  vm.max_derived = options_.max_derived;
  vm.derived_count = &derived_count;
  vm.overflow = &overflow;
  vm.regs = &regs;
  vm.level_rows = &level_rows;
  vm.neg_rels = &neg_rels;

  int num_strata = 0;
  std::map<PredId, int> strata_map;  // interpret mode only
  if (compile) {
    ctx.idb_preds = compiled->idb_preds;
    num_strata = static_cast<int>(compiled->strata.size());
  } else {
    Result<std::map<PredId, int>> strata = program_.Stratify();
    if (!strata.ok()) return strata.status();
    strata_map = std::move(strata.value());
    ctx.idb_preds = program_.IdbPreds();
    for (const auto& [pred, s] : strata_map) {
      num_strata = std::max(num_strata, s + 1);
    }
  }

  auto fail_if_overflow = [&]() -> Status {
    if (overflow) {
      return Status::ResourceExhausted("evaluation exceeded max_derived=" +
                           std::to_string(options_.max_derived));
    }
    return Status::Ok();
  };

  // Cooperative interruption, polled once per fixpoint iteration. The poll
  // is two loads (plus a clock read only when a deadline is armed), so the
  // serving layer can cancel or deadline long evaluations without the
  // un-interrupted path paying for it.
  auto interrupted = [&]() -> Status {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Status::Cancelled("evaluation cancelled by caller");
    }
    if (options_.deadline_ns >= 0 && NowNs() >= options_.deadline_ns) {
      return Status::DeadlineExceeded("evaluation deadline exceeded");
    }
    return Status::Ok();
  };

  // Publishes counters and (when attached) registry metrics before any
  // return path, so stats are valid even on overflow errors.
  auto finish = [&] {
    stats_ = EvalStats::FromProfiles(iterations, profiles_);
    if (options_.metrics == nullptr) return;
    MetricsRegistry* m = options_.metrics;
    const std::string& p = options_.metrics_prefix;
    m->GetCounter(p + "/iterations")->Add(stats_.iterations);
    m->GetCounter(p + "/rule_firings")->Add(stats_.rule_firings);
    m->GetCounter(p + "/tuples_derived")->Add(stats_.tuples_derived);
    m->GetCounter(p + "/duplicate_derivations")
        ->Add(stats_.duplicate_derivations);
    m->GetCounter(p + "/join_probes")->Add(stats_.join_probes);
    m->GetCounter(p + "/comparison_checks")->Add(stats_.comparison_checks);
    if (compile) {
      int64_t ops = 0;
      for (const RuleProfile& profile : profiles_) ops += profile.ops;
      m->GetCounter(p + "/bytecode_ops")->Add(ops);
      m->GetCounter(p + "/kernel_generic")
          ->Add(kernel_runs[static_cast<int>(KernelId::kGeneric)]);
      m->GetCounter(p + "/kernel_scan_filter_emit")
          ->Add(kernel_runs[static_cast<int>(KernelId::kScanFilterEmit)]);
      m->GetCounter(p + "/kernel_scan_probe_emit")
          ->Add(kernel_runs[static_cast<int>(KernelId::kScanProbeEmit)]);
      if (compile_ns > 0) {
        m->GetCounter(p + "/compile_ns")->Add(compile_ns);
      }
    }
    for (const RuleProfile& profile : profiles_) {
      if (profile.firings == 0 && profile.probes == 0) continue;
      std::string base = p + "/rule/" +
                         std::to_string(profile.rule_index) + ":" +
                         profile.head;
      m->GetCounter(base + "/firings")->Add(profile.firings);
      m->GetCounter(base + "/derived")->Add(profile.derived);
      m->GetCounter(base + "/duplicates")->Add(profile.duplicates);
      m->GetCounter(base + "/probes")->Add(profile.probes);
      m->GetCounter(base + "/time_ns")->Add(profile.time_ns);
    }
  };

  // Runs one interpreted plan with per-rule time attribution and a span.
  auto run_plan = [&](const RulePlan& plan) {
    RuleProfile* profile = &profiles_[plan.rule_index];
    ctx.rule_stats = profile;
    Span span;
    if (tracing) {
      span = tracer->StartSpan("eval.rule");
      span.SetAttr("rule", plan.rule_index);
      if (plan.delta_subgoal >= 0) {
        span.SetAttr("delta_subgoal", plan.delta_subgoal);
      }
    }
    int64_t before_firings = profile->firings;
    int64_t before_derived = profile->derived;
    int64_t t0 = timed ? NowNs() : 0;
    bindings.Reset(plan.num_vars);
    ResolveStepRows(plan, &ctx);
    RunSteps(plan, 0, &bindings, &ctx);
    if (timed) profile->time_ns += NowNs() - t0;
    if (tracing) {
      span.SetAttr("firings", profile->firings - before_firings);
      span.SetAttr("derived", profile->derived - before_derived);
    }
  };

  // Runs one compiled plan through its kernel, same attribution.
  auto run_compiled = [&](const CompiledRule& cr) {
    if (overflow) return;
    RuleProfile* profile = &profiles_[cr.rule_index];
    vm.profile = profile;
    Span span;
    if (tracing) {
      span = tracer->StartSpan("eval.rule");
      span.SetAttr("rule", cr.rule_index);
      span.SetAttr("kernel", static_cast<int64_t>(cr.kernel));
      if (cr.delta_subgoal >= 0) {
        span.SetAttr("delta_subgoal", cr.delta_subgoal);
      }
    }
    int64_t before_firings = profile->firings;
    int64_t before_derived = profile->derived;
    int64_t t0 = timed ? NowNs() : 0;
    if (ResolveRelations(cr, &vm)) {
      KernelId ran = RunCompiled(cr, &vm, options_.use_kernels);
      ++kernel_runs[static_cast<int>(ran)];
    }
    if (timed) profile->time_ns += NowNs() - t0;
    if (tracing) {
      span.SetAttr("firings", profile->firings - before_firings);
      span.SetAttr("derived", profile->derived - before_derived);
    }
  };

  Span eval_span = start_span("eval");
  PlanScratch scratch;  // reused by every interpreted BuildPlan below

  // Evaluate stratum by stratum: negated IDB subgoals point strictly below
  // and read the completed relations in `total`; positive IDB subgoals of
  // lower strata are static within this stratum and read `total` too; only
  // same-stratum positive IDB subgoals drive the semi-naive deltas.
  for (int stratum = 0; stratum < num_strata; ++stratum) {
    const CompiledProgram::Stratum* cst =
        compile ? &compiled->strata[stratum] : nullptr;
    std::vector<int> stratum_rules;
    if (compile) {
      stratum_rules = cst->rule_indices;
    } else {
      for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
        if (strata_map.at(rules[r].head.pred()) == stratum) {
          stratum_rules.push_back(r);
        }
      }
    }
    if (stratum_rules.empty()) continue;

    Span stratum_span = start_span("eval.stratum");
    stratum_span.SetAttr("stratum", stratum);
    stratum_span.SetAttr("rules", static_cast<int64_t>(stratum_rules.size()));

    Histogram* iteration_hist =
        options_.metrics == nullptr
            ? nullptr
            : options_.metrics->GetHistogram(options_.metrics_prefix +
                                             "/iteration_ns");
    auto observe_iteration = [&](Span* span, int64_t t0, int64_t added) {
      span->SetAttr("new_tuples", added);
      if (iteration_hist != nullptr) iteration_hist->Record(NowNs() - t0);
    };

    // Same-stratum positive IDB subgoal body indices, per rule (interpret
    // mode; the compiler resolved these into Stratum::nonrecursive/delta).
    std::map<int, std::vector<int>> recursive_subgoals;
    if (!compile) {
      for (int r : stratum_rules) {
        for (size_t i = 0; i < rules[r].body.size(); ++i) {
          const Literal& l = rules[r].body[i];
          if (!l.negated && ctx.idb_preds.count(l.atom.pred()) > 0 &&
              strata_map.at(l.atom.pred()) == stratum) {
            recursive_subgoals[r].push_back(static_cast<int>(i));
          }
        }
      }
    }

    // The stratum's head predicates: the relations its iterations derive
    // into, and so the ones whose frontier windows move.
    std::vector<PredId> heads;
    for (int r : stratum_rules) heads.push_back(rules[r].head.pred());
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    // Closes an iteration: the rows derived since the previous call become
    // the delta ([lo, hi) = [old hi, size)) and join the snapshot every
    // later read sees ([0, hi)). Returns how many rows that is — the
    // iteration's new tuples. The first call opens the stratum with empty
    // windows.
    auto advance = [&]() -> int64_t {
      int64_t added = 0;
      for (PredId pred : heads) {
        const Relation* rel = total.Find(pred);
        RowWindow& w = frontier[pred];
        w.lo = w.hi;
        w.hi = rel == nullptr ? 0 : rel->size();
        added += w.hi - w.lo;
      }
      return added;
    };
    advance();

    if (!options_.semi_naive) {
      // Naive within the stratum: every rule, full relations, every round.
      std::vector<RulePlan> plans;
      if (!compile) {
        for (int r : stratum_rules) {
          plans.push_back(BuildPlan(rules[r], r, -1, &scratch));
        }
      }
      for (;;) {
        if (Status s = interrupted(); !s.ok()) {
          finish();
          return s;
        }
        ++iterations;
        Span iter_span = start_span("eval.iteration");
        iter_span.SetAttr("iteration", iterations);
        int64_t t0 = timed ? NowNs() : 0;
        if (compile) {
          for (const CompiledRule& cr : cst->full) run_compiled(cr);
        } else {
          for (const RulePlan& plan : plans) run_plan(plan);
        }
        Status s = fail_if_overflow();
        if (!s.ok()) {
          finish();
          return s;
        }
        int64_t added = advance();
        observe_iteration(&iter_span, t0, added);
        if (added == 0) break;
      }
      continue;
    }

    // Semi-naive. Iteration 0: rules with no same-stratum IDB subgoal.
    int64_t added = 0;
    {
      if (Status s = interrupted(); !s.ok()) {
        finish();
        return s;
      }
      ++iterations;
      Span iter_span = start_span("eval.iteration");
      iter_span.SetAttr("iteration", iterations);
      int64_t t0 = timed ? NowNs() : 0;
      if (compile) {
        for (int i : cst->nonrecursive) run_compiled(cst->full[i]);
      } else {
        for (int r : stratum_rules) {
          if (recursive_subgoals.count(r) > 0) continue;
          run_plan(BuildPlan(rules[r], r, -1, &scratch));
        }
      }
      Status s = fail_if_overflow();
      if (!s.ok()) {
        finish();
        return s;
      }
      added = advance();
      observe_iteration(&iter_span, t0, added);
    }

    // One plan per (rule, same-stratum delta-subgoal occurrence).
    std::vector<RulePlan> delta_plans;
    if (!compile) {
      for (const auto& [r, occurrences] : recursive_subgoals) {
        for (int occurrence : occurrences) {
          delta_plans.push_back(BuildPlan(rules[r], r, occurrence, &scratch));
        }
      }
    }

    while (added > 0) {
      if (Status s = interrupted(); !s.ok()) {
        finish();
        return s;
      }
      ++iterations;
      Span iter_span = start_span("eval.iteration");
      iter_span.SetAttr("iteration", iterations);
      int64_t t0 = timed ? NowNs() : 0;
      if (compile) {
        for (const CompiledRule& cr : cst->delta) run_compiled(cr);
      } else {
        for (const RulePlan& plan : delta_plans) run_plan(plan);
      }
      Status s = fail_if_overflow();
      if (!s.ok()) {
        finish();
        return s;
      }
      added = advance();
      observe_iteration(&iter_span, t0, added);
    }
  }
  finish();
  if (tracing) {
    eval_span.SetAttr("iterations", stats_.iterations);
    eval_span.SetAttr("tuples_derived", stats_.tuples_derived);
  }
  return total;
}

Result<std::vector<Tuple>> EvaluateQuery(const Program& program,
                                         const Database& edb,
                                         EvalOptions options,
                                         EvalStats* stats,
                                         std::vector<RuleProfile>* profiles) {
  SQOD_CHECK_MSG(program.query() != -1, "program has no query predicate");
  Evaluator evaluator(program, options);
  Result<Database> idb = evaluator.Evaluate(edb);
  if (stats != nullptr) *stats = evaluator.stats();
  if (profiles != nullptr) *profiles = evaluator.rule_profiles();
  if (!idb.ok()) return idb.status();
  std::vector<Tuple> out;
  const Relation* rel = idb.value().Find(program.query());
  if (rel != nullptr) {
    out.reserve(rel->size());
    for (TupleRef t : rel->rows()) out.push_back(t.Materialize());
  }
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return out;
}

}  // namespace sqod
