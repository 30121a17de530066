#include "src/sqo/pass_manager.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"
#include "src/sqo/fd.h"
#include "src/sqo/preprocess.h"
#include "src/sqo/residue.h"

namespace sqod {

namespace {

// ------------------------------------------------------------- the passes

class ValidatePass : public Pass {
 public:
  const char* name() const override { return "validate"; }

  Status Run(PassContext& ctx) override {
    SQOD_RETURN_IF_ERROR(ctx.program.Validate());
    if (!ctx.program.NegationOnEdbOnly()) {
      return Status::Unsupported(
          "semantic query optimization requires negation on EDB predicates "
          "only (the paper's Section 2 setting); stratified IDB negation is "
          "supported by the evaluator but not by the rewriting");
    }
    for (const Constraint& ic : *ctx.input_ics) {
      SQOD_RETURN_IF_ERROR(ctx.program.ValidateConstraint(ic));
    }
    return Status::Ok();
  }
};

class NormalizePass : public Pass {
 public:
  const char* name() const override { return "normalize"; }

  Status Run(PassContext& ctx) override {
    ctx.span().SetAttr("rules_in",
                       static_cast<int64_t>(ctx.program.rules().size()));
    ctx.span().SetAttr("ics", static_cast<int64_t>(ctx.input_ics->size()));
    ctx.ics = NormalizeConstraints(*ctx.input_ics);
    ctx.program = NormalizeProgram(ctx.program);
    ctx.provenance = Provenance::Of(ctx.program);  // P's rules, normalized
    ctx.span().SetAttr("rules_out",
                       static_cast<int64_t>(ctx.program.rules().size()));
    return Status::Ok();
  }
};

class FdRewritePass : public Pass {
 public:
  const char* name() const override { return "fd_rewrite"; }

  Status Run(PassContext& ctx) override {
    FdRewriteReport fd_report;
    ctx.program = ApplyFdRewriting(ctx.program, ExtractFds(ctx.ics),
                                   &fd_report, &ctx.provenance);
    ctx.span().SetAttr("unifications", fd_report.unifications);
    ctx.span().SetAttr("atoms_removed", fd_report.atoms_removed);
    return Status::Ok();
  }
};

class LocalRewritePass : public Pass {
 public:
  const char* name() const override { return "local_rewrite"; }

  Status Run(PassContext& ctx) override {
    SQOD_ASSIGN_OR_RETURN(ctx.local, AnalyzeLocalAtoms(ctx.ics));
    SQOD_ASSIGN_OR_RETURN(
        ctx.program,
        RewriteForLocalAtoms(ctx.program, ctx.ics, ctx.local,
                             ctx.options.max_local_rewrite_rules,
                             &ctx.provenance));
    ctx.span().SetAttr("rules_out",
                       static_cast<int64_t>(ctx.program.rules().size()));
    return Status::Ok();
  }
};

class AdornPass : public Pass {
 public:
  const char* name() const override { return "adorn"; }

  Status Run(PassContext& ctx) override {
    AdornOptions adorn_options = ctx.options.adorn;
    adorn_options.tracer = ctx.options.tracer;
    adorn_options.store = ctx.store.get();
    ctx.engine = std::make_unique<AdornmentEngine>(ctx.program, ctx.ics,
                                                   ctx.local, adorn_options);
    SQOD_RETURN_IF_ERROR(ctx.engine->Run());
    ctx.span().SetAttr("passes", ctx.engine->fixpoint_passes());
    ctx.span().SetAttr("apreds",
                       static_cast<int64_t>(ctx.engine->apreds().size()));
    ctx.span().SetAttr("arules",
                       static_cast<int64_t>(ctx.engine->arules().size()));

    SqoReport& report = ctx.report;
    report.provenance = ctx.provenance;
    report.adorned = ctx.engine->AdornedProgram(&report.provenance);
    report.adorned_predicates = static_cast<int>(ctx.engine->apreds().size());
    report.adorned_rules = static_cast<int>(ctx.engine->arules().size());
    if (ctx.options.capture_dumps) {
      report.adornment_dump = ctx.engine->ToString();
    }
    // Default rewriting until (and unless) the tree pass refines it.
    report.rewritten = report.adorned;
    report.query_satisfiable = true;  // not decided without the tree
    return Status::Ok();
  }

  const Program* Current(const PassContext& ctx) const override {
    return &ctx.report.adorned;
  }
};

class TreePass : public Pass {
 public:
  const char* name() const override { return "tree"; }

  bool Applicable(const PassContext& ctx) const override {
    return ctx.engine != nullptr && ctx.program.query() != -1;
  }

  Status Run(PassContext& ctx) override {
    ctx.tree = std::make_unique<QueryTree>(*ctx.engine, ctx.options.tree);
    SQOD_RETURN_IF_ERROR(ctx.tree->Build());

    SqoReport& report = ctx.report;
    report.tree_classes = static_cast<int>(ctx.tree->classes().size());
    report.surviving_classes = 0;
    for (size_t c = 0; c < ctx.tree->classes().size(); ++c) {
      if (ctx.tree->productive()[c] && ctx.tree->reachable()[c]) {
        ++report.surviving_classes;
      }
    }
    ctx.span().SetAttr("goal_classes", report.tree_classes);
    ctx.span().SetAttr("surviving_classes", report.surviving_classes);
    ctx.span().SetAttr("satisfiable", ctx.tree->QuerySatisfiable() ? 1 : 0);

    report.query_satisfiable = ctx.tree->QuerySatisfiable();
    if (ctx.options.capture_dumps) {
      report.tree_dump = ctx.tree->ToString();
      report.tree_dot = ctx.tree->ToDot();
    }
    report.provenance = ctx.provenance;
    report.rewritten = ctx.tree->RewrittenProgram(&report.provenance);
    return Status::Ok();
  }

  const Program* Current(const PassContext& ctx) const override {
    return &ctx.report.rewritten;
  }
};

class ResiduesPass : public Pass {
 public:
  const char* name() const override { return "residues"; }

  Status Run(PassContext& ctx) override {
    // Not the store's AtomMatchMemo: every rule here is renamed apart, so
    // body atoms never repeat across rules and shared match deltas would
    // never hit (~1.5x slower residues phase on E4 WideIc).
    ClassicSqoReport classic;
    ctx.report.rewritten = ApplyClassicSqo(ctx.report.rewritten, ctx.ics,
                                           &classic, &ctx.report.provenance);
    ctx.report.residue_rules_deleted = classic.rules_deleted;
    ctx.report.residue_comparisons_added = classic.comparisons_added;
    ctx.report.residue_negations_added = classic.negations_added;
    ctx.span().SetAttr("rules_deleted", classic.rules_deleted);
    ctx.span().SetAttr("comparisons_added", classic.comparisons_added);
    ctx.span().SetAttr("negations_added", classic.negations_added);
    ctx.span().SetAttr(
        "rules_out",
        static_cast<int64_t>(ctx.report.rewritten.rules().size()));
    return Status::Ok();
  }

  const Program* Current(const PassContext& ctx) const override {
    return &ctx.report.rewritten;
  }
};

class PrunePass : public Pass {
 public:
  const char* name() const override { return "prune"; }

  Status Run(PassContext& ctx) override {
    ctx.span().SetAttr(
        "rules_in",
        static_cast<int64_t>(ctx.report.rewritten.rules().size()));
    ctx.report.rewritten = PruneUnreachable(std::move(ctx.report.rewritten),
                                            &ctx.report.provenance);
    ctx.span().SetAttr(
        "rules_out",
        static_cast<int64_t>(ctx.report.rewritten.rules().size()));
    return Status::Ok();
  }

  const Program* Current(const PassContext& ctx) const override {
    return &ctx.report.rewritten;
  }
};

// The shape columns EXPLAIN reports per pass.
struct ProgramShape {
  int rules = 0;
  int literals = 0;
  int negations = 0;
  int comparisons = 0;
};

ProgramShape ShapeOf(const Program& program) {
  ProgramShape shape;
  shape.rules = static_cast<int>(program.rules().size());
  for (const Rule& rule : program.rules()) {
    shape.literals += static_cast<int>(rule.body.size());
    shape.comparisons += static_cast<int>(rule.comparisons.size());
    for (const Literal& literal : rule.body) {
      if (literal.negated) ++shape.negations;
    }
  }
  return shape;
}

void RecordPipelineGauges(PassContext& ctx, const SqoOptions& options) {
  if (ctx.store != nullptr) {
    // Mirror the store stats into the report so EXPLAIN can quote them
    // without a registry.
    TripletStore::Stats s = ctx.store->stats();
    ctx.report.intern_hits = s.intern_hits;
    ctx.report.intern_misses = s.intern_misses;
    ctx.report.memo_hits = s.memo_hits;
    ctx.report.store_size = s.size;
  }
  if (options.metrics == nullptr) return;
  const SqoReport& report = ctx.report;
  MetricsRegistry* m = options.metrics;
  m->GetGauge("sqo/adorned_preds")->Set(report.adorned_predicates);
  m->GetGauge("sqo/adorned_rules")->Set(report.adorned_rules);
  m->GetGauge("sqo/tree_classes")->Set(report.tree_classes);
  m->GetGauge("sqo/surviving_classes")->Set(report.surviving_classes);
  m->GetGauge("sqo/rewritten_rules")
      ->Set(static_cast<int64_t>(report.rewritten.rules().size()));
  if (ctx.store != nullptr) {
    // Hash-consing effectiveness for this run: counters accumulate across
    // runs sharing the registry (one Prepare = one run), the size gauge
    // holds the store's final population.
    TripletStore::Stats s = ctx.store->stats();
    m->GetCounter("sqo/intern_hits")->Add(s.intern_hits);
    m->GetCounter("sqo/intern_misses")->Add(s.intern_misses);
    m->GetCounter("sqo/memo_hits")->Add(s.memo_hits);
    m->GetGauge("sqo/triplet_store/size")->Set(s.size);
  }
}

}  // namespace

void ReserveInputVariables(const Program& program,
                           const std::vector<Constraint>& ics,
                           FreshNameScope* scope) {
  for (const Rule& rule : program.rules()) scope->Reserve(rule.Vars());
  for (const Constraint& ic : ics) scope->Reserve(ic.Vars());
}

bool Pass::Applicable(const PassContext&) const { return true; }

const Program* Pass::Current(const PassContext& ctx) const {
  return &ctx.program;
}

PassManager::PassManager(SqoOptions options) : options_(std::move(options)) {
  passes_.push_back(std::make_unique<ValidatePass>());
  passes_.push_back(std::make_unique<NormalizePass>());
  passes_.push_back(std::make_unique<FdRewritePass>());
  passes_.push_back(std::make_unique<LocalRewritePass>());
  passes_.push_back(std::make_unique<AdornPass>());
  passes_.push_back(std::make_unique<TreePass>());
  passes_.push_back(std::make_unique<ResiduesPass>());
  passes_.push_back(std::make_unique<PrunePass>());
}

PassManager::~PassManager() = default;

const std::vector<std::string>& PassManager::PassNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "validate",  "normalize", "fd_rewrite", "local_rewrite",
      "adorn",     "tree",      "residues",   "prune"};
  return *names;
}

bool PassManager::IsDisabled(const std::string& name) const {
  const std::vector<std::string>& disabled = options_.disabled_passes;
  return std::find(disabled.begin(), disabled.end(), name) != disabled.end();
}

Result<SqoReport> PassManager::Run(const Program& program,
                                   const std::vector<Constraint>& ics) {
  PassContext ctx;
  SQOD_RETURN_IF_ERROR(RunInto(program, ics, &ctx));
  return std::move(ctx.report);
}

Status PassManager::RunInto(const Program& program,
                            const std::vector<Constraint>& ics,
                            PassContext* ctx) {
  const std::vector<std::string>& known = PassNames();
  for (const std::string& name : options_.disabled_passes) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::string all;
      for (const std::string& k : known) {
        if (!all.empty()) all += ", ";
        all += k;
      }
      return Status::InvalidArgument("unknown pass \"" + name +
                                     "\" in disabled_passes (passes: " + all +
                                     ")");
    }
  }

  // Fresh names are run-scoped (term.h): the run reuses the names every
  // earlier run drew, apart from its own input's variables.
  FreshNameScope fresh_names;
  ReserveInputVariables(program, ics, &fresh_names);

  ctx->input = &program;
  ctx->input_ics = &ics;
  ctx->options = options_;
  ctx->program = program;
  ctx->provenance = Provenance::Of(program);
  ctx->ics = ics;
  ctx->store = std::make_unique<TripletStore>();

  Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  Span root;
  if (tracing) root = tracer->StartSpan("sqo.optimize");

  // Shape chain: each pass's "before" is its predecessor's "after", seeded
  // from the input program, so the PassRunInfo rows account for every rule,
  // literal, negation, and order atom the pipeline adds or removes.
  ProgramShape shape = ShapeOf(program);

  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassRunInfo info;
    info.name = pass->name();
    info.rules_before = shape.rules;
    info.literals_before = shape.literals;
    info.negations_before = shape.negations;
    info.comparisons_before = shape.comparisons;
    if (IsDisabled(info.name)) {
      info.disabled = true;
    } else if (!pass->Applicable(*ctx)) {
      info.skipped = true;
    } else {
      Span span;
      if (tracing) span = tracer->StartSpan("sqo." + info.name);
      ctx->active_span = &span;
      const int64_t t0 = NowNs();
      Status s = pass->Run(*ctx);
      info.wall_ns = NowNs() - t0;
      ctx->active_span = nullptr;
      if (options_.metrics != nullptr) {
        options_.metrics->GetGauge("sqo/phase/" + info.name + "_ns")
            ->Set(info.wall_ns);
      }
      if (!s.ok()) return s;
    }
    if (info.ran()) shape = ShapeOf(*pass->Current(*ctx));
    info.rules_after = shape.rules;
    info.literals_after = shape.literals;
    info.negations_after = shape.negations;
    info.comparisons_after = shape.comparisons;
    ctx->report.pass_runs.push_back(std::move(info));

    // Boundary bookkeeping: after the pre-adornment stages the current
    // program is the report's "normalized" artifact; if adornment did not
    // run, it is also the final rewriting that later passes refine.
    if (std::strcmp(pass->name(), "local_rewrite") == 0) {
      ctx->report.normalized = ctx->program;
      ctx->report.ics = ctx->ics;
    } else if (std::strcmp(pass->name(), "adorn") == 0 &&
               ctx->engine == nullptr) {
      ctx->report.rewritten = ctx->program;
      ctx->report.provenance = ctx->provenance;
      ctx->report.query_satisfiable = true;
    }
  }

  RecordPipelineGauges(*ctx, options_);
  return Status::Ok();
}

}  // namespace sqod
