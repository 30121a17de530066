#include "src/eval/kernel.h"

#include "src/eval/evaluator.h"
#include "src/eval/relation.h"

namespace sqod {

namespace {

// True when every row action of `lvl` is kLoadCol — the level binds fresh
// registers only, with no in-atom repeats.
bool LoadOnly(const CompiledRule& rule, const LevelInfo& lvl) {
  for (uint32_t ip = lvl.open_ip + 1; ip < lvl.post_ip; ++ip) {
    if (rule.code[ip].op != OpCode::kLoadCol) return false;
  }
  return true;
}

}  // namespace

KernelId SelectKernel(const CompiledRule& rule) {
  // open_ip == 0 rules out ground comparisons planned before the level,
  // which the kernel's post-range loop would never execute.
  if (rule.levels.size() == 1 && rule.negs.empty() &&
      rule.levels[0].open_ip == 0) {
    return KernelId::kScanFilterEmit;
  }
  // Without negations, the ops between the levels and before the emit are
  // comparison filters, which the kernel runs after each level's loads.
  if (rule.levels.size() == 2 && rule.negs.empty() &&
      rule.levels[0].open_ip == 0) {
    const LevelInfo& outer = rule.levels[0];
    const LevelInfo& inner = rule.levels[1];
    if (outer.mask == 0 && inner.mask != 0 && inner.key_len >= 1 &&
        inner.key_len <= 4 && LoadOnly(rule, outer) && LoadOnly(rule, inner)) {
      return KernelId::kScanProbeEmit;
    }
  }
  return KernelId::kGeneric;
}

namespace {

// Materializes the head from registers/constants and emits it into the
// sink. Returns false when the sink stops the activation.
inline bool EmitHead(const CompiledRule& rule, const Value* consts,
                     const Value* regs, HeadSink* sink, int64_t* firings) {
  ++*firings;
  Value head[Relation::kMaxArity];
  const int n = rule.head_arity;
  const ArgSrc* head_args = rule.args_pool.data() + rule.head_off;
  for (int i = 0; i < n; ++i) {
    ArgSrc s = head_args[i];
    head[i] = IsConstSrc(s) ? consts[ConstIdx(s)] : regs[s];
  }
  return (*sink)(head, n);
}

// Runs the comparison filters [begin, end): true when every one holds.
// Counts each filter evaluated, like the generic loop.
inline bool PassFilters(const Instr* begin, const Instr* end,
                        const Value* consts, const Value* regs,
                        int64_t* cmps) {
  for (const Instr* in = begin; in < end; ++in) {
    ++*cmps;
    if (!EvalCmp(IsConstSrc(in->b) ? consts[ConstIdx(in->b)] : regs[in->b],
                 static_cast<CmpOp>(in->a),
                 IsConstSrc(in->c) ? consts[ConstIdx(in->c)] : regs[in->c])) {
      return false;
    }
  }
  return true;
}

// scan_filter_emit: one level, optional comparison filters, emit. Row
// sourcing (probe vs scan) is decided once, outside the loop.
void RunScanFilterEmit(const CompiledRule& rule, VmContext* ctx,
                       HeadSink* sink) {
  const LevelInfo& lvl = rule.levels[0];
  const LevelRows& rows = ctx->levels[0];
  if (rows.empty()) return;
  const Relation* rel = rows.rel;

  const Instr* code = rule.code.data();
  const Value* consts = rule.consts.data();
  const ArgSrc* args_pool = rule.args_pool.data();
  Value* regs = ctx->regs.data();

  int64_t probes = 0, cmps = 0, ops = 0, firings = 0;

  const uint32_t actions_begin = lvl.open_ip + 1;
  const uint32_t actions_end = lvl.post_ip;
  // Post range: comparison filters between the level and the final emit.
  const Instr* post_begin = code + lvl.post_ip;
  const Instr* post_end = code + rule.code.size() - 1;

  auto try_row = [&](const Value* row) -> bool {  // false = stop
    ++probes;
    for (uint32_t ip = actions_begin; ip < actions_end; ++ip) {
      const Instr& in = code[ip];
      ++ops;
      if (in.op == OpCode::kLoadCol) {
        regs[in.b] = row[in.a];
      } else if (row[in.a] != regs[in.b]) {  // kCheckCol
        return true;
      }
    }
    if (!PassFilters(post_begin, post_end, consts, regs, &cmps)) return true;
    ++ops;
    return EmitHead(rule, consts, regs, sink, &firings);
  };

  if (lvl.mask != 0) {
    // A single-level probe key is necessarily constant (no register is
    // bound before the first level).
    Value key[Relation::kMaxArity];
    for (int k = 0; k < lvl.key_len; ++k) {
      ArgSrc s = args_pool[lvl.key_off + k];
      key[k] = IsConstSrc(s) ? consts[ConstIdx(s)] : regs[s];
    }
    Relation::Matches m = rel->Probe(lvl.mask, key, rows.lo, rows.hi);
    for (int32_t r = m.row; r >= 0; r = m.next(r)) {
      if (!rel->live(r)) continue;  // tombstones skip before the counter
      if (!try_row(rel->row(r).data())) break;
    }
  } else {
    for (int64_t r = rows.lo; r < rows.hi; ++r) {
      if (!rel->live(r)) continue;
      if (!try_row(rel->row(r).data())) break;
    }
  }

  RuleProfile* prof = ctx->profile;
  prof->probes += probes;
  prof->cmp_checks += cmps;
  prof->firings += firings;
  prof->ops += ops + cmps + 1;  // + the filters and the level opener
}

// scan_probe_emit: scan the outer level, probe the inner on a KLen-wide
// fully-bound key, emit per match. Both levels are load-only, so the inner
// loop is branch-minimal: load, filter, probe, chain-walk, load, filter,
// emit. A level's comparison filters (usually none) run right after its
// loads, where the plan placed them.
template <int KLen>
void RunScanProbeEmit(const CompiledRule& rule, VmContext* ctx,
                      HeadSink* sink) {
  const LevelInfo& outer = rule.levels[0];
  const LevelInfo& inner = rule.levels[1];
  const LevelRows& outer_rows = ctx->levels[0];
  const LevelRows& inner_rows = ctx->levels[1];
  if (outer_rows.empty()) return;
  const Relation* outer_rel = outer_rows.rel;
  const Relation* inner_rel = inner_rows.rel;

  const Instr* code = rule.code.data();
  const Value* consts = rule.consts.data();
  const ArgSrc* args_pool = rule.args_pool.data();
  Value* regs = ctx->regs.data();

  int64_t probes = 0, cmps = 0, ops = 0, firings = 0;

  // Pre-resolved action/key/filter descriptors, hoisted out of both loops.
  const Instr* outer_loads = code + outer.open_ip + 1;
  const int outer_nloads = static_cast<int>(outer.post_ip - outer.open_ip - 1);
  const Instr* inner_loads = code + inner.open_ip + 1;
  const int inner_nloads = static_cast<int>(inner.post_ip - inner.open_ip - 1);
  const ArgSrc* key_srcs = args_pool + inner.key_off;
  const uint64_t inner_mask = inner.mask;
  const bool inner_live = !inner_rows.empty();
  const Instr* outer_filters = code + outer.post_ip;
  const Instr* outer_filters_end = code + inner.open_ip;
  const Instr* inner_filters = code + inner.post_ip;
  const Instr* inner_filters_end = code + rule.code.size() - 1;

  Value key[KLen];
  for (int64_t r = outer_rows.lo, end = outer_rows.hi; r < end; ++r) {
    if (!outer_rel->live(r)) continue;  // tombstones skip before the counter
    ++probes;  // outer candidate row
    const Value* row = outer_rel->row(r).data();
    for (int i = 0; i < outer_nloads; ++i) {
      regs[outer_loads[i].b] = row[outer_loads[i].a];
    }
    ops += outer_nloads + 1;
    if (!PassFilters(outer_filters, outer_filters_end, consts, regs, &cmps)) {
      continue;
    }
    if (!inner_live) continue;  // inner level can never match
    for (int k = 0; k < KLen; ++k) {
      ArgSrc s = key_srcs[k];
      key[k] = IsConstSrc(s) ? consts[ConstIdx(s)] : regs[s];
    }
    Relation::Matches m =
        inner_rel->Probe(inner_mask, key, inner_rows.lo, inner_rows.hi);
    for (int32_t ir = m.row; ir >= 0; ir = m.next(ir)) {
      if (!inner_rel->live(ir)) continue;
      ++probes;  // inner candidate row
      const Value* irow = inner_rel->row(ir).data();
      for (int i = 0; i < inner_nloads; ++i) {
        regs[inner_loads[i].b] = irow[inner_loads[i].a];
      }
      ops += inner_nloads + 2;
      if (!PassFilters(inner_filters, inner_filters_end, consts, regs,
                       &cmps)) {
        continue;
      }
      if (!EmitHead(rule, consts, regs, sink, &firings)) {
        r = end;  // the sink stopped the activation
        break;
      }
    }
  }

  RuleProfile* prof = ctx->profile;
  prof->probes += probes;
  prof->cmp_checks += cmps;
  prof->firings += firings;
  prof->ops += ops + cmps + 2;  // + the filters and the two level openers
}

}  // namespace

KernelId RunCompiled(const CompiledRule& rule, VmContext* ctx,
                     HeadSink* sink) {
  switch (rule.kernel) {
    case KernelId::kGeneric:
      break;
    case KernelId::kScanFilterEmit:
      RunScanFilterEmit(rule, ctx, sink);
      return KernelId::kScanFilterEmit;
    case KernelId::kScanProbeEmit:
      switch (rule.levels[1].key_len) {
        case 1: RunScanProbeEmit<1>(rule, ctx, sink); return rule.kernel;
        case 2: RunScanProbeEmit<2>(rule, ctx, sink); return rule.kernel;
        case 3: RunScanProbeEmit<3>(rule, ctx, sink); return rule.kernel;
        case 4: RunScanProbeEmit<4>(rule, ctx, sink); return rule.kernel;
      }
      break;
  }
  RunBytecode(rule, ctx, *sink);
  return KernelId::kGeneric;
}

}  // namespace sqod
