#include "src/eval/bytecode.h"

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/eval/evaluator.h"
#include "src/eval/kernel.h"
#include "src/eval/relation.h"
#include "src/obs/trace.h"

namespace sqod {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kScanFull: return "SCAN_FULL";
    case OpCode::kScanDelta: return "SCAN_DELTA";
    case OpCode::kProbeIndex: return "PROBE_INDEX";
    case OpCode::kLoadCol: return "LOAD_COL";
    case OpCode::kCheckCol: return "CHECK_COL";
    case OpCode::kFilterCmp: return "FILTER_CMP";
    case OpCode::kCheckNeg: return "CHECK_NEG";
    case OpCode::kEmitHead: return "EMIT_HEAD";
  }
  return "?";
}

const char* KernelName(KernelId k) {
  switch (k) {
    case KernelId::kGeneric: return "generic";
    case KernelId::kScanFilterEmit: return "scan_filter_emit";
    case KernelId::kScanProbeEmit: return "scan_probe_emit";
  }
  return "?";
}

std::string CompiledRule::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "rule %d delta=%d regs=%d kernel=%s ops=%d\n", rule_index,
                delta_subgoal, num_regs, KernelName(kernel), op_count());
  out += line;
  for (size_t ip = 0; ip < code.size(); ++ip) {
    const Instr& in = code[ip];
    switch (in.op) {
      case OpCode::kScanFull:
      case OpCode::kScanDelta:
      case OpCode::kProbeIndex: {
        const LevelInfo& lvl = levels[in.b];
        std::snprintf(line, sizeof(line),
                      "%3zu  %-11s level=%d pred=%s mask=%llx keys=%d\n", ip,
                      OpCodeName(in.op), in.b, PredName(lvl.pred).c_str(),
                      static_cast<unsigned long long>(lvl.mask), lvl.key_len);
        break;
      }
      case OpCode::kLoadCol:
        std::snprintf(line, sizeof(line), "%3zu  %-11s col=%d -> r%d\n", ip,
                      OpCodeName(in.op), in.a, in.b);
        break;
      case OpCode::kCheckCol:
        std::snprintf(line, sizeof(line), "%3zu  %-11s col=%d == r%d\n", ip,
                      OpCodeName(in.op), in.a, in.b);
        break;
      case OpCode::kFilterCmp:
        std::snprintf(line, sizeof(line), "%3zu  %-11s %s %s %s\n", ip,
                      OpCodeName(in.op),
                      in.b >= 0 ? ("r" + std::to_string(in.b)).c_str()
                                : ("c" + std::to_string(ConstIdx(in.b))).c_str(),
                      CmpOpName(static_cast<CmpOp>(in.a)),
                      in.c >= 0 ? ("r" + std::to_string(in.c)).c_str()
                                : ("c" + std::to_string(ConstIdx(in.c))).c_str());
        break;
      case OpCode::kCheckNeg: {
        const NegInfo& neg = negs[in.b];
        std::snprintf(line, sizeof(line), "%3zu  %-11s pred=%s args=%d\n", ip,
                      OpCodeName(in.op), PredName(neg.pred).c_str(),
                      neg.args_len);
        break;
      }
      case OpCode::kEmitHead:
        std::snprintf(line, sizeof(line), "%3zu  %-11s pred=%s arity=%d\n", ip,
                      OpCodeName(in.op), PredName(head_pred).c_str(),
                      head_arity);
        break;
    }
    out += line;
  }
  return out;
}

namespace {

// Interns a constant into the rule's pool, deduplicating by equality (pools
// are tiny — a handful of constants per rule at most).
int32_t InternConst(CompiledRule* out, const Value& v) {
  for (size_t i = 0; i < out->consts.size(); ++i) {
    if (out->consts[i] == v) return static_cast<int32_t>(i);
  }
  out->consts.push_back(v);
  return static_cast<int32_t>(out->consts.size() - 1);
}

ArgSrc LowerArg(CompiledRule* out, const ArgRef& a) {
  return a.var < 0 ? ConstSrc(InternConst(out, a.const_val)) : RegSrc(a.var);
}

}  // namespace

CompiledRule CompileRulePlan(const RulePlan& plan,
                             const std::set<PredId>& idb_preds) {
  CompiledRule out;
  out.rule_index = plan.rule_index;
  out.delta_subgoal = plan.delta_subgoal;
  out.num_regs = plan.num_vars;
  out.head_pred = plan.head_pred;
  out.head_arity = static_cast<int>(plan.head.size());

  // Sized up front: an opener plus ≤ 1 action per column per level, one
  // instr per filter/negation, one emit.
  size_t code_guess = 1, args_guess = plan.head.size();
  for (const PlanStep& step : plan.steps) {
    code_guess += step.args.size() + 1;
    args_guess += step.args.size();
  }
  out.code.reserve(code_guess);
  out.args_pool.reserve(args_guess);

  // Registers hold the rule's variables under the plan's dense renumbering.
  // A register is bound (holds a live value) from the first join level that
  // loads it — a static property of the plan order, tracked here at compile
  // time so the executor never tests boundness. Fixed-size buffers: arity
  // is capped at Relation::kMaxArity and plans are compiled in bulk at
  // Prepare, so per-level heap churn would dominate the lowering cost.
  std::vector<uint8_t> reg_bound(plan.num_vars, 0);
  if (plan.head_bound) {
    for (const ArgRef& a : plan.head) {
      if (a.var >= 0) reg_bound[a.var] = 1;
    }
  }

  for (const PlanStep& step : plan.steps) {
    switch (step.kind) {
      case PlanStep::Kind::kComparison: {
        Instr in;
        in.op = OpCode::kFilterCmp;
        in.a = static_cast<uint8_t>(step.op);
        in.b = LowerArg(&out, step.lhs);
        in.c = LowerArg(&out, step.rhs);
        out.code.push_back(in);
        break;
      }
      case PlanStep::Kind::kNegation: {
        NegInfo neg;
        neg.pred = step.pred;
        neg.body_index = step.index;
        neg.source = idb_preds.count(step.pred) > 0 ? RelSource::kIdbTotal
                                                    : RelSource::kEdb;
        neg.arity = static_cast<int>(step.args.size());
        neg.args_off = static_cast<uint32_t>(out.args_pool.size());
        neg.args_len = static_cast<uint16_t>(step.args.size());
        for (const ArgRef& a : step.args) {
          out.args_pool.push_back(LowerArg(&out, a));
        }
        Instr in;
        in.op = OpCode::kCheckNeg;
        in.b = static_cast<int32_t>(out.negs.size());
        out.negs.push_back(neg);
        out.code.push_back(in);
        break;
      }
      case PlanStep::Kind::kJoin: {
        LevelInfo lvl;
        lvl.pred = step.pred;
        lvl.body_index = step.index;
        if (idb_preds.count(step.pred) == 0) {
          lvl.source = RelSource::kEdb;
        } else if (step.index == plan.delta_subgoal) {
          lvl.source = RelSource::kIdbDelta;
        } else {
          lvl.source = RelSource::kIdbTotal;
        }
        lvl.arity = static_cast<int>(step.args.size());

        // The probe mask: constants plus registers bound by EARLIER levels
        // (or seeded head registers). Boundness at a plan position does not
        // depend on the data, and a variable first bound by this atom is
        // unbound for masking purposes even when it repeats within the atom
        // (the repeat becomes an unmasked register compare against the
        // freshly loaded column).
        uint64_t first_load = 0;
        int32_t atom_loads[Relation::kMaxArity];
        int num_atom_loads = 0;
        for (int i = 0; i < lvl.arity; ++i) {
          const ArgRef& a = step.args[i];
          if (a.var < 0 || reg_bound[a.var]) {
            lvl.mask |= uint64_t{1} << i;
          } else if (std::find(atom_loads, atom_loads + num_atom_loads,
                               a.var) == atom_loads + num_atom_loads) {
            first_load |= uint64_t{1} << i;
            atom_loads[num_atom_loads++] = a.var;
          }
        }
        for (int k = 0; k < num_atom_loads; ++k) reg_bound[atom_loads[k]] = 1;

        // Key sources, in mask-column order (what Relation::Probe expects).
        lvl.key_off = static_cast<uint32_t>(out.args_pool.size());
        for (int i = 0; i < lvl.arity; ++i) {
          if ((lvl.mask >> i) & 1) {
            out.args_pool.push_back(LowerArg(&out, step.args[i]));
            ++lvl.key_len;
          }
        }

        const int32_t level_idx = static_cast<int32_t>(out.levels.size());
        Instr open;
        open.op = lvl.mask != 0 ? OpCode::kProbeIndex
                  : lvl.source == RelSource::kIdbDelta ? OpCode::kScanDelta
                                                       : OpCode::kScanFull;
        open.b = level_idx;
        lvl.open_ip = static_cast<uint32_t>(out.code.size());
        out.code.push_back(open);

        // Row actions: a probed level's rows already match every masked
        // column, and a scanned level (mask 0) has none, so only unmasked
        // columns need work — loads for first occurrences, register
        // compares for in-atom repeats.
        for (int i = 0; i < lvl.arity; ++i) {
          if ((lvl.mask >> i) & 1) continue;
          Instr in;
          in.a = static_cast<uint8_t>(i);
          in.b = step.args[i].var;
          in.op = (first_load >> i) & 1 ? OpCode::kLoadCol : OpCode::kCheckCol;
          out.code.push_back(in);
        }
        lvl.post_ip = static_cast<uint32_t>(out.code.size());
        out.levels.push_back(lvl);
        break;
      }
    }
  }

  out.head_off = static_cast<uint32_t>(out.args_pool.size());
  for (const ArgRef& a : plan.head) out.args_pool.push_back(LowerArg(&out, a));
  Instr emit;
  emit.op = OpCode::kEmitHead;
  out.code.push_back(emit);

  out.kernel = SelectKernel(out);
  return out;
}

Result<CompiledProgram> CompileProgram(const Program& program) {
  const int64_t t0 = NowNs();
  Result<std::map<PredId, int>> strata = program.Stratify();
  if (!strata.ok()) return strata.status();
  int max_stratum = 0;
  for (const auto& [pred, s] : strata.value()) {
    max_stratum = std::max(max_stratum, s);
  }

  CompiledProgram out;
  out.idb_preds = program.IdbPreds();
  const std::vector<Rule>& rules = program.rules();
  out.num_rules = static_cast<int>(rules.size());
  out.strata.resize(max_stratum + 1);

  PlanScratch scratch;
  auto lower = [&](const Rule& rule, int rule_index, int first) {
    RulePlan plan = BuildPlan(rule, rule_index, first, &scratch);
    CompiledRule cr = CompileRulePlan(plan, out.idb_preds);
    out.max_regs = std::max(out.max_regs, cr.num_regs);
    out.max_levels = std::max(out.max_levels, static_cast<int>(cr.levels.size()));
    out.total_ops += cr.op_count();
    out.plans.push_back({cr.rule_index, cr.delta_subgoal, cr.kernel,
                         cr.op_count()});
    return cr;
  };

  for (int stratum = 0; stratum <= max_stratum; ++stratum) {
    CompiledProgram::Stratum& st = out.strata[stratum];
    for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
      if (strata.value().at(rules[r].head.pred()) == stratum) {
        st.rule_indices.push_back(r);
      }
    }
    // Same-stratum positive IDB subgoal body indices, per rule — the rules
    // they belong to iterate from deltas; the rest seed iteration 0.
    std::map<int, std::vector<int>> recursive_subgoals;
    for (int r : st.rule_indices) {
      for (size_t i = 0; i < rules[r].body.size(); ++i) {
        const Literal& l = rules[r].body[i];
        if (!l.negated && out.idb_preds.count(l.atom.pred()) > 0 &&
            strata.value().at(l.atom.pred()) == stratum) {
          recursive_subgoals[r].push_back(static_cast<int>(i));
        }
      }
    }
    for (int r : st.rule_indices) {
      if (recursive_subgoals.count(r) == 0) {
        st.full.push_back(lower(rules[r], r, -1));
      }
    }
    for (const auto& [r, occurrences] : recursive_subgoals) {
      for (int occurrence : occurrences) {
        st.delta.push_back(lower(rules[r], r, occurrence));
      }
    }
  }
  out.compile_ns = NowNs() - t0;
  return out;
}

bool ResolveRelations(const CompiledRule& rule, const Database& edb,
                      const Database& idb, const IdbFrontier& frontier,
                      VmContext* ctx) {
  // Re-resolved per rule activation: the frontier windows move every
  // iteration, and IDB relations appear when their first tuple is derived.
  // A level reads the whole EDB relation, or the frontier window of its IDB
  // relation (the whole relation when the frontier has no entry: a
  // completed lower stratum).
  ctx->levels.clear();
  for (const LevelInfo& lvl : rule.levels) {
    LevelRows rows;
    rows.rel = (lvl.source == RelSource::kEdb ? edb : idb).Find(lvl.pred);
    if (rows.rel != nullptr) {
      rows.hi = rows.rel->size();
      auto it = lvl.source == RelSource::kEdb ? frontier.end()
                                              : frontier.find(lvl.pred);
      if (it != frontier.end()) {
        rows.hi = it->second.hi;
        if (lvl.source == RelSource::kIdbDelta) rows.lo = it->second.lo;
      }
    }
    ctx->levels.push_back(rows);
  }
  ctx->negs.clear();
  for (const NegInfo& neg : rule.negs) {
    LevelRows rows;
    rows.rel = (neg.source == RelSource::kEdb ? edb : idb).Find(neg.pred);
    ctx->negs.push_back(rows);
  }
  // No rows at the FIRST level means zero work: no counter moves. Deeper
  // levels must still run (outer probes are observable), so only level 0
  // prunes.
  return rule.levels.empty() || !ctx->levels[0].empty();
}

}  // namespace sqod
