#ifndef SQOD_EVAL_BYTECODE_H_
#define SQOD_EVAL_BYTECODE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/eval/database.h"
#include "src/eval/evaluator.h"
#include "src/eval/plan.h"

namespace sqod {

// Flat register bytecode for rule plans (docs/evaluator.md, "Compiled
// bytecode"). At Prepare time each RulePlan is lowered into a dense
// instruction array over rule-local value registers: join levels open as
// SCAN_FULL / SCAN_DELTA / PROBE_INDEX ops with statically-resolved
// relation sources and probe masks (boundness is a compile-time fact of the
// plan order), per-row column ops load or check registers, filters compare
// pre-resolved sources, and EMIT_HEAD materializes the head. The executor
// is a tight dispatch loop with an explicit cursor stack — no per-tuple
// Kind switches over plan objects, no dynamic boundness tests, no binding
// trail. The same loop runs evaluation and incremental maintenance; only
// its row resolution (LevelRows) and emit target (the sink) differ.
// Specialized kernels (src/eval/kernel.h) bypass even the dispatch loop for
// the evaluator's dominant shapes.

enum class OpCode : uint8_t {
  // Join-level openers; `b` indexes CompiledRule::levels. The opcode
  // mirrors the level's statically-resolved row source: PROBE_INDEX when
  // the level has bound columns (mask != 0), SCAN_DELTA when it reads the
  // semi-naive delta, SCAN_FULL otherwise.
  kScanFull,
  kScanDelta,
  kProbeIndex,
  // Per-row column ops against the current level's row:
  kLoadCol,   // regs[b] = row[a]
  kCheckCol,  // row[a] == regs[b] else next row
  // Filters:
  kFilterCmp,  // EvalCmp(src b, CmpOp a, src c) else next row
  kCheckNeg,   // negs[b] absent else next row
  // Head:
  kEmitHead,  // materialize head, dedup, stage; then next row
};

const char* OpCodeName(OpCode op);

// An argument source: a register id when >= 0, otherwise a constant-pool
// index encoded as ~idx.
using ArgSrc = int32_t;
inline constexpr ArgSrc RegSrc(int32_t reg) { return reg; }
inline constexpr ArgSrc ConstSrc(int32_t idx) { return ~idx; }
inline constexpr bool IsConstSrc(ArgSrc s) { return s < 0; }
inline constexpr int32_t ConstIdx(ArgSrc s) { return ~s; }

// Where a level (or negation check) reads its rows from. Resolved at
// compile time: predicate classification and the delta subgoal are both
// static properties of the plan, so the executor never tests them per row.
// Both IDB sources read the one IDB relation of the predicate, through the
// rows of its IdbFrontier window: kIdbTotal the iteration's snapshot
// [0, hi), kIdbDelta the previous iteration's derivations [lo, hi).
// Evaluation resolves rows from it (ResolveRelations); maintenance resolves
// each level and negation from its body position instead.
enum class RelSource : uint8_t { kEdb, kIdbTotal, kIdbDelta };

// The semi-naive frontier of one IDB relation during an iteration. Derived
// tuples are appended to the relation in derivation order, so each
// iteration's new tuples are a contiguous row range: rows [lo, hi) are the
// previous iteration's (the delta), rows [0, hi) everything derived before
// this iteration began (the snapshot), and rows from hi on are this
// iteration's own derivations, which no plan of this iteration reads.
struct RowWindow {
  int64_t lo = 0;
  int64_t hi = 0;
};
using IdbFrontier = std::unordered_map<PredId, RowWindow>;

// The rows one join level (or negation check) reads: `rel`'s row ids
// [lo, hi) that are visible at `as_of`. as_of < 0 reads the current live
// set (live(r)); as_of = v reads snapshot v (LiveAt(r, v)), the old state
// incremental maintenance joins against. Negations use rel and as_of only.
struct LevelRows {
  const Relation* rel = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t as_of = -1;
  bool empty() const { return rel == nullptr || lo >= hi; }
  bool visible(int64_t r) const {
    return as_of < 0 ? rel->live(r) : rel->LiveAt(r, as_of);
  }
};

// One bytecode instruction. Fixed 12-byte layout; wide operands (probe
// masks, key/argument lists) live in the owning CompiledRule's side tables.
struct Instr {
  OpCode op;
  uint8_t a = 0;   // column index, or CmpOp for kFilterCmp
  int32_t b = 0;   // register / level / neg index, or lhs ArgSrc
  int32_t c = 0;   // rhs ArgSrc for kFilterCmp
};

// Static description of one join level (one positive subgoal). Its row
// actions are the ops [open_ip + 1, post_ip): one per unmasked column, since
// the index probe already matched every masked one.
struct LevelInfo {
  PredId pred = -1;
  int body_index = -1;  // into rule.body
  RelSource source = RelSource::kEdb;
  int arity = 0;
  uint64_t mask = 0;      // bound columns (compile-time constant)
  uint32_t key_off = 0;   // ArgSrc run in args_pool, mask-column order
  uint16_t key_len = 0;   // == popcount(mask)
  uint32_t open_ip = 0;   // the opener instruction
  uint32_t post_ip = 0;   // first op after the row actions
};

// Static description of one negation check.
struct NegInfo {
  PredId pred = -1;
  int body_index = -1;  // into rule.body
  RelSource source = RelSource::kEdb;  // kEdb or kIdbTotal
  int arity = 0;
  uint32_t args_off = 0;  // ArgSrc run in args_pool
  uint16_t args_len = 0;
};

// The kernel chosen for a compiled plan (see src/eval/kernel.h).
enum class KernelId : uint8_t {
  kGeneric = 0,        // bytecode dispatch loop
  kScanFilterEmit = 1, // single subgoal: scan/probe, filter, emit
  kScanProbeEmit = 2,  // binary join: scan x probe on a bound key, emit
};
constexpr int kNumKernels = 3;

const char* KernelName(KernelId k);

// One lowered (rule, delta-subgoal) plan.
struct CompiledRule {
  int rule_index = -1;
  int delta_subgoal = -1;  // body index reading the delta, or -1
  int num_regs = 0;
  PredId head_pred = -1;
  int head_arity = 0;
  uint32_t head_off = 0;  // ArgSrc run in args_pool
  KernelId kernel = KernelId::kGeneric;

  std::vector<Instr> code;
  std::vector<LevelInfo> levels;
  std::vector<NegInfo> negs;
  std::vector<Value> consts;
  std::vector<ArgSrc> args_pool;

  int op_count() const { return static_cast<int>(code.size()); }

  // Human-readable disassembly (one op per line), for tests and EXPLAIN
  // debugging.
  std::string ToString() const;
};

// A whole program lowered to bytecode: per-stratum plan sets plus the
// static evaluation facts (stratification, IDB classification) the
// evaluator would otherwise recompute per request. Immutable once built;
// safe to share across threads (PreparedProgram caches one, and a
// materialized view maintains with it).
struct CompiledProgram {
  // One stratum per strongly connected component of the IDB dependency
  // graph, in Program::Stratify's order.
  struct Stratum {
    std::vector<int> rule_indices;      // program rule indices, this stratum
    // One full plan (delta_subgoal = -1) per stratum rule with no
    // same-stratum positive IDB subgoal, in rule_indices order: the
    // iteration-0 set.
    std::vector<CompiledRule> full;
    // One plan per (rule, same-stratum positive IDB occurrence): every
    // later iteration.
    std::vector<CompiledRule> delta;

    // The one definition of a recursive stratum, for evaluation (which
    // iterates it) and maintenance (which maintains it by DRed rather than
    // counting). A non-recursive stratum has every rule as a full plan and
    // runs one pass.
    bool recursive() const { return !delta.empty(); }
  };

  std::vector<Stratum> strata;
  std::set<PredId> idb_preds;
  int num_rules = 0;
  int max_regs = 0;    // max CompiledRule::num_regs, for scratch sizing
  int max_levels = 0;  // max level count, for the cursor stack
  int64_t compile_ns = 0;  // wall time spent lowering
  int64_t total_ops = 0;   // static op count over all plans

  // Per-plan summary for EXPLAIN/ANALYZE.
  struct PlanInfo {
    int rule_index = -1;
    int delta_subgoal = -1;
    KernelId kernel = KernelId::kGeneric;
    int op_count = 0;
  };
  std::vector<PlanInfo> plans;
};

// Lowers every plan semi-naive iteration runs — the iteration-0 full plans
// and the (rule, delta-subgoal) plans — to bytecode and selects kernels.
// Fails (like evaluation would) when the program does not stratify. The
// result depends only on the program, never on EvalOptions.
Result<CompiledProgram> CompileProgram(const Program& program);

// Lowers one plan. `idb_preds` classifies each level's and negation's
// source; a plan built with `head_bound` lowers with the head registers
// already loaded, so the caller must seed them before running it.
CompiledRule CompileRulePlan(const RulePlan& plan,
                             const std::set<PredId>& idb_preds);

// Where one evaluator activation's derived heads go: straight into the
// IDB, so one Insert, whose dedup against every row — this iteration's
// included — is the whole duplicate test. The head relation is looked up
// once per activation, so an emit does no predicate lookup. The sink keeps
// no counters: an activation derives exactly the rows it appends to the
// head relation. Returns false (stop the activation) once that relation
// holds more than `row_limit` rows — the evaluation's derivation budget.
class HeadSink {
 public:
  HeadSink(Database* idb, PredId pred, int64_t row_limit)
      : idb_(idb), pred_(pred), row_limit_(row_limit) {}

  bool operator()(const Value* vals, int n) {
    // Created on the first insert, like Database::Insert: an activation
    // that derives nothing leaves no empty relation behind.
    if (rel_ == nullptr) rel_ = idb_->FindOrCreate(pred_, n);
    return !rel_->Insert(vals, n) || rel_->size() <= row_limit_;
  }

 private:
  Database* idb_;
  PredId pred_;
  int64_t row_limit_;
  Relation* rel_ = nullptr;  // the head relation, once created
};

// Runtime state of one compiled-rule activation, shared by the generic
// executor and the specialized kernels. Owned by the caller and reused
// across activations, so nothing below allocates per activation.
struct VmContext {
  // Receives probes, cmp_checks, firings and ops; null leaves them
  // uncounted.
  RuleProfile* profile = nullptr;
  std::vector<Value> regs;         // sized to the rule's num_regs or more
  std::vector<LevelRows> levels;   // per join level, CompiledRule::levels
  std::vector<LevelRows> negs;     // per negation, CompiledRule::negs
};

// The evaluator's resolution: fills ctx->levels and ctx->negs for one
// activation from the EDB, the IDB derived so far and the iteration's
// frontier windows. Returns false when the *first* level resolves to no
// rows — the plan cannot fire and need not run.
bool ResolveRelations(const CompiledRule& rule, const Database& edb,
                      const Database& idb, const IdbFrontier& frontier,
                      VmContext* ctx);

namespace vm_internal {

// One open join level in the generic executor.
struct Cursor {
  LevelRows rows;
  const Value* row_data = nullptr;  // current row
  // Index-probe chain state (is_scan == false):
  int32_t probe_row = -1;
  Relation::Matches chain;
  // Scan state (is_scan == true):
  int64_t scan_row = 0;
  bool is_scan = false;
};

}  // namespace vm_internal

// Executes one compiled rule with the generic bytecode dispatch loop — the
// one join executor (the kernels in src/eval/kernel.h specialize it for
// the evaluator). Every complete body match materializes the head and calls
// `sink(head, arity)`; a sink returning false ends the activation. Rows are
// read through ctx->levels / ctx->negs, which the caller resolved for this
// activation, with registers the caller may have pre-seeded (head-bound
// plans). Counter semantics: docs/evaluator.md.
template <typename Sink>
void RunBytecode(const CompiledRule& rule, VmContext* ctx, Sink&& sink) {
  using vm_internal::Cursor;
  const Instr* code = rule.code.data();
  const Value* consts = rule.consts.data();
  const ArgSrc* args_pool = rule.args_pool.data();
  const LevelInfo* levels = rule.levels.data();
  Value* regs = ctx->regs.data();
  const LevelRows* level_rows = ctx->levels.data();
  const LevelRows* neg_rows = ctx->negs.data();

  // Local accumulators, flushed once on exit: the dispatch loop touches no
  // profile memory per instruction.
  int64_t ops = 0, probes = 0, cmps = 0, firings = 0;

  // The cursor stack: one entry per open join level, innermost on top.
  // Realistic rules have a handful of levels; the heap path covers the rest.
  constexpr int kInlineLevels = 16;
  Cursor inline_stack[kInlineLevels];
  std::vector<Cursor> heap_stack;
  Cursor* stack = inline_stack;
  if (rule.levels.size() > kInlineLevels) {
    heap_stack.resize(rule.levels.size());
    stack = heap_stack.data();
  }
  int depth = 0;

  Value key[Relation::kMaxArity];

  auto src_value = [&](ArgSrc s) -> const Value& {
    return IsConstSrc(s) ? consts[ConstIdx(s)] : regs[s];
  };

  uint32_t ip = 0;
  bool done = false;
  while (!done) {
    const Instr& in = code[ip];
    ++ops;
    switch (in.op) {
      case OpCode::kScanFull:
      case OpCode::kScanDelta:
      case OpCode::kProbeIndex: {
        const LevelInfo& lvl = levels[in.b];
        Cursor& cur = stack[depth];
        cur.rows = level_rows[in.b];
        cur.row_data = nullptr;
        if (cur.rows.empty()) {
          // Level cannot match: backtrack (fall through to advance below).
          cur.is_scan = true;
          cur.scan_row = cur.rows.hi;
        } else if (in.op == OpCode::kProbeIndex) {
          for (int k = 0; k < lvl.key_len; ++k) {
            key[k] = src_value(args_pool[lvl.key_off + k]);
          }
          cur.chain = cur.rows.rel->Probe(lvl.mask, key, cur.rows.lo,
                                          cur.rows.hi);
          cur.is_scan = false;
          cur.probe_row = cur.chain.row;
        } else {
          cur.is_scan = true;
          cur.scan_row = cur.rows.lo;
        }
        ++depth;
        // Fetch the first row (or backtrack if none) via the shared
        // advance path below.
        break;
      }
      case OpCode::kLoadCol: {
        regs[in.b] = stack[depth - 1].row_data[in.a];
        ++ip;
        continue;
      }
      case OpCode::kCheckCol: {
        if (stack[depth - 1].row_data[in.a] == regs[in.b]) {
          ++ip;
          continue;
        }
        break;  // row rejected: advance
      }
      case OpCode::kFilterCmp: {
        ++cmps;
        if (EvalCmp(src_value(in.b), static_cast<CmpOp>(in.a),
                    src_value(in.c))) {
          ++ip;
          continue;
        }
        break;
      }
      case OpCode::kCheckNeg: {
        const NegInfo& neg = rule.negs[in.b];
        const LevelRows& rows = neg_rows[in.b];
        bool present = false;
        if (rows.rel != nullptr) {
          for (int k = 0; k < neg.args_len; ++k) {
            key[k] = src_value(args_pool[neg.args_off + k]);
          }
          const int32_t r = rows.rel->FindRow(key, neg.args_len);
          present = r >= 0 && rows.visible(r);
        }
        if (!present) {
          ++ip;
          continue;
        }
        break;
      }
      case OpCode::kEmitHead: {
        ++firings;
        Value head[Relation::kMaxArity];
        for (int i = 0; i < rule.head_arity; ++i) {
          head[i] = src_value(args_pool[rule.head_off + i]);
        }
        if (!sink(static_cast<const Value*>(head), rule.head_arity)) {
          done = true;
        }
        break;  // complete match consumed: advance the innermost cursor
      }
    }
    if (done) break;

    // Advance: fetch the next visible row of the innermost cursor; pop
    // exhausted cursors; an empty stack means the activation is complete.
    for (;;) {
      if (depth == 0) {
        done = true;
        break;
      }
      Cursor& cur = stack[depth - 1];
      bool have_row = false;
      // Invisible rows (tombstoned, or outside the `as_of` snapshot) are
      // skipped before the probe counter, matching the kernels.
      if (cur.is_scan) {
        while (cur.scan_row < cur.rows.hi && !cur.rows.visible(cur.scan_row)) {
          ++cur.scan_row;
        }
        if (cur.scan_row < cur.rows.hi) {
          cur.row_data = cur.rows.rel->row(cur.scan_row).data();
          ++cur.scan_row;
          have_row = true;
        }
      } else {
        while (cur.probe_row >= 0 && !cur.rows.visible(cur.probe_row)) {
          cur.probe_row = cur.chain.next(cur.probe_row);
        }
        if (cur.probe_row >= 0) {
          cur.row_data = cur.rows.rel->row(cur.probe_row).data();
          cur.probe_row = cur.chain.next(cur.probe_row);
          have_row = true;
        }
      }
      if (have_row) {
        ++probes;  // one candidate row examined
        // Cursor d holds level d: levels open in plan order.
        ip = levels[depth - 1].open_ip + 1;
        break;
      }
      --depth;  // exhausted: backtrack to the enclosing level
    }
  }

  if (RuleProfile* prof = ctx->profile) {
    prof->probes += probes;
    prof->cmp_checks += cmps;
    prof->firings += firings;
    prof->ops += ops;
  }
}

}  // namespace sqod

#endif  // SQOD_EVAL_BYTECODE_H_
