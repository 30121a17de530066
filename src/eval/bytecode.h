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
// trail. Specialized kernels (src/eval/kernel.h) bypass even the dispatch
// loop for the dominant shapes.

enum class OpCode : uint8_t {
  // Join-level openers; `b` indexes CompiledRule::levels. The opcode
  // mirrors the level's statically-resolved row source: PROBE_INDEX when
  // the level has bound columns (mask != 0), SCAN_DELTA when it reads the
  // semi-naive delta, SCAN_FULL otherwise. A PROBE_INDEX level falls back
  // to its scan actions when indexes are disabled at runtime.
  kScanFull,
  kScanDelta,
  kProbeIndex,
  // Per-row column ops against the current level's row:
  kLoadCol,     // regs[b] = row[a]
  kCheckCol,    // row[a] == regs[b] else next row
  kCheckConst,  // row[a] == consts[b] else next row
  // Control:
  kJump,  // ip = b (skips the scan-action range after probe actions)
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

// The rows one join level reads: `rel`'s row ids [lo, hi).
struct LevelRows {
  const Relation* rel = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  bool empty() const { return rel == nullptr || lo >= hi; }
};

// Resolves a level's rows: the whole EDB relation for kEdb; the frontier
// window of `pred`'s IDB relation otherwise (the whole relation when the
// frontier has no entry: a completed lower stratum).
LevelRows ResolveRows(RelSource source, PredId pred, const Database& edb,
                      const Database& idb, const IdbFrontier& frontier);

// One bytecode instruction. Fixed 12-byte layout; wide operands (probe
// masks, key/argument lists) live in the owning CompiledRule's side tables.
struct Instr {
  OpCode op;
  uint8_t a = 0;   // column index, or CmpOp for kFilterCmp
  int32_t b = 0;   // register / const / level / neg index / jump target
  int32_t c = 0;   // rhs ArgSrc for kFilterCmp
};

// Static description of one join level (one positive subgoal).
struct LevelInfo {
  PredId pred = -1;
  int body_index = -1;  // into rule.body, for display
  RelSource source = RelSource::kEdb;
  int arity = 0;
  uint64_t mask = 0;      // bound columns (compile-time constant)
  uint32_t key_off = 0;   // ArgSrc run in args_pool, mask-column order
  uint16_t key_len = 0;   // == popcount(mask)
  uint32_t open_ip = 0;   // the opener instruction
  uint32_t probe_ip = 0;  // row actions when rows come from an index probe
  uint32_t scan_ip = 0;   // row actions when rows come from a scan
  uint32_t post_ip = 0;   // first op after the row actions
};

// Static description of one negation check.
struct NegInfo {
  PredId pred = -1;
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
// safe to share across threads (PreparedProgram caches one).
struct CompiledProgram {
  struct Stratum {
    std::vector<int> rule_indices;      // program rule indices, this stratum
    // One full plan (delta_subgoal = -1) per stratum rule, in
    // rule_indices order. Naive iteration runs all of them.
    std::vector<CompiledRule> full;
    // Indices into `full` of the rules with no same-stratum positive IDB
    // subgoal: the semi-naive iteration-0 set.
    std::vector<int> nonrecursive;
    // One plan per (rule, same-stratum positive IDB occurrence).
    std::vector<CompiledRule> delta;
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

// Lowers every (rule, delta-subgoal) plan of `program` to bytecode and
// selects kernels. Fails (like evaluation would) when the program does not
// stratify. The result depends only on the program, never on EvalOptions:
// one artifact serves naive and semi-naive iteration, probes and scans.
Result<CompiledProgram> CompileProgram(const Program& program);

// Lowers one plan. `strata`/`stratum` identify the rule's stratum so
// same-stratum IDB subgoals resolve to delta/total correctly.
CompiledRule CompileRulePlan(const RulePlan& plan,
                             const std::set<PredId>& idb_preds);

struct RuleProfile;

// Where one plan activation's derived heads go: straight into the IDB, so
// one Insert, whose dedup against every row — this iteration's included —
// is the whole duplicate test. Open looks the head relation up once per
// activation, so an emit does no predicate lookup.
class HeadSink {
 public:
  void Open(Database* idb, PredId pred) {
    idb_ = idb;
    pred_ = pred;
    rel_ = nullptr;
  }

  // Stages vals[0..n); true when it is new (derived), false for a duplicate.
  bool Stage(const Value* vals, int n) {
    // Created on the first insert, like Database::Insert: an activation
    // that derives nothing leaves no empty relation behind.
    if (rel_ == nullptr) rel_ = idb_->FindOrCreate(pred_, n);
    return rel_->Insert(vals, n);
  }

 private:
  Database* idb_ = nullptr;
  PredId pred_ = -1;
  Relation* rel_ = nullptr;  // the head relation, once created
};

// Runtime context for one compiled-rule activation, shared by the generic
// executor and the specialized kernels.
struct VmContext {
  const Database* edb = nullptr;
  // Every IDB tuple derived so far; levels read it through `frontier`, and
  // emitted heads are inserted into it.
  Database* idb = nullptr;
  const IdbFrontier* frontier = nullptr;
  HeadSink head;  // opened on `idb` by ResolveRelations
  bool use_indexes = true;
  int64_t max_derived = -1;  // -1 = unlimited
  RuleProfile* profile = nullptr;
  int64_t* derived_count = nullptr;
  bool* overflow = nullptr;

  // Reusable scratch, owned by the evaluator and sized once per Evaluate
  // (CompiledProgram::max_regs / max_levels).
  std::vector<Value>* regs = nullptr;
  std::vector<LevelRows>* level_rows = nullptr;
  std::vector<const Relation*>* neg_rels = nullptr;
};

// Resolves the rows a plan reads (per level) and the relations its
// negations check into the context's scratch vectors, and opens its head
// sink. Returns false when the *first* level resolves to no rows — the plan
// cannot fire and need not run.
bool ResolveRelations(const CompiledRule& rule, VmContext* ctx);

// Executes one compiled rule with the generic bytecode dispatch loop.
// Counter semantics match the interpreter exactly (docs/evaluator.md).
// Callers must have run ResolveRelations first.
void RunBytecode(const CompiledRule& rule, VmContext* ctx);

}  // namespace sqod

#endif  // SQOD_EVAL_BYTECODE_H_
