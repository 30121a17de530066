#ifndef SQOD_EVAL_KERNEL_H_
#define SQOD_EVAL_KERNEL_H_

#include "src/eval/bytecode.h"

namespace sqod {

// Specialized join kernels layered over the bytecode executor, for the
// evaluator only (incremental maintenance runs the generic loop). The
// compiler (CompileRulePlan) calls SelectKernel once per plan; the evaluator
// calls RunCompiled per activation, which dispatches to the matching kernel
// or falls back to the generic dispatch loop.
//
// Selection rules (compile time, on the lowered plan):
//   scan_filter_emit  — exactly one join level and no negations: iterate the
//                       level (index probe when it has bound columns, scan
//                       otherwise), run the column
//                       actions and comparison filters inline, emit. Covers
//                       EDB projections/selections and iteration-0 seeding
//                       rules.
//   scan_probe_emit   — a binary join probing a fully-bound key: exactly two
//                       levels, no negations, inner level with a non-empty
//                       probe mask and 1..4 key columns, load-only column
//                       actions on both levels (no in-atom repeated
//                       variables). The inner
//                       loop is a flat probe-and-emit specialized on the key
//                       width — the transitive-closure shape that dominates
//                       E2/E4. Comparison filters run after the loads of
//                       the level that binds them (residues such as E2's
//                       `0 <= X`).
//   generic           — everything else: the bytecode dispatch loop.
//
// All kernels preserve the generic loop's counter semantics exactly
// (probes per candidate row, cmp_checks per comparison, firings per
// complete match, duplicates/derived at emit); only RuleProfile::ops is
// kernel-defined (executed inner-loop steps rather than dispatched ops).
// EvalTest.KernelsMatchTheGenericLoop holds them to that.

// Picks the kernel for a lowered plan. Pure function of the plan.
KernelId SelectKernel(const CompiledRule& rule);

// Runs one activation through the selected kernel (or the generic loop when
// the plan selected kGeneric), emitting into `sink`. Returns the kernel that
// ran, for the eval/kernel_* activation counters. Callers must have run
// ResolveRelations first.
KernelId RunCompiled(const CompiledRule& rule, VmContext* ctx,
                     HeadSink* sink);

}  // namespace sqod

#endif  // SQOD_EVAL_KERNEL_H_
