#ifndef SQOD_SQO_LOWER_H_
#define SQOD_SQO_LOWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/sqo/optimizer.h"

namespace sqod {

// Lowering: the program the engine serves, P″, computed from the paper's
// rewriting P′ (SqoReport::rewritten) before it is compiled to bytecode.
// P′ specializes every IDB predicate p into adorned copies and attaches
// residue comparisons. Both cost work at evaluation time: overlapping copies
// derive one tuple several times, copy rules p(W) :- p@k(W) derive every
// answer again, and one attached comparison moves a join off the fastest
// kernel. Two rewrites undo what buys nothing. Both read the provenance the
// optimizer recorded while it built P′ (SqoReport::provenance): whether a
// rule is a renamed rule of P and which literals were appended to it, which
// rules are copy rules, and which predicate of P each copy specializes.
// Generated names ("p@<k>", "p@<k>_n<class>") are display only.
//
//  (a) Merge adorned copies. The copies of p merge back into p when every
//      rule defining a copy is, with adornments erased, one of p's rules (in
//      normal form) plus appended literals, and either
//      * p has exactly one copy and a copy rule (a rename: the copy rule is
//        deleted), or
//      * no rule defining a copy has an appended literal left after (b): no
//        residue comparison or negation is attached.
//      Merged rules are deduplicated; an original rule with no surviving
//      adorned version stays deleted. A candidate is kept adorned when a
//      rule of a kept copy reads one of its copies, so a kept copy never
//      joins against a wider relation than it did in P′.
//  (b) Drop self-implied comparisons. An appended comparison c of a rule
//      (a residue, or a local_rewrite split) is dropped when some IC maps
//      homomorphically into the rule's own positive EDB atoms and not(c)
//      entails that IC's comparisons: every instantiation violating c
//      would violate the IC.
//
// Soundness. Every rule the lowering rewrites is, with adornments fully
// erased, a rule of P plus appended literals; every other rule is P′'s
// own. So P″ ⊆ P on every database wherever P′'s rules are rules of P plus
// appended literals, which is always the case except after fd_rewrite's
// join elimination. Every P′ rule maps onto a lowered rule with the same or
// fewer literals and every copy p@k onto a relation that contains it, so
// every P′ derivation maps onto a P″ derivation: P′ ⊆ P″. On databases
// satisfying the ICs P′ = P, hence P″ = P there.

struct LoweredProgram {
  // P″, the program Execute/Materialize evaluate.
  Program program;

  // One entry per predicate whose adorned copies merged back into it.
  struct Merge {
    std::string pred;
    int copies = 0;
    bool rename = false;  // one copy with a copy rule, vs residue-free
  };
  // One entry per dropped comparison.
  struct Drop {
    std::string comparison;  // as attached in P′
    std::string rule;        // the P′ rule it was attached to
    int ic_index = -1;       // into the normalized ICs
    std::string ic;          // the IC that implies it
  };
  // One entry per predicate whose adorned copies are served as they are.
  struct Keep {
    std::string pred;
    std::vector<std::string> copies;
    std::string reason;
  };
  std::vector<Merge> merged;
  std::vector<Drop> dropped;
  std::vector<Keep> kept;
  int rules_before = 0;  // |P′|
  int64_t lower_ns = 0;  // wall time of LowerProgram

  // The EXPLAIN "== lowering ==" section body (one decision per line).
  std::string ToText() const;
  // {"rules_before":..,"rules_after":..,"merged":[..],"dropped":[..],
  //  "kept":[..]}
  std::string ToJson() const;
};

// Lowers report.rewritten (P′) under report.ics, reading
// report.provenance.
LoweredProgram LowerProgram(const SqoReport& report);

}  // namespace sqod

#endif  // SQOD_SQO_LOWER_H_
