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
// kernel. Two rewrites undo what buys nothing; both read the provenance the
// optimizer recorded while it built P′ (SqoReport::provenance): whether a
// rule is a renamed rule of P and which literals were appended to it, which
// rules are copy rules, and which predicate of P each copy specializes.
// A third pushes the query's own bindings into the program, which P′ never
// does. Generated names ("p@<k>", "p@<k>_n<class>", "m@<pred>_<bf>") are
// display only; the lexer rejects '@', so none collides with a user's.
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
//  (c) Demand (a magic-set rewrite). Runs on the program (a) and (b) left,
//      one recursive component (a stratum of Program::Stratify) at a time,
//      callers before callees. A call is a positive body literal; its bound
//      positions are those holding a constant or a variable of an earlier
//      positive literal of its rule (left-to-right sideways information
//      passing; a magic guard, below, binds the demanded head arguments).
//      A component is demanded only from calls in rules outside it (its
//      entry calls); a binding a recursive rule passes to itself only
//      propagates demand. Each predicate p of a demanded component gets one
//      adornment (its demanded positions) and one magic predicate m@p_<bf>
//      holding the demanded argument values; every rule of p gains the
//      guard m@p_<bf>(its head's demanded arguments) as its first literal;
//      and each call c of p gets a magic rule
//        m@p_<bf>(c's demanded arguments) :- the literals before c,
//      plus the rule's negated literals and comparisons those bind (a seed
//      when the caller is outside the component, a propagation rule
//      otherwise). A component no entry call binds anything of is read in
//      full and left as it was with no decision; one that some entry call
//      binds is declined, and left as it was, when
//      * the query reads one of its predicates in full, or another entry
//        call binds no argument;
//      * entry calls of one predicate share no bound position (their
//        intersection is demanded: there is never a second adorned copy);
//      * a call inside the component cannot bind a demanded position;
//      * a seed projects: a variable of its body is neither a demanded
//        argument of the call nor a demanded head argument of the caller
//        (e1(X, Z) seeding q0(Z, _) demands every Z with some X, which
//        costs more than the demand saves; startPoint(X) seeding
//        path(X, _) filters).
//
// Soundness. Every rule the lowering rewrites is, with adornments fully
// erased, a rule of P plus appended literals; every other rule is P′'s
// own. So P″ ⊆ P on every database wherever P′'s rules are rules of P plus
// appended literals, which is always the case except after fd_rewrite's
// join elimination. Every P′ rule maps onto a lowered rule with the same or
// fewer literals and every copy p@k onto a relation that contains it, so
// every P′ derivation maps onto a P″ derivation: P′ ⊆ P″. On databases
// satisfying the ICs P′ = P, hence P″ = P there. (c) leaves the query
// relation unchanged on every database: a guarded rule only loses
// instances whose demanded head arguments are not in the magic relation,
// and every call that reads a guarded predicate (each entry call, each call
// inside the component, and each call a magic rule repeats from the rule
// it was cut from) puts the arguments it reads into that relation first,
// by induction on the derivation; the query predicate is never guarded.

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
  // One entry per recursive component that a rule outside it calls: the
  // demand (c) added, or why it was declined.
  struct Demand {
    std::vector<std::string> preds;       // the component's predicates
    std::vector<std::string> adornments;  // per pred ("bf"); empty if declined
    int seeds = 0;         // magic rules cut from entry calls
    int propagations = 0;  // magic rules cut from calls inside the component
    int guarded = 0;       // rules that gained a magic guard
    std::string reason;    // why the demand was declined; empty if added
  };
  std::vector<Merge> merged;
  std::vector<Drop> dropped;
  std::vector<Keep> kept;
  std::vector<Demand> demand;
  int rules_before = 0;  // |P′|
  int64_t lower_ns = 0;  // wall time of LowerProgram

  // The EXPLAIN "== lowering ==" section body (one decision per line).
  std::string ToText() const;
  // {"rules_before":..,"rules_after":..,"merged":[..],"dropped":[..],
  //  "kept":[..],"demand":[..]}
  std::string ToJson() const;
};

// Lowers report.rewritten (P′) under report.ics, reading
// report.provenance.
LoweredProgram LowerProgram(const SqoReport& report);

}  // namespace sqod

#endif  // SQOD_SQO_LOWER_H_
