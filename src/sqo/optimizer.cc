#include "src/sqo/optimizer.h"

#include "src/ast/unify.h"
#include "src/sqo/pass_manager.h"

namespace sqod {

// The monolithic pipeline became the pass manager (pass_manager.cc); the
// entry points here are thin wrappers kept for API compatibility.

Result<SqoReport> OptimizeProgram(const Program& program,
                                  const std::vector<Constraint>& ics,
                                  const SqoOptions& options) {
  PassManager manager(options);
  return manager.Run(program, ics);
}

Result<bool> QuerySatisfiable(const Program& program,
                              const std::vector<Constraint>& ics,
                              const SqoOptions& options) {
  SqoOptions opts = options;
  std::erase(opts.disabled_passes, "tree");
  opts.disabled_passes.push_back("residues");
  SQOD_ASSIGN_OR_RETURN(SqoReport report,
                        PassManager(opts).Run(program, ics));
  return report.query_satisfiable;
}

Result<bool> QueryReachableAtom(const Program& program,
                                const std::vector<Constraint>& ics,
                                const Atom& atom,
                                const SqoOptions& options) {
  // Reachability is decided on the query tree itself, so run the pipeline
  // up to the tree pass and inspect the surviving classes.
  SqoOptions opts = options;
  std::erase(opts.disabled_passes, "tree");
  opts.disabled_passes.push_back("residues");
  opts.disabled_passes.push_back("prune");
  // One fresh-name scope over the run and the renamings below, which draw
  // names apart from the run's terms and from `atom`.
  FreshNameScope fresh_names;
  ReserveInputVariables(program, ics, &fresh_names);
  std::vector<VarId> atom_vars;
  atom.CollectVars(&atom_vars);
  fresh_names.Reserve(atom_vars);
  PassManager manager(opts);
  PassContext ctx;
  SQOD_RETURN_IF_ERROR(manager.RunInto(program, ics, &ctx));
  if (ctx.engine == nullptr || ctx.tree == nullptr) {
    return Status::FailedPrecondition(
        "QueryReachableAtom requires the adorn and tree passes "
        "(a query predicate must be set and the passes not disabled)");
  }
  const AdornmentEngine& engine = *ctx.engine;
  const QueryTree& tree = *ctx.tree;

  FreshVarGen gen;
  for (size_t c = 0; c < tree.classes().size(); ++c) {
    if (!tree.productive()[c] || !tree.reachable()[c]) continue;
    const GoalClass& gc = tree.classes()[c];
    if (engine.apreds()[gc.apred].original != atom.pred()) continue;
    // Rename the class atom apart so shared variable names do not block
    // unification, then test compatibility.
    Rule wrapper(gc.atom, {});
    Atom renamed = RenameApart(wrapper, &gen).head;
    if (Unify(renamed, atom).has_value()) return true;
  }
  // EDB atoms: reachable iff they unify with an EDB subgoal of a surviving
  // rule node.
  for (size_t c = 0; c < tree.classes().size(); ++c) {
    if (!tree.productive()[c] || !tree.reachable()[c]) continue;
    for (const GoalClass::RuleChild& child : tree.classes()[c].children) {
      for (size_t b = 0; b < child.instantiated.body.size(); ++b) {
        if (child.subgoal_class[b] != -1) continue;
        const Literal& lit = child.instantiated.body[b];
        if (lit.negated || lit.atom.pred() != atom.pred()) continue;
        Rule wrapper(lit.atom, {});
        Atom renamed = RenameApart(wrapper, &gen).head;
        if (Unify(renamed, atom).has_value()) return true;
      }
    }
  }
  return false;
}

}  // namespace sqod
