#ifndef SQOD_SQO_QUERY_TREE_H_
#define SQOD_SQO_QUERY_TREE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/pattern.h"
#include "src/sqo/adorn.h"

namespace sqod {

// The top-down phase of Section 4.1: builds the query tree, a finite AND/OR
// structure that encodes precisely the symbolic derivations of the query
// predicate that are consistent with the ICs.
//
// Goal nodes are grouped into equivalence classes (isomorphic atom +
// identical label); only one node per class is expanded, which is what makes
// the tree finite. A *label* refines the node's adornment: where the
// adornment records mappings of ICs into the subtree below the node, the
// label records mappings into any complete derivation containing the node —
// so its residues (unmapped sets) are subsets of the adornment's, pushed
// down through the provenance recorded by the bottom-up phase.

struct QueryTreeOptions {
  int max_classes = 20000;
};

// One equivalence class of goal nodes.
struct GoalClass {
  int apred = -1;   // index into AdornmentEngine::apreds()
  Atom atom;        // representative atom
  // Label, aligned with the adornment of `apred`: label[i] is the unmapped
  // set s' (a subset of adornment[i].unmapped); sigma' is implicitly the
  // restriction of adornment[i].sigma to the variables of s'.
  std::vector<std::vector<int>> label;

  struct RuleChild {
    int arule = -1;              // index into AdornmentEngine::arules()
    Rule instantiated;           // the rule unified with the class atom
    std::vector<int> subgoal_class;  // per body literal; -1 for EDB/negated
  };
  std::vector<RuleChild> children;
};

class QueryTree {
 public:
  explicit QueryTree(const AdornmentEngine& engine,
                     QueryTreeOptions options = {});

  // Builds the forest (one root per adornment of the query predicate).
  Status Build();

  const std::vector<GoalClass>& classes() const { return classes_; }
  const std::vector<int>& roots() const { return roots_; }

  // True for classes that can derive a fact from some EDB (computed over
  // the class graph after Build).
  const std::vector<bool>& productive() const { return productive_; }
  // True for classes reachable from a productive root through productive
  // children.
  const std::vector<bool>& reachable() const { return reachable_; }

  // Theorem 4.1's P': one rule per surviving rule node, over class-named
  // predicates, plus wrapper rules restoring the original query predicate.
  // `provenance`, if given, goes from the engine's program() to P' and maps
  // each class predicate to its predicate; a rule node whose head
  // unification is not a variable renaming loses its origin.
  Program RewrittenProgram(Provenance* provenance = nullptr) const;

  // Is some root productive? (= the query predicate is satisfiable w.r.t.
  // the ICs, by the paper's Theorem 4.1/4.2 argument.)
  bool QuerySatisfiable() const;

  // The generated predicate name for class `c` (display only).
  PredId ClassPred(int c) const;

  std::string ToString() const;

  // Graphviz rendering of the forest (goal classes as ellipses, rule nodes
  // as boxes, pruned nodes dashed) — the Figure 1 artifact.
  std::string ToDot() const;

 private:
  // Equivalence-class identity: adorned predicate, atom isomorphism class,
  // interned label id (labels are hash-consed in the engine's TripletStore).
  struct ClassKey {
    int apred;
    EqualityPattern pattern;
    LabelId label;
    bool operator==(const ClassKey& other) const {
      return apred == other.apred && label == other.label &&
             pattern == other.pattern;
    }
  };
  struct ClassKeyHash {
    size_t operator()(const ClassKey& k) const;
  };

  int InternClass(int apred, const Atom& atom,
                  std::vector<std::vector<int>> label,
                  std::vector<int>* worklist);
  void Expand(int class_id, std::vector<int>* worklist);
  void ComputeStatus();

  const AdornmentEngine& engine_;
  QueryTreeOptions options_;
  std::vector<GoalClass> classes_;
  std::unordered_map<ClassKey, int, ClassKeyHash> registry_;
  // Adorned-rule indices grouped by head apred (filled by Build; Expand
  // visits each class's candidate rules without scanning every arule).
  std::unordered_map<int, std::vector<int>> arules_by_head_;
  std::vector<int> roots_;
  std::vector<bool> productive_;
  std::vector<bool> reachable_;
  FreshVarGen gen_;
  bool built_ = false;
};

}  // namespace sqod

#endif  // SQOD_SQO_QUERY_TREE_H_
