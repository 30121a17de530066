#include "src/sqo/query_tree.h"

#include <algorithm>

#include "src/ast/pattern.h"
#include "src/ast/unify.h"
#include "src/base/check.h"

namespace sqod {

namespace {

inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t QueryTree::ClassKeyHash::operator()(const ClassKey& k) const {
  size_t h = static_cast<size_t>(k.apred) + 0x27d4eb2f;
  h = HashCombine(h, static_cast<size_t>(k.label));
  h = HashCombine(h, k.pattern.Hash());
  return h;
}

QueryTree::QueryTree(const AdornmentEngine& engine, QueryTreeOptions options)
    : engine_(engine), options_(options) {}

int QueryTree::InternClass(int apred, const Atom& atom,
                           std::vector<std::vector<int>> label,
                           std::vector<int>* worklist) {
  ClassKey key{apred, EqualityPattern(atom),
               engine_.store().InternLabel(label)};
  auto it = registry_.find(key);
  if (it != registry_.end()) return it->second;
  int id = static_cast<int>(classes_.size());
  GoalClass gc;
  gc.apred = apred;
  gc.atom = atom;
  gc.label = std::move(label);
  classes_.push_back(std::move(gc));
  registry_.emplace(std::move(key), id);
  worklist->push_back(id);
  return id;
}

void QueryTree::Expand(int class_id, std::vector<int>* worklist) {
  // Note: classes_ may reallocate while we append children, so re-read
  // classes_[class_id] after any InternClass call.
  const int apred = classes_[class_id].apred;
  const Adornment& head_adornment = engine_.apreds()[apred].adornment;

  auto rules_it = arules_by_head_.find(apred);
  if (rules_it == arules_by_head_.end()) return;
  for (int ri : rules_it->second) {
    const AdornedRule& ar = engine_.arules()[ri];

    // Standardize the rule apart and unify its head with the class atom.
    Rule renamed = RenameApart(ar.rule, &gen_);
    Substitution theta;
    if (!UnifyInto(renamed.head, classes_[class_id].atom, &theta)) continue;
    theta.ResolveChains();
    Rule instantiated = theta.Apply(renamed);

    // Rule label: for head-adornment triplet j (label s' = label[j]), the
    // originating rule triplet k = head_sources[j] gets label s' (aligned
    // with rule_adornment; nullptr for triplets that did not project).
    std::vector<const std::vector<int>*> rule_label(ar.rule_adornment.size(),
                                                    nullptr);
    for (size_t j = 0; j < head_adornment.size(); ++j) {
      rule_label[ar.head_sources[j]] = &classes_[class_id].label[j];
    }

    GoalClass::RuleChild child;
    child.arule = ri;
    child.subgoal_class.assign(ar.rule.body.size(), -1);

    // Push labels into the positive IDB subgoals. One sweep over the rule
    // adornment per subgoal: triplet k contributes its label to the subgoal
    // triplet m it was combined from (sources[s]), keeping the smallest
    // label per m.
    for (int s = 0; s < static_cast<int>(ar.positive_subgoals.size()); ++s) {
      int b = ar.positive_subgoals[s];
      int sub_apred = ar.subgoal_apred[b];
      if (sub_apred == -1) continue;  // EDB subgoal
      const Adornment& sub_adornment = engine_.apreds()[sub_apred].adornment;

      // Default: the adornment's own unmapped sets.
      std::vector<const std::vector<int>*> best(sub_adornment.size());
      for (size_t m = 0; m < sub_adornment.size(); ++m) {
        best[m] = &sub_adornment[m].unmapped;
      }
      for (size_t k = 0; k < ar.rule_adornment.size(); ++k) {
        int m = ar.rule_adornment[k].sources[s];
        if (m < 0 || rule_label[k] == nullptr) continue;
        if (rule_label[k]->size() < best[m]->size()) best[m] = rule_label[k];
      }
      std::vector<std::vector<int>> sub_label;
      sub_label.reserve(sub_adornment.size());
      for (const std::vector<int>* l : best) sub_label.push_back(*l);

      const Atom& sub_atom = instantiated.body[b].atom;
      int sub_class =
          InternClass(sub_apred, sub_atom, std::move(sub_label), worklist);
      child.subgoal_class[b] = sub_class;
    }
    child.instantiated = std::move(instantiated);
    classes_[class_id].children.push_back(std::move(child));
  }
}

Status QueryTree::Build() {
  SQOD_CHECK(!built_);
  built_ = true;

  for (int ri = 0; ri < static_cast<int>(engine_.arules().size()); ++ri) {
    arules_by_head_[engine_.arules()[ri].head_apred].push_back(ri);
  }

  const Program& program = engine_.program();
  if (program.query() == -1) {
    return Status::FailedPrecondition("query tree requires a query predicate (?- q.)");
  }
  int arity = program.Arity(program.query());

  std::vector<int> worklist;
  for (int ap : engine_.AdornmentsOf(program.query())) {
    std::vector<Term> args;
    for (int i = 0; i < arity; ++i) {
      args.push_back(gen_.NextLike("Q"));
    }
    Atom root_atom(program.query(), args);
    // The root's label equals its adornment.
    std::vector<std::vector<int>> label;
    for (const Triplet& t : engine_.apreds()[ap].adornment) {
      label.push_back(t.unmapped);
    }
    roots_.push_back(InternClass(ap, root_atom, std::move(label), &worklist));
  }

  while (!worklist.empty()) {
    if (static_cast<int>(classes_.size()) > options_.max_classes) {
      return Status::ResourceExhausted("query tree exceeded max_classes=" +
                           std::to_string(options_.max_classes));
    }
    int id = worklist.back();
    worklist.pop_back();
    Expand(id, &worklist);
  }
  ComputeStatus();
  return Status::Ok();
}

void QueryTree::ComputeStatus() {
  const int n = static_cast<int>(classes_.size());
  productive_.assign(n, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int c = 0; c < n; ++c) {
      if (productive_[c]) continue;
      for (const GoalClass::RuleChild& child : classes_[c].children) {
        bool ok = true;
        for (int sc : child.subgoal_class) {
          if (sc != -1 && !productive_[sc]) {
            ok = false;
            break;
          }
        }
        if (ok) {
          productive_[c] = true;
          changed = true;
          break;
        }
      }
    }
  }

  reachable_.assign(n, false);
  std::vector<int> frontier;
  for (int r : roots_) {
    if (productive_[r]) frontier.push_back(r);
  }
  while (!frontier.empty()) {
    int c = frontier.back();
    frontier.pop_back();
    if (reachable_[c]) continue;
    reachable_[c] = true;
    for (const GoalClass::RuleChild& child : classes_[c].children) {
      bool all_productive = true;
      for (int sc : child.subgoal_class) {
        if (sc != -1 && !productive_[sc]) {
          all_productive = false;
          break;
        }
      }
      if (!all_productive) continue;  // this rule node is pruned
      for (int sc : child.subgoal_class) {
        if (sc != -1 && !reachable_[sc]) frontier.push_back(sc);
      }
    }
  }
}

PredId QueryTree::ClassPred(int c) const {
  return InternPred(PredName(engine_.apreds()[classes_[c].apred].name) +
                    "_n" + std::to_string(c));
}

Program QueryTree::RewrittenProgram(Provenance* provenance) const {
  Program out;
  std::vector<RuleOrigin> origins;
  std::unordered_map<PredId, PredId> bases;  // class predicate -> its p
  const int n = static_cast<int>(classes_.size());
  for (int c = 0; c < n; ++c) {
    if (!productive_[c] || !reachable_[c]) continue;
    const PredId head = ClassPred(c);
    bases[head] = engine_.apreds()[classes_[c].apred].original;
    for (const GoalClass::RuleChild& child : classes_[c].children) {
      bool all_ok = true;
      for (int sc : child.subgoal_class) {
        if (sc != -1 && (!productive_[sc] || !reachable_[sc])) {
          all_ok = false;
          break;
        }
      }
      if (!all_ok) continue;
      if (provenance != nullptr) {
        const AdornedRule& ar = engine_.arules()[child.arule];
        // The rule's other variables were renamed apart, so the rule is a
        // renaming of its adorned rule iff the instantiated head is.
        origins.push_back(AtomsIsomorphic(ar.rule.head, child.instantiated.head)
                              ? provenance->rules[ar.original_rule]
                              : RuleOrigin());
      }
      std::vector<PredId> preds;
      for (int sc : child.subgoal_class) {
        preds.push_back(sc == -1 ? -1 : ClassPred(sc));
      }
      out.AddRule(WithPreds(child.instantiated, head, preds));
    }
  }
  // Copy rules for the query predicate.
  const Program& program = engine_.program();
  if (program.query() != -1) {
    std::vector<PredId> copies;
    for (int root : roots_) {
      if (productive_[root]) copies.push_back(ClassPred(root));
    }
    AddCopyRules(program.query(), program.Arity(program.query()), copies,
                 &out, &origins);
  }
  if (provenance != nullptr) {
    provenance->rules = std::move(origins);
    provenance->copies = std::move(bases);
  }
  return out;
}

bool QueryTree::QuerySatisfiable() const {
  for (int r : roots_) {
    if (productive_[r]) return true;
  }
  return false;
}

std::string QueryTree::ToString() const {
  std::string s;
  const std::vector<Constraint>& ics = engine_.ics();
  for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
    const GoalClass& gc = classes_[c];
    s += "node " + std::to_string(c) + ": " + gc.atom.ToString() + " [" +
         PredName(engine_.apreds()[gc.apred].name) + "]";
    if (!productive_.empty() && (!productive_[c] || !reachable_[c])) {
      s += " (pruned)";
    }
    s += " label={";
    const Adornment& adornment = engine_.apreds()[gc.apred].adornment;
    for (size_t j = 0; j < gc.label.size(); ++j) {
      if (j > 0) s += ", ";
      Triplet t = adornment[j];
      t.unmapped = gc.label[j];
      s += t.ToString(ics);
    }
    s += "}\n";
    for (const GoalClass::RuleChild& child : gc.children) {
      s += "  rule: " + child.instantiated.ToString() + "  subgoals:";
      for (int sc : child.subgoal_class) {
        s += " " + std::to_string(sc);
      }
      s += "\n";
    }
  }
  return s;
}

namespace {

// Escapes a label for the dot format.
std::string DotEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string QueryTree::ToDot() const {
  std::string dot = "digraph query_tree {\n  rankdir=TB;\n";
  const std::vector<Constraint>& ics = engine_.ics();
  for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
    const GoalClass& gc = classes_[c];
    bool pruned =
        !productive_.empty() && (!productive_[c] || !reachable_[c]);
    // Goal node with its label triplets.
    std::string label = gc.atom.ToString();
    const Adornment& adornment = engine_.apreds()[gc.apred].adornment;
    for (size_t j = 0; j < gc.label.size(); ++j) {
      Triplet t = adornment[j];
      t.unmapped = gc.label[j];
      label += "\\n" + t.ToString(ics);
    }
    dot += "  g" + std::to_string(c) + " [shape=ellipse, label=\"" +
           DotEscape(label) + "\"" + (pruned ? ", style=dashed" : "") +
           "];\n";
    for (size_t k = 0; k < gc.children.size(); ++k) {
      std::string rule_id =
          "r" + std::to_string(c) + "_" + std::to_string(k);
      dot += "  " + rule_id + " [shape=box, label=\"" +
             DotEscape(gc.children[k].instantiated.ToString()) + "\"];\n";
      dot += "  g" + std::to_string(c) + " -> " + rule_id + ";\n";
      for (int sc : gc.children[k].subgoal_class) {
        if (sc != -1) {
          dot += "  " + rule_id + " -> g" + std::to_string(sc) + ";\n";
        }
      }
    }
  }
  for (int r : roots_) {
    dot += "  root_marker_" + std::to_string(r) +
           " [shape=point]; root_marker_" + std::to_string(r) + " -> g" +
           std::to_string(r) + ";\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace sqod
