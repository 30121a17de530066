#include "tests/reference_eval.h"

namespace sqod {
namespace {

// A term resolved against one rule's dense variable numbering: a constant,
// or variable slot `var`.
struct Arg {
  Value constant;
  int var = -1;
};

struct RefAtom {
  PredId pred;
  std::vector<Arg> args;
};
struct RefCmp {
  Arg lhs;
  CmpOp op;
  Arg rhs;
};

// One rule with its variables renumbered 0..n-1.
struct RefRule {
  RefAtom head;
  std::vector<RefAtom> positive, negative;
  std::vector<RefCmp> comparisons;
  int num_vars = 0;
};

class Reference {
 public:
  Reference(const Program& program, const Database& edb) {
    for (const auto& [pred, rel] : edb.relations()) {
      for (TupleRef t : rel.rows()) edb_[pred].insert(t.Materialize());
    }
    for (const Rule& rule : program.rules()) idb_preds_.insert(rule.head.pred());
    for (const Rule& rule : program.rules()) rules_.push_back(Lower(rule));
  }

  ReferenceIdb Run(const Program& program) {
    // Stratum of each IDB predicate: at least that of every positive IDB
    // subgoal, and one more than that of every negated one.
    std::map<PredId, int> stratum;
    bool changed = true;
    for (size_t round = 0; changed && round <= idb_preds_.size(); ++round) {
      changed = false;
      for (const Rule& rule : program.rules()) {
        for (const Literal& lit : rule.body) {
          if (idb_preds_.count(lit.atom.pred()) == 0) continue;
          const int need = stratum[lit.atom.pred()] + (lit.negated ? 1 : 0);
          int& s = stratum[rule.head.pred()];
          if (s < need) s = need, changed = true;
        }
      }
    }
    for (int s = 0; s <= static_cast<int>(idb_preds_.size()); ++s) {
      for (bool grew = true; grew;) {
        // Naive round: derive from the current state, then merge.
        std::vector<std::pair<PredId, Tuple>> derived;
        for (const RefRule& rule : rules_) {
          if (stratum[rule.head.pred] != s) continue;
          std::vector<Value> vals(rule.num_vars);
          std::vector<char> bound(rule.num_vars, 0);
          Join(rule, 0, &vals, &bound, &derived);
        }
        grew = false;
        for (auto& [pred, t] : derived) grew |= idb_[pred].insert(t).second;
      }
    }
    std::erase_if(idb_, [](const auto& entry) { return entry.second.empty(); });
    return idb_;
  }

 private:
  RefRule Lower(const Rule& rule) {
    std::map<VarId, int> index;
    for (VarId v : rule.Vars()) index.emplace(v, static_cast<int>(index.size()));
    auto arg = [&](const Term& t) {
      return t.is_const() ? Arg{t.value(), -1} : Arg{Value(), index.at(t.var())};
    };
    auto atom = [&](const Atom& a) {
      RefAtom out{a.pred(), {}};
      for (const Term& t : a.args()) out.args.push_back(arg(t));
      return out;
    };
    RefRule out;
    out.num_vars = static_cast<int>(index.size());
    out.head = atom(rule.head);
    for (const Literal& lit : rule.body) {
      (lit.negated ? out.negative : out.positive).push_back(atom(lit.atom));
    }
    for (const Comparison& c : rule.comparisons) {
      out.comparisons.push_back({arg(c.lhs), c.op, arg(c.rhs)});
    }
    return out;
  }

  const std::set<Tuple>& Tuples(PredId pred) {
    return idb_preds_.count(pred) > 0 ? idb_[pred] : edb_[pred];
  }

  static const Value& Get(const Arg& a, const std::vector<Value>& vals) {
    return a.var < 0 ? a.constant : vals[a.var];
  }

  static Tuple Instantiate(const RefAtom& a, const std::vector<Value>& vals) {
    Tuple t;
    for (const Arg& arg : a.args) t.push_back(Get(arg, vals));
    return t;
  }

  // Binds the positive subgoals from `k` on, in body order, then checks
  // comparisons and negations and derives the head.
  void Join(const RefRule& rule, size_t k, std::vector<Value>* vals,
            std::vector<char>* bound,
            std::vector<std::pair<PredId, Tuple>>* derived) {
    if (k == rule.positive.size()) {
      for (const RefCmp& c : rule.comparisons) {
        if (!EvalCmp(Get(c.lhs, *vals), c.op, Get(c.rhs, *vals))) return;
      }
      for (const RefAtom& neg : rule.negative) {
        if (Tuples(neg.pred).count(Instantiate(neg, *vals)) > 0) return;
      }
      derived->emplace_back(rule.head.pred, Instantiate(rule.head, *vals));
      return;
    }
    const RefAtom& atom = rule.positive[k];
    std::vector<int> newly;  // slots this subgoal bound for the current tuple
    for (const Tuple& t : Tuples(atom.pred)) {
      if (t.size() != atom.args.size()) continue;
      bool ok = true;
      for (size_t i = 0; ok && i < t.size(); ++i) {
        const Arg& a = atom.args[i];
        if (a.var >= 0 && !(*bound)[a.var]) {
          (*vals)[a.var] = t[i];
          (*bound)[a.var] = 1;
          newly.push_back(a.var);
        } else {
          ok = Get(a, *vals) == t[i];
        }
      }
      if (ok) Join(rule, k + 1, vals, bound, derived);
      for (int v : newly) (*bound)[v] = 0;
      newly.clear();
    }
  }

  std::map<PredId, std::set<Tuple>> edb_, idb_;
  std::set<PredId> idb_preds_;
  std::vector<RefRule> rules_;
};

}  // namespace

ReferenceIdb ReferenceEvaluate(const Program& program, const Database& edb) {
  return Reference(program, edb).Run(program);
}

std::vector<Tuple> ReferenceQuery(const Program& program, const Database& edb) {
  ReferenceIdb idb = ReferenceEvaluate(program, edb);
  const std::set<Tuple>& answers = idb[program.query()];
  return std::vector<Tuple>(answers.begin(), answers.end());
}

}  // namespace sqod
