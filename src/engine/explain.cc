#include "src/engine/explain.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/export.h"
#include "src/obs/json.h"

namespace sqod {

namespace {

// "after (+delta)" / "after (-delta)" / plain "after" when unchanged.
std::string DeltaCell(int after, int delta) {
  std::string out = std::to_string(after);
  if (delta != 0) {
    out += " (";
    if (delta > 0) out += '+';
    out += std::to_string(delta);
    out += ')';
  }
  return out;
}

void PadTo(size_t width, std::string* line) {
  if (line->size() < width) line->append(width - line->size(), ' ');
}

// "<CODE>: <message>".
std::string StatusText(const Status& status) {
  return std::string(StatusCodeName(status.code())) + ": " + status.message();
}

}  // namespace

ExplainReport BuildExplainReport(const SqoReport& report,
                                 const CompiledProgram* compiled,
                                 const LoweredProgram* lowered) {
  ExplainReport out;
  if (lowered != nullptr) {
    out.has_lowering = true;
    out.lowering = *lowered;
  }
  if (compiled != nullptr) {
    out.compiled = true;
    out.compile_ns = compiled->compile_ns;
    out.total_ops = compiled->total_ops;
    out.kernels.reserve(compiled->plans.size());
    for (const CompiledProgram::PlanInfo& plan : compiled->plans) {
      ExplainKernelRow row;
      row.rule_index = plan.rule_index;
      row.delta_subgoal = plan.delta_subgoal;
      row.kernel = KernelName(plan.kernel);
      row.op_count = plan.op_count;
      out.kernels.push_back(std::move(row));
    }
  }
  for (const PassRunInfo& info : report.pass_runs) {
    ExplainPassRow row;
    row.name = info.name;
    row.ran = info.ran();
    row.disabled = info.disabled;
    row.wall_ns = info.wall_ns;
    row.rules_before = info.rules_before;
    row.rules_after = info.rules_after;
    row.literals_before = info.literals_before;
    row.literals_after = info.literals_after;
    row.negations_before = info.negations_before;
    row.negations_after = info.negations_after;
    row.comparisons_before = info.comparisons_before;
    row.comparisons_after = info.comparisons_after;
    out.optimize_ns += info.wall_ns;
    out.passes.push_back(std::move(row));
  }
  out.adorned_predicates = report.adorned_predicates;
  out.adorned_rules = report.adorned_rules;
  out.tree_classes = report.tree_classes;
  out.surviving_classes = report.surviving_classes;
  out.query_satisfiable = report.query_satisfiable;
  out.residue_rules_deleted = report.residue_rules_deleted;
  out.residue_comparisons_added = report.residue_comparisons_added;
  out.residue_negations_added = report.residue_negations_added;
  out.intern_hits = report.intern_hits;
  out.intern_misses = report.intern_misses;
  out.memo_hits = report.memo_hits;
  out.store_size = report.store_size;
  return out;
}

void AttachRuntime(const Program& executed, const EvalStats& stats,
                   const std::vector<RuleProfile>& profiles, int64_t answers,
                   int64_t execute_ns, ExplainReport* report) {
  report->analyzed = true;
  report->stats = stats;
  report->answers = answers;
  report->execute_ns = execute_ns;
  report->ops_executed = 0;
  for (const RuleProfile& profile : profiles) {
    report->ops_executed += profile.ops;
  }
  report->rules.clear();
  const std::vector<Rule>& rules = executed.rules();
  report->rules.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    ExplainRuleRow row;
    row.rule_index = static_cast<int>(i);
    row.rule_text = rules[i].ToString();
    report->rules.push_back(std::move(row));
  }
  // Profiles come back in rule order, but join by index so a subset (or a
  // differently-sourced profile vector) still lands on the right rule.
  for (const RuleProfile& profile : profiles) {
    if (profile.rule_index < 0 ||
        profile.rule_index >= static_cast<int>(report->rules.size())) {
      continue;
    }
    ExplainRuleRow& row = report->rules[profile.rule_index];
    row.profile = profile;
    row.executed = true;
  }
}

void AttachMaintenance(const MaintainStats& totals,
                       const MaintainStats& last_batch, int64_t batches,
                       ExplainReport* report) {
  report->maintained = true;
  report->batches = batches;
  report->maintain = totals;
  report->last_batch = last_batch;
}

namespace {

// The shared field list for both maintenance stanzas (totals / last batch).
std::string MaintainJson(const MaintainStats& s) {
  std::string out = "{";
  out += "\"version\":" + std::to_string(s.version);
  out += ",\"recomputed\":";
  out += s.recomputed ? "true" : "false";
  out += ",\"edb_inserted\":" + std::to_string(s.edb_inserted);
  out += ",\"edb_deleted\":" + std::to_string(s.edb_deleted);
  out += ",\"idb_inserted\":" + std::to_string(s.idb_inserted);
  out += ",\"idb_deleted\":" + std::to_string(s.idb_deleted);
  out += ",\"over_deleted\":" + std::to_string(s.over_deleted);
  out += ",\"rederived\":" + std::to_string(s.rederived);
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.4f", s.over_deletion_ratio());
  out += ",\"over_deletion_ratio\":" + std::string(ratio);
  out += ",\"count_updates\":" + std::to_string(s.count_updates);
  out += ",\"strata_incremental\":" + std::to_string(s.strata_incremental);
  out += ",\"strata_recomputed\":" + std::to_string(s.strata_recomputed);
  out += ",\"strata_skipped\":" + std::to_string(s.strata_skipped);
  out += ",\"maintain_ns\":" + std::to_string(s.maintain_ns);
  out += '}';
  return out;
}

}  // namespace

std::string ExplainReport::ToText() const {
  std::string out = "== pass pipeline ==\n";
  const size_t kName = 14, kTime = 12, kCol = 12;
  {
    std::string h = "pass";
    PadTo(kName, &h);
    h += "time";
    PadTo(kName + kTime, &h);
    for (const char* col : {"rules", "literals", "negations", "comparisons"}) {
      size_t target = h.size();
      h += col;
      PadTo(target + kCol, &h);
    }
    while (!h.empty() && h.back() == ' ') h.pop_back();
    out += h;
    out += '\n';
  }
  for (const ExplainPassRow& row : passes) {
    std::string line = row.name;
    PadTo(kName, &line);
    if (!row.ran) {
      line += row.disabled ? "disabled" : "skipped";
      while (!line.empty() && line.back() == ' ') line.pop_back();
      out += line;
      out += '\n';
      continue;
    }
    line += FormatDurationNs(row.wall_ns);
    PadTo(kName + kTime, &line);
    const std::string cells[] = {
        DeltaCell(row.rules_after, row.rules_delta()),
        DeltaCell(row.literals_after, row.literals_delta()),
        DeltaCell(row.negations_after, row.negations_delta()),
        DeltaCell(row.comparisons_after, row.comparisons_delta())};
    for (const std::string& cell : cells) {
      size_t target = line.size();
      line += cell;
      PadTo(target + kCol, &line);
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line;
    out += '\n';
  }

  out += "\n== plan ==\n";
  if (!fallback.ok()) {
    out += "served:            P as written (" + StatusText(fallback) + ")\n";
  }
  out += "optimize time:     " + FormatDurationNs(optimize_ns) + "\n";
  out += "satisfiable:       ";
  out += query_satisfiable ? "yes" : "no (query provably empty)";
  out += '\n';
  out += "adorned:           " + std::to_string(adorned_predicates) +
         " predicates, " + std::to_string(adorned_rules) + " rules\n";
  out += "goal classes:      " + std::to_string(surviving_classes) + "/" +
         std::to_string(tree_classes) + " surviving\n";
  out += "residues:          " + std::to_string(residue_rules_deleted) +
         " rules deleted, " + std::to_string(residue_comparisons_added) +
         " comparisons added, " + std::to_string(residue_negations_added) +
         " negations added\n";
  out += "interning:         " + std::to_string(intern_hits) + " hits, " +
         std::to_string(intern_misses) + " misses, " +
         std::to_string(memo_hits) + " memo hits, " +
         std::to_string(store_size) + " triplets\n";

  if (has_lowering) {
    out += "\n== lowering ==\n";
    out += lowering.ToText();
  }

  if (compiled) {
    out += "\n== kernels ==\n";
    out += "compile time:      " + FormatDurationNs(compile_ns) + "\n";
    out += "plans:             " + std::to_string(kernels.size()) + " (" +
           std::to_string(total_ops) + " ops)\n";
    out += "rule      delta   ops     kernel\n";
    for (const ExplainKernelRow& row : kernels) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "#%-8d %-7s %-7d ", row.rule_index,
                    row.delta_subgoal < 0
                        ? "-"
                        : std::to_string(row.delta_subgoal).c_str(),
                    row.op_count);
      out += buf;
      out += row.kernel;
      out += '\n';
    }
  }

  if (maintained) {
    out += "\n== maintenance ==\n";
    out += "batches:           " + std::to_string(batches) + "\n";
    out += "maintain time:     " + FormatDurationNs(maintain.maintain_ns) +
           "\n";
    out += "edb delta:         +" + std::to_string(maintain.edb_inserted) +
           " / -" + std::to_string(maintain.edb_deleted) + "\n";
    out += "idb delta:         +" + std::to_string(maintain.idb_inserted) +
           " / -" + std::to_string(maintain.idb_deleted) + "\n";
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2f",
                  maintain.over_deletion_ratio());
    out += "over-deletion:     " + std::to_string(maintain.over_deleted) +
           " tentative, " + std::to_string(maintain.rederived) +
           " rederived (ratio " + ratio + ")\n";
    out += "count updates:     " + std::to_string(maintain.count_updates) +
           "\n";
    out += "strata:            " +
           std::to_string(maintain.strata_incremental) + " incremental, " +
           std::to_string(maintain.strata_recomputed) + " recomputed, " +
           std::to_string(maintain.strata_skipped) + " skipped\n";
    out += "last batch:        " + last_batch.Summary() + "\n";
  }

  if (analyzed) {
    out += "\n== runtime ==\n";
    out += "execute time:      " + FormatDurationNs(execute_ns) + "\n";
    out += "answers:           " + std::to_string(answers) + "\n";
    out += "iterations:        " + std::to_string(stats.iterations) + "\n";
    out += "rule firings:      " + std::to_string(stats.rule_firings) + "\n";
    out += "tuples derived:    " + std::to_string(stats.tuples_derived) +
           " (+" + std::to_string(stats.duplicate_derivations) +
           " duplicates)\n";
    out += "join probes:       " + std::to_string(stats.join_probes) + "\n";
    out += "comparison checks: " + std::to_string(stats.comparison_checks) +
           "\n";
    if (ops_executed > 0) {
      out += "bytecode ops:      " + std::to_string(ops_executed) + "\n";
    }
    // Per-rule rows, busiest first; rules that never fired sink below.
    std::vector<const ExplainRuleRow*> ordered;
    ordered.reserve(rules.size());
    for (const ExplainRuleRow& row : rules) ordered.push_back(&row);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const ExplainRuleRow* a, const ExplainRuleRow* b) {
                       if (a->profile.time_ns != b->profile.time_ns) {
                         return a->profile.time_ns > b->profile.time_ns;
                       }
                       return a->profile.firings > b->profile.firings;
                     });
    out += "\nrule      time        firings   derived   dups      rule\n";
    for (const ExplainRuleRow* row : ordered) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "#%-8d %-11s %-9lld %-9lld %-9lld ",
                    row->rule_index,
                    FormatDurationNs(row->profile.time_ns).c_str(),
                    static_cast<long long>(row->profile.firings),
                    static_cast<long long>(row->profile.derived),
                    static_cast<long long>(row->profile.duplicates));
      out += buf;
      out += row->rule_text;
      out += '\n';
    }
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{\"passes\":[";
  bool first = true;
  for (const ExplainPassRow& row : passes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(row.name) + "\"";
    out += ",\"ran\":";
    out += row.ran ? "true" : "false";
    out += ",\"disabled\":";
    out += row.disabled ? "true" : "false";
    out += ",\"wall_ns\":" + std::to_string(row.wall_ns);
    out += ",\"rules_before\":" + std::to_string(row.rules_before);
    out += ",\"rules_after\":" + std::to_string(row.rules_after);
    out += ",\"literals_before\":" + std::to_string(row.literals_before);
    out += ",\"literals_after\":" + std::to_string(row.literals_after);
    out += ",\"negations_before\":" + std::to_string(row.negations_before);
    out += ",\"negations_after\":" + std::to_string(row.negations_after);
    out += ",\"comparisons_before\":" + std::to_string(row.comparisons_before);
    out += ",\"comparisons_after\":" + std::to_string(row.comparisons_after);
    out += '}';
  }
  out += "],\"plan\":{";
  if (!fallback.ok()) {
    out += "\"fallback\":\"" + JsonEscape(StatusText(fallback)) + "\",";
  }
  out += "\"optimize_ns\":" + std::to_string(optimize_ns);
  out += ",\"satisfiable\":";
  out += query_satisfiable ? "true" : "false";
  out += ",\"adorned_predicates\":" + std::to_string(adorned_predicates);
  out += ",\"adorned_rules\":" + std::to_string(adorned_rules);
  out += ",\"tree_classes\":" + std::to_string(tree_classes);
  out += ",\"surviving_classes\":" + std::to_string(surviving_classes);
  out += ",\"residue_rules_deleted\":" + std::to_string(residue_rules_deleted);
  out += ",\"residue_comparisons_added\":" +
         std::to_string(residue_comparisons_added);
  out += ",\"residue_negations_added\":" +
         std::to_string(residue_negations_added);
  out += ",\"intern_hits\":" + std::to_string(intern_hits);
  out += ",\"intern_misses\":" + std::to_string(intern_misses);
  out += ",\"memo_hits\":" + std::to_string(memo_hits);
  out += ",\"store_size\":" + std::to_string(store_size);
  out += '}';
  if (has_lowering) out += ",\"lowering\":" + lowering.ToJson();
  if (compiled) {
    out += ",\"kernels\":{";
    out += "\"compile_ns\":" + std::to_string(compile_ns);
    out += ",\"total_ops\":" + std::to_string(total_ops);
    out += ",\"plans\":[";
    first = true;
    for (const ExplainKernelRow& row : kernels) {
      if (!first) out += ',';
      first = false;
      out += "{\"rule_index\":" + std::to_string(row.rule_index);
      out += ",\"delta_subgoal\":" + std::to_string(row.delta_subgoal);
      out += ",\"kernel\":\"" + JsonEscape(row.kernel) + "\"";
      out += ",\"op_count\":" + std::to_string(row.op_count);
      out += '}';
    }
    out += "]}";
  }
  if (maintained) {
    out += ",\"maintenance\":{";
    out += "\"batches\":" + std::to_string(batches);
    out += ",\"totals\":" + MaintainJson(maintain);
    out += ",\"last_batch\":" + MaintainJson(last_batch);
    out += '}';
  }
  if (analyzed) {
    out += ",\"runtime\":{";
    out += "\"execute_ns\":" + std::to_string(execute_ns);
    out += ",\"answers\":" + std::to_string(answers);
    out += ",\"iterations\":" + std::to_string(stats.iterations);
    out += ",\"rule_firings\":" + std::to_string(stats.rule_firings);
    out += ",\"tuples_derived\":" + std::to_string(stats.tuples_derived);
    out += ",\"duplicate_derivations\":" +
           std::to_string(stats.duplicate_derivations);
    out += ",\"join_probes\":" + std::to_string(stats.join_probes);
    out += ",\"comparison_checks\":" + std::to_string(stats.comparison_checks);
    out += ",\"ops_executed\":" + std::to_string(ops_executed);
    out += ",\"rules\":[";
    first = true;
    for (const ExplainRuleRow& row : rules) {
      if (!first) out += ',';
      first = false;
      out += "{\"rule_index\":" + std::to_string(row.rule_index);
      out += ",\"rule\":\"" + JsonEscape(row.rule_text) + "\"";
      out += ",\"head\":\"" + JsonEscape(row.profile.head) + "\"";
      out += ",\"firings\":" + std::to_string(row.profile.firings);
      out += ",\"derived\":" + std::to_string(row.profile.derived);
      out += ",\"duplicates\":" + std::to_string(row.profile.duplicates);
      out += ",\"probes\":" + std::to_string(row.profile.probes);
      out += ",\"cmp_checks\":" + std::to_string(row.profile.cmp_checks);
      out += ",\"ops\":" + std::to_string(row.profile.ops);
      out += ",\"time_ns\":" + std::to_string(row.profile.time_ns);
      out += '}';
    }
    out += "]}";
  }
  out += '}';
  return out;
}

std::string ExplainReport::Summary() const {
  int rules_in = passes.empty() ? 0 : passes.front().rules_before;
  int rules_out = passes.empty() ? 0 : passes.back().rules_after;
  std::string out = "sat=";
  out += query_satisfiable ? "yes" : "no";
  out += " rules=" + std::to_string(rules_in) + "->" +
         std::to_string(rules_out);
  out += " residues(del=" + std::to_string(residue_rules_deleted) +
         " cmp=" + std::to_string(residue_comparisons_added) +
         " neg=" + std::to_string(residue_negations_added) + ")";
  out += " optimize=" + FormatDurationNs(optimize_ns);
  if (!fallback.ok()) {
    out += " fallback=";
    out += StatusCodeName(fallback.code());
  }
  if (maintained) {
    out += " batches=" + std::to_string(batches);
    out += " v" + std::to_string(maintain.version);
    out += " overdel=" + std::to_string(maintain.over_deleted) + "/" +
           std::to_string(maintain.rederived);
  }
  if (analyzed) {
    out += " iters=" + std::to_string(stats.iterations);
    out += " firings=" + std::to_string(stats.rule_firings);
    out += " answers=" + std::to_string(answers);
    out += " execute=" + FormatDurationNs(execute_ns);
  }
  return out;
}

}  // namespace sqod
