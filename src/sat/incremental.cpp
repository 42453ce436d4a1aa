#include "sat/incremental.h"

#include "util/check.h"

namespace occ {
namespace sat {

IncrementalMiter::IncrementalMiter(const UnrolledModel& um, SolverOptions opts)
    : lowering_(um), solver_(lowering_.cnf(), opts) {
  next_var_ = lowering_.cnf().num_vars;
  lowering_.take_clauses();  // the solver holds its own copy
}

IncrementalMiter::IncrementalMiter(const CnfLowering& base, SolverOptions opts)
    : lowering_(base), solver_(lowering_.cnf(), opts) {
  next_var_ = lowering_.cnf().num_vars;
  lowering_.take_clauses();
}

void IncrementalMiter::sync() {
  while (next_var_ < lowering_.cnf().num_vars) {
    solver_.new_var();
    ++next_var_;
  }
  // The solver is the only keeper of the formula: the lowering's copy
  // would otherwise grow with every fault decided.
  for (auto& c : lowering_.take_clauses()) solver_.add_clause(std::move(c));
}

IncrementalMiter::Verdict IncrementalMiter::decide(uint64_t key,
                                                   const UnrolledFault& uf,
                                                   uint64_t conflict_budget,
                                                   std::vector<V3>* cube) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    if (!lowering_.add_fault_gated(uf, &e.activation)) {
      e.no_observation = true;
      e.retired = true;
      e.decided = Verdict::kNoObservation;
      entries_.emplace(key, e);
      return Verdict::kNoObservation;
    }
    const size_t before = solver_.problem_clauses();
    sync();
    e.end = next_var_;
    e.clauses = solver_.problem_clauses() - before;
    it = entries_.emplace(key, e).first;
  } else if (it->second.retired) {
    // A retired instance's clauses are permanently deactivated; its
    // verdict is final.
    return it->second.decided;
  }

  Entry& e = it->second;
  solver_.set_conflict_budget(conflict_budget);
  const SatResult r = solver_.solve({e.activation});
  switch (r) {
    case SatResult::kSat:
      if (cube != nullptr) *cube = lowering_.extract_cube(solver_.model());
      retire(&e, Verdict::kSat);
      return Verdict::kSat;
    case SatResult::kUnsat:
      // UNSAT under {activation}: with the activation retired the
      // instance's clauses are all satisfied, so this can only mean the
      // instance itself is undetectable (a level-0 UNSAT of the shared
      // formula is impossible -- the good machine alone is satisfiable
      // and every per-fault clause is guarded).
      OCC_CHECK(solver_.ok(), "sat: shared incremental formula went UNSAT");
      retire(&e, Verdict::kUnsat);
      return Verdict::kUnsat;
    case SatResult::kUnknown:
      // Stays active; a later decide() with a larger budget resumes
      // from the learned state without re-lowering.
      return Verdict::kUnknown;
  }
  OCC_CHECK(false, "sat: unreachable solver verdict");
  return Verdict::kUnknown;
}

void IncrementalMiter::add_stats_to(SatStats* agg) const {
  const SolverStats& st = solver_.stats();
  agg->solves += st.solves;
  agg->conflicts += st.conflicts;
  agg->decisions += st.decisions;
  agg->propagations += st.propagations;
  agg->assumption_solves += st.assumption_solves;
  agg->learned_reused += st.learned_reused;
  agg->learned_kept += solver_.learned_kept();
  agg->relowered_faults += relowered_faults_;
  agg->vars_retired += st.vars_retired;
  agg->clauses_collected += st.clauses_collected;
  agg->problem_clauses += solver_.problem_clauses();
}

void IncrementalMiter::retire(Entry* e, Verdict v) {
  e->retired = true;
  e->decided = v;
  solver_.add_clause({lit_neg(e->activation)});
  for (Var x = lit_var(e->activation) + 1; x < e->end; ++x) {
    solver_.retire_var(x);
  }
  retired_clauses_ += e->clauses;
  if (static_cast<double>(retired_clauses_) >
      kGcShare * static_cast<double>(solver_.problem_clauses())) {
    solver_.simplify();
    retired_clauses_ = 0;
  }
}

}  // namespace sat
}  // namespace occ
