// In-tree CDCL SAT solver for the ATPG backend.
//
// Classic conflict-driven clause learning in the MiniSat mold: two
// watched literals per clause, first-UIP conflict analysis, VSIDS-style
// activity-ordered decisions with phase saving, Luby restarts and a
// per-solve conflict budget (exhaustion returns kUnknown, which the
// ATPG stage maps to "still aborted").
//
// The solver is multi-shot: solve(assumptions) may be called any number
// of times, with add_clause() extending the formula between solves.
// Assumptions are enqueued as decisions on dedicated leading decision
// levels (one per assumption, MiniSat-style), so first-UIP analysis
// needs no special casing -- a conflict that ultimately falsifies an
// assumption surfaces as kUnsat *under these assumptions* without
// poisoning the formula, while a conflict at decision level 0 marks the
// formula itself unsatisfiable for every later solve. Learned clauses,
// saved phases and VSIDS activities persist across solves; the learned
// database is bounded by a deterministic activity-based reduction
// (binaries are kept forever -- they are the cross-fault implication
// harvest, see learned_binaries()).
//
// Determinism contract: a solve sequence is a pure function of the
// (clause, solve, simplify, retire_var) call sequence and the options.
// The next decision is always the unassigned, unretired variable of
// highest activity, ties toward the smaller variable index -- the heap
// is re-heapified after every activity rescale, so this order never
// depends on the heap's history or on which other variables it holds.
// Clause and watch traversal follow insertion order (simplify()
// compacts in place and keeps it), database reduction orders by
// (activity, insertion index), and no wall-clock, randomization or
// address-order input exists -- so repeated runs (and runs on different
// machines) produce identical models, conflict counts and learned
// clauses.
//
// Storage (MiniSat layout, Een & Sorensson, SAT 2003): one flat
// uint32_t arena holds every clause as a four-word header -- size and
// learned flag, birth (the solve that learned it), activity (a double)
// -- followed by the literals inline; a ClauseRef is the header's
// offset. Offsets grow in insertion order and both compactions
// (simplify, reduce_db) slide clauses down in place, in order, so the
// offset doubles as the insertion index of reduce_db's tie-break and
// of the order in which watch lists are rebuilt. Watchers are
// {clause, other}: for a binary clause `other` is its partner literal,
// for a longer one kLitUndef. A per-literal value array makes every
// literal test one load.
//
// The propagation kernel makes the same decisions, conflicts, learned
// clauses and models as the textbook loop that swaps the false literal
// into slot 1 on every visit:
//   - Binary clauses never rewatch, so `other` is never stale: a
//     satisfied visit reads only the value array, and the clause is
//     reordered (partner first) exactly when it becomes unit or
//     conflicting -- the only moments the swap was ever read.
//   - A longer clause's partner is read as c[0]^c[1]^false_lit, and a
//     satisfied visit writes nothing. The swap it skips only fixes
//     which of the two watched literals sits in slot 0; the next visit
//     that is not satisfied makes the same swap before anything reads
//     the order (analysis reads a clause only after it was found unit
//     or conflicting), and literals at positions >= 2 move only on a
//     rewatch. A blocker literal that can go stale (MiniSat's) would
//     skip visits the textbook loop makes, and change the search.
//
// Retirement (the incremental miter's use, see sat/incremental.h): a
// variable whose every clause is true at level 0 can never be implied
// or take part in a conflict. Retiring it from branching and deleting
// its clauses with simplify() therefore leaves the search path --
// conflicts, learned clauses, models on the other variables -- exactly
// as it was; only the decision count and the memory drop.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/cnf.h"

namespace occ {
namespace sat {

/// Outcome of one solve.
enum class SatResult : uint8_t {
  kSat,     ///< model() holds a satisfying assignment
  kUnsat,   ///< unsatisfiable (under the given assumptions, if any)
  kUnknown  ///< conflict budget exhausted before a verdict
};

struct SolverOptions {
  /// Per-solve conflict budget; 0 = unlimited. On exhaustion solve()
  /// returns kUnknown (the formula and learned state stay usable).
  uint64_t conflict_budget = 0;
  /// VSIDS activity decay per conflict (activity increment grows by
  /// 1/decay).
  double var_decay = 0.95;
  /// Learned-clause activity decay per conflict.
  double clause_decay = 0.999;
  /// Luby restart unit, in conflicts.
  uint32_t restart_base = 128;
  /// Learned non-binary clauses kept before an activity-based database
  /// reduction halves them (the ceiling then grows 1.5x so reductions
  /// stay amortized). 0 = never reduce.
  size_t learned_limit = 8192;
};

/// Deterministic work counters of one solver instance (cumulative over
/// all solves of the instance).
struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t learned_literals = 0;
  uint64_t solves = 0;             ///< solve() calls
  uint64_t assumption_solves = 0;  ///< solves with a non-empty assumption set
  /// Propagations whose reason is a learned clause from an *earlier*
  /// solve -- the cross-solve clause-sharing payoff.
  uint64_t learned_reused = 0;
  uint64_t db_reductions = 0;   ///< learned-database reduction passes
  uint64_t learned_removed = 0; ///< learned clauses dropped by reductions
  uint64_t vars_retired = 0;       ///< decision flags cleared
  uint64_t clauses_collected = 0;  ///< problem clauses deleted by simplify()
};

/// One multi-shot CDCL solver over a growing formula. Construction
/// copies the clauses; solve() may be called repeatedly, with
/// new_var()/add_clause() extending the formula between solves.
class CdclSolver {
 public:
  explicit CdclSolver(const Cnf& cnf, SolverOptions opts = {});

  /// Extends the variable range by one fresh variable.
  Var new_var();

  /// Adds a clause (normalized: sorted, deduplicated, tautologies
  /// dropped, literals false at level 0 removed). Units are enqueued as
  /// level-0 facts. Returns false once the formula is unsatisfiable at
  /// level 0 (every later solve returns kUnsat).
  bool add_clause(std::vector<Lit> c);

  /// Clears the decision flag of `v` for good: from now on it is
  /// assigned only by propagation. For variables no live clause
  /// constrains, so solve() can finish without deciding them (they read
  /// 0 in model()).
  void retire_var(Var v);

  /// Level-0 garbage collection: propagates pending level-0 facts, then
  /// deletes every problem clause with a literal true at level 0 and
  /// compacts the watch lists in place, in order. Learned clauses are
  /// left alone (collecting them would shift the reduction schedule).
  /// Returns false once the formula is unsatisfiable at level 0.
  bool simplify();

  /// Replaces the per-solve conflict budget (0 = unlimited).
  void set_conflict_budget(uint64_t budget) {
    opts_.conflict_budget = budget;
  }

  /// Runs the CDCL loop to a verdict or the conflict budget.
  SatResult solve() { return solve({}); }

  /// Solves under the given assumption literals. kUnsat means
  /// unsatisfiable under these assumptions; the formula itself stays
  /// usable unless a level-0 conflict was derived (ok() == false).
  SatResult solve(const std::vector<Lit>& assumptions);

  /// False once a level-0 conflict proved the formula unsatisfiable.
  bool ok() const { return ok_; }

  /// Satisfying assignment per variable (0/1), valid after kSat. Every
  /// decision variable is assigned (the decision loop covers vars absent
  /// from all clauses); an unassigned non-decision variable reads 0.
  const std::vector<uint8_t>& model() const { return model_; }

  const SolverStats& stats() const { return stats_; }

  /// Learned clauses currently retained in the database.
  size_t learned_kept() const { return learned_count_; }

  /// Problem (non-learned, non-unit) clauses currently in the database.
  size_t problem_clauses() const { return problem_clauses_; }

  /// Retained learned binary clauses (a OR b), in creation order; the
  /// order of the two literals within a pair carries no meaning.
  /// Binaries survive every database reduction, so this is the complete
  /// binary harvest of the solve history -- each is a logical
  /// consequence of the problem clauses alone (assumptions enter
  /// analysis as decisions and are never resolved away).
  std::vector<std::pair<Lit, Lit>> learned_binaries() const;

 private:
  /// Offset of a clause's header in the arena.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = 0xFFFFFFFFu;

  // Clause header words; the literals follow inline.
  static constexpr uint32_t kHeaderWords = 4;
  static constexpr uint32_t kLearnedBit = 1;  // word 0
  static constexpr uint32_t kDeletedBit = 2;  // word 0, compaction mark
  static constexpr uint32_t kSizeShift = 2;   // word 0: size << 2 | bits
  static constexpr uint32_t kBirthWord = 1;   // solve that learned it
  static constexpr uint32_t kActWord = 2;     // words 2-3: double

  /// One watch-list entry. `other` is the partner literal of a binary
  /// clause and kLitUndef for a longer one.
  struct Watcher {
    ClauseRef cr;
    Lit other;
  };

  uint32_t clause_size(ClauseRef cr) const {
    return arena_[cr] >> kSizeShift;
  }
  bool clause_learned(ClauseRef cr) const {
    return (arena_[cr] & kLearnedBit) != 0;
  }
  Lit* clause_lits(ClauseRef cr) { return &arena_[cr + kHeaderWords]; }
  const Lit* clause_lits(ClauseRef cr) const {
    return &arena_[cr + kHeaderWords];
  }
  /// Offset of the clause after `cr` (arena walks run in order).
  ClauseRef clause_next(ClauseRef cr) const {
    return cr + kHeaderWords + clause_size(cr);
  }
  double clause_act(ClauseRef cr) const;
  void set_clause_act(ClauseRef cr, double act);

  bool lit_true(Lit l) const { return vals_[l] > 0; }
  bool lit_false(Lit l) const { return vals_[l] < 0; }
  bool var_unassigned(Var v) const { return vals_[mk_lit(v)] == 0; }

  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learned);
  void attach_clause(ClauseRef cr);
  void compact_arena();  // slides unmarked clauses over marked ones
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // returns conflicting clause or kNoReason
  void analyze(ClauseRef confl, std::vector<Lit>* learnt,
               uint32_t* out_btlevel);
  void cancel_until(uint32_t level);
  Lit pick_branch();  // kLitUndef when all vars assigned
  void var_bump(Var v);
  void var_decay_all();
  void cla_bump(ClauseRef cr);
  void reduce_db();  // level-0 only: drop low-activity learned clauses

  // Activity-ordered max-heap (ties toward the smaller variable).
  bool heap_lt(Var a, Var b) const;
  void heap_insert(Var v);
  void heap_sift_up(size_t i);
  void heap_sift_down(size_t i);
  void heap_rebuild();  // restores heap order over the current members
  Var heap_pop();

  SolverOptions opts_;
  std::vector<uint32_t> arena_;  // every clause: header + literals
  std::vector<std::vector<Watcher>> watches_;  // per literal
  std::vector<int8_t> vals_;      // per literal: 1 true, -1 false, 0 unset
  std::vector<uint32_t> level_;   // per var: decision level
  std::vector<ClauseRef> reason_; // per var: implying clause
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<uint8_t> phase_;       // saved polarity per var
  std::vector<uint8_t> decision_;    // per var: 0 once retired
  std::vector<Var> heap_;            // binary heap of candidate vars
  std::vector<int32_t> heap_index_;  // var -> heap slot or -1

  std::vector<uint8_t> seen_;  // conflict-analysis scratch
  bool ok_ = true;             // false once UNSAT at level 0

  size_t problem_clauses_ = 0;        // non-learned clauses in the arena
  size_t learned_count_ = 0;          // learned clauses in the arena
  size_t learned_nonbinary_ = 0;      // reduction-eligible subset
  size_t learned_ceiling_ = 0;        // current reduction threshold
  uint32_t cur_solve_ = 0;            // solve index (for birth/reuse)

  std::vector<uint8_t> model_;
  SolverStats stats_;
};

/// Plain unit propagation over `cnf` from the given assumption
/// literals, with no decisions and no learning: the reference
/// propagation the CNF-lowering parity tests run against the
/// UnrolledModel simulation. Returns the assignment per variable
/// (-1 unassigned, 0 false, 1 true); sets *conflict when propagation
/// derives an empty clause. Independent of CdclSolver's propagation
/// machinery on purpose (it doubles as a cross-check of it).
std::vector<int8_t> unit_propagate(const Cnf& cnf,
                                   const std::vector<Lit>& assumptions,
                                   bool* conflict);

}  // namespace sat
}  // namespace occ
