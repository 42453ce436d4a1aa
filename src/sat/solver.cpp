#include "sat/solver.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/check.h"

namespace occ {
namespace sat {
namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...), 1-based.
uint64_t luby(uint64_t i) {
  // Find the finite subsequence containing index i, then recurse.
  uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

}  // namespace

CdclSolver::CdclSolver(const Cnf& cnf, SolverOptions opts)
    : opts_(opts), learned_ceiling_(opts.learned_limit) {
  const size_t n = cnf.num_vars;
  watches_.assign(2 * n, {});
  vals_.assign(2 * n, 0);
  level_.assign(n, 0);
  reason_.assign(n, kNoReason);
  activity_.assign(n, 0.0);
  phase_.assign(n, 0);
  seen_.assign(n, 0);
  decision_.assign(n, 1);
  heap_index_.assign(n, -1);
  heap_.reserve(n);
  for (Var v = 0; v < n; ++v) heap_insert(v);

  for (const auto& orig : cnf.clauses) add_clause(orig);
}

Var CdclSolver::new_var() {
  const Var v = static_cast<Var>(level_.size());
  watches_.emplace_back();
  watches_.emplace_back();
  vals_.push_back(0);
  vals_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  phase_.push_back(0);
  seen_.push_back(0);
  decision_.push_back(1);
  heap_index_.push_back(-1);
  heap_insert(v);
  return v;
}

bool CdclSolver::add_clause(std::vector<Lit> c) {
  OCC_CHECK(trail_lim_.empty(),
            "sat: add_clause is only legal at decision level 0");
  if (!ok_) return false;
  // Normalize: sort, drop duplicate literals, skip tautologies and
  // literals already false at level 0, skip clauses already true at
  // level 0. The lowering never emits tautologies, but fuzzed inputs
  // may. (Level-0 facts enqueued by earlier add_clause calls may still
  // be unpropagated; they are facts regardless, so filtering against
  // them is sound.)
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (lit_var(c[i]) == lit_var(c[i + 1])) return true;  // tautology
  }
  size_t j = 0;
  for (const Lit l : c) {
    OCC_CHECK(lit_var(l) < level_.size(),
              "sat: literal references variable ", lit_var(l),
              " but the solver declares ", level_.size());
    if (lit_true(l)) return true;  // satisfied at level 0
    if (!lit_false(l)) c[j++] = l;
  }
  c.resize(j);

  if (c.empty()) {
    ok_ = false;
    return false;
  }
  if (c.size() == 1) {
    // Level-0 fact; propagation is deferred to the next solve so a
    // batch of adds behaves like one formula extension.
    enqueue(c[0], kNoReason);
    return true;
  }
  attach_clause(alloc_clause(c, false));
  ++problem_clauses_;
  return true;
}

void CdclSolver::retire_var(Var v) {
  OCC_DCHECK(v < decision_.size());
  if (!decision_[v]) return;
  // Left in the heap: pick_branch() drops it the first time it surfaces
  // and cancel_until() never puts it back.
  decision_[v] = 0;
  ++stats_.vars_retired;
}

bool CdclSolver::simplify() {
  OCC_CHECK(trail_lim_.empty(),
            "sat: simplify is only legal at decision level 0");
  if (!ok_) return false;
  if (propagate() != kNoReason) {
    ok_ = false;
    return false;
  }
  // Level-0 facts are permanent; no reason pointer may outlive its
  // clause.
  for (const Lit l : trail_) reason_[lit_var(l)] = kNoReason;

  // Mark every problem clause with a literal true at level 0, and list
  // each run of adjacent marked clauses in arena order with the words
  // removed up to its end: a survivor at offset cr moves down by the
  // total of the last run below cr. A retired instance's clauses sit
  // together, so the table holds one entry per run of them, not one per
  // deleted clause.
  std::vector<std::pair<ClauseRef, uint32_t>> gone;  // (run start, words)
  uint32_t words = 0;
  size_t removed = 0;
  bool in_run = false;
  for (ClauseRef cr = 0; cr < arena_.size(); cr = clause_next(cr)) {
    const Lit* c = clause_lits(cr);
    const bool dead = !clause_learned(cr) &&
                      std::any_of(c, c + clause_size(cr),
                                  [this](Lit l) { return lit_true(l); });
    if (dead) {
      arena_[cr] |= kDeletedBit;
      words += kHeaderWords + clause_size(cr);
      if (!in_run) gone.emplace_back(cr, 0);
      gone.back().second = words;
      ++removed;
    }
    in_run = dead;
  }
  if (removed == 0) return true;

  // Compact every watch list in place, in order: a collected clause is
  // true at level 0 and never becomes unit or conflicting, so dropping
  // it leaves the order in which propagation meets every other clause
  // -- and with it the search -- unchanged.
  for (auto& ws : watches_) {
    size_t j = 0;
    for (const Watcher& w : ws) {
      if (arena_[w.cr] & kDeletedBit) continue;
      const auto it = std::lower_bound(
          gone.begin(), gone.end(), w.cr,
          [](const std::pair<ClauseRef, uint32_t>& g, ClauseRef cr) {
            return g.first < cr;
          });
      const uint32_t shift = it == gone.begin() ? 0 : std::prev(it)->second;
      ws[j++] = Watcher{w.cr - shift, w.other};
    }
    ws.resize(j);
    if (j < ws.capacity() / 4) ws.shrink_to_fit();
  }
  compact_arena();
  problem_clauses_ -= removed;
  stats_.clauses_collected += removed;
  return true;
}

CdclSolver::ClauseRef CdclSolver::alloc_clause(const std::vector<Lit>& lits,
                                               bool learned) {
  OCC_CHECK(arena_.size() + kHeaderWords + lits.size() < kNoReason &&
                lits.size() < (size_t{1} << (32 - kSizeShift)),
            "sat: clause arena exceeds 32-bit offsets");
  const ClauseRef cr = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<uint32_t>(lits.size()) << kSizeShift |
                   (learned ? kLearnedBit : 0));
  arena_.push_back(learned ? cur_solve_ : 0);
  arena_.push_back(0);
  arena_.push_back(0);
  set_clause_act(cr, learned ? cla_inc_ : 0.0);
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return cr;
}

double CdclSolver::clause_act(ClauseRef cr) const {
  double act = 0.0;
  std::memcpy(&act, &arena_[cr + kActWord], sizeof act);
  return act;
}

void CdclSolver::set_clause_act(ClauseRef cr, double act) {
  std::memcpy(&arena_[cr + kActWord], &act, sizeof act);
}

void CdclSolver::compact_arena() {
  ClauseRef to = 0;
  for (ClauseRef cr = 0; cr < arena_.size();) {
    const ClauseRef next = clause_next(cr);
    if ((arena_[cr] & kDeletedBit) == 0) {
      if (to != cr) {
        std::copy(arena_.begin() + cr, arena_.begin() + next,
                  arena_.begin() + to);
      }
      to += next - cr;
    }
    cr = next;
  }
  arena_.resize(to);
  if (to < arena_.capacity() / 4) arena_.shrink_to_fit();
}

void CdclSolver::attach_clause(ClauseRef cr) {
  const Lit* c = clause_lits(cr);
  const bool binary = clause_size(cr) == 2;
  watches_[c[0]].push_back(Watcher{cr, binary ? c[1] : kLitUndef});
  watches_[c[1]].push_back(Watcher{cr, binary ? c[0] : kLitUndef});
}

void CdclSolver::enqueue(Lit l, ClauseRef reason) {
  const Var v = lit_var(l);
  OCC_DCHECK(vals_[l] == 0);
  vals_[l] = 1;
  vals_[lit_neg(l)] = -1;
  phase_[v] = !lit_sign(l);
  level_[v] = static_cast<uint32_t>(trail_lim_.size());
  reason_[v] = reason;
  if (reason != kNoReason && clause_learned(reason) &&
      arena_[reason + kBirthWord] != cur_solve_) {
    ++stats_.learned_reused;
  }
  trail_.push_back(l);
}

CdclSolver::ClauseRef CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p just became true
    ++stats_.propagations;
    const Lit false_lit = lit_neg(p);
    std::vector<Watcher>& ws = watches_[false_lit];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    ClauseRef confl = kNoReason;
    while (i != end) {
      const Watcher w = *i++;
      if (w.other != kLitUndef) {
        // Binary clause: it never rewatches, so the partner is exact and
        // a satisfied visit never touches the arena.
        OCC_DCHECK(clause_size(w.cr) == 2 &&
                   (clause_lits(w.cr)[0] ^ clause_lits(w.cr)[1] ^
                    false_lit) == w.other);
        *j++ = w;
        if (lit_true(w.other)) continue;
        Lit* c = clause_lits(w.cr);
        c[0] = w.other;
        c[1] = false_lit;
        if (lit_false(w.other)) {
          confl = w.cr;
          break;
        }
        enqueue(w.other, w.cr);
        continue;
      }
      Lit* c = clause_lits(w.cr);
      OCC_DCHECK(c[0] == false_lit || c[1] == false_lit);
      // The partner, read without reordering: a satisfied visit writes
      // nothing, since the next visit puts false_lit in slot 1 anyway.
      const Lit first = c[0] ^ c[1] ^ false_lit;
      if (lit_true(first)) {
        *j++ = w;
        continue;
      }
      c[0] = first;
      c[1] = false_lit;
      const uint32_t size = clause_size(w.cr);
      bool rewatched = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (!lit_false(c[k])) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_[c[1]].push_back(w);
          rewatched = true;
          break;
        }
      }
      if (rewatched) continue;
      // All but c[0] false: unit or conflict.
      *j++ = w;
      if (lit_false(first)) {
        confl = w.cr;
        break;
      }
      enqueue(first, w.cr);
    }
    if (confl != kNoReason) {
      j = std::copy(i, end, j);
      ws.resize(static_cast<size_t>(j - ws.data()));
      qhead_ = trail_.size();
      return confl;
    }
    ws.resize(static_cast<size_t>(j - ws.data()));
  }
  return kNoReason;
}

void CdclSolver::analyze(ClauseRef confl, std::vector<Lit>* learnt,
                         uint32_t* out_btlevel) {
  learnt->clear();
  learnt->push_back(kLitUndef);  // slot for the asserting (first-UIP) lit
  const uint32_t cur_level = static_cast<uint32_t>(trail_lim_.size());
  size_t path = 0;
  Lit p = kLitUndef;
  size_t index = trail_.size();

  do {
    OCC_DCHECK(confl != kNoReason);
    cla_bump(confl);
    const Lit* c = clause_lits(confl);
    const uint32_t size = clause_size(confl);
    // For reason clauses c[0] is the implied literal (== p), skip it.
    for (uint32_t k = (p == kLitUndef ? 0 : 1); k < size; ++k) {
      const Var v = lit_var(c[k]);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      var_bump(v);
      if (level_[v] >= cur_level) {
        ++path;
      } else {
        // Literals on lower decision levels join the learnt tail. An
        // assumption-level decision literal lands here too (its reason
        // is kNoReason, but the walk below only dereferences reasons of
        // current-level literals), which keeps the learnt clause a
        // consequence of the clause database alone.
        learnt->push_back(c[k]);
      }
    }
    while (!seen_[lit_var(trail_[--index])]) {
    }
    p = trail_[index];
    confl = reason_[lit_var(p)];
    seen_[lit_var(p)] = 0;
    --path;
  } while (path > 0);
  (*learnt)[0] = lit_neg(p);

  // Backtrack level: highest level among the tail literals; swap that
  // literal into slot 1 so it is watched.
  uint32_t bt = 0;
  size_t max_i = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    const uint32_t lv = level_[lit_var((*learnt)[i])];
    if (lv > bt) {
      bt = lv;
      max_i = i;
    }
  }
  if (learnt->size() > 1) std::swap((*learnt)[1], (*learnt)[max_i]);
  *out_btlevel = bt;
  for (size_t i = 1; i < learnt->size(); ++i) {
    seen_[lit_var((*learnt)[i])] = 0;
  }
}

void CdclSolver::cancel_until(uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const size_t bound = trail_lim_[level];
  for (size_t i = trail_.size(); i > bound; --i) {
    const Lit l = trail_[i - 1];
    const Var v = lit_var(l);
    vals_[l] = 0;
    vals_[lit_neg(l)] = 0;
    reason_[v] = kNoReason;
    if (heap_index_[v] < 0 && decision_[v]) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = bound;
}

Lit CdclSolver::pick_branch() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (var_unassigned(v) && decision_[v]) return mk_lit(v, phase_[v] == 0);
  }
  return kLitUndef;
}

void CdclSolver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    // The rescale underflows old activities to exactly 0 and may round
    // distinct small ones together, so ties (broken by index) appear
    // that the heap's current shape does not respect. Re-heapify, or the
    // pick order would depend on the heap's history.
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    heap_rebuild();
    return;
  }
  if (heap_index_[v] >= 0) heap_sift_up(static_cast<size_t>(heap_index_[v]));
}

void CdclSolver::var_decay_all() { var_inc_ /= opts_.var_decay; }

void CdclSolver::cla_bump(ClauseRef cr) {
  if (!clause_learned(cr)) return;
  const double act = clause_act(cr) + cla_inc_;
  set_clause_act(cr, act);
  if (act > 1e20) {
    for (ClauseRef c = 0; c < arena_.size(); c = clause_next(c)) {
      if (clause_learned(c)) set_clause_act(c, clause_act(c) * 1e-20);
    }
    cla_inc_ *= 1e-20;
  }
}

void CdclSolver::reduce_db() {
  OCC_DCHECK(trail_lim_.empty());
  // Level-0 facts are permanent; detach them from their reason clauses
  // so no retained assignment locks a removable clause.
  for (const Lit l : trail_) reason_[lit_var(l)] = kNoReason;

  // Candidates: learned non-binary clauses, ordered by (activity
  // ascending, insertion index descending) so the least useful and, on
  // ties, the youngest go first -- arena offsets grow in insertion
  // order, so the offset is the insertion index. Drop half.
  std::vector<ClauseRef> cand;
  cand.reserve(learned_nonbinary_);
  for (ClauseRef cr = 0; cr < arena_.size(); cr = clause_next(cr)) {
    if (clause_learned(cr) && clause_size(cr) > 2) cand.push_back(cr);
  }
  std::sort(cand.begin(), cand.end(), [this](ClauseRef a, ClauseRef b) {
    const double act_a = clause_act(a), act_b = clause_act(b);
    if (act_a != act_b) return act_a < act_b;
    return a > b;
  });
  const size_t drop = cand.size() / 2;
  if (drop == 0) return;
  for (size_t i = 0; i < drop; ++i) arena_[cand[i]] |= kDeletedBit;

  // Compact the arena and rebuild every watch list; watch-list order
  // after compaction is a function of clause insertion order only, so
  // this stays deterministic.
  compact_arena();
  for (auto& ws : watches_) ws.clear();
  for (ClauseRef cr = 0; cr < arena_.size(); cr = clause_next(cr)) {
    attach_clause(cr);
  }

  learned_count_ -= drop;
  learned_nonbinary_ -= drop;
  ++stats_.db_reductions;
  stats_.learned_removed += drop;
  learned_ceiling_ += learned_ceiling_ / 2;
}

bool CdclSolver::heap_lt(Var a, Var b) const {
  if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
  return a < b;  // deterministic tie-break: smaller index first
}

void CdclSolver::heap_insert(Var v) {
  heap_index_[v] = static_cast<int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void CdclSolver::heap_sift_up(size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!heap_lt(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int32_t>(i);
}

void CdclSolver::heap_sift_down(size_t i) {
  const Var v = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_lt(heap_[child + 1], heap_[child])) ++child;
    if (!heap_lt(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = static_cast<int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int32_t>(i);
}

void CdclSolver::heap_rebuild() {
  for (size_t i = heap_.size() / 2; i > 0; --i) heap_sift_down(i - 1);
}

Var CdclSolver::heap_pop() {
  const Var v = heap_[0];
  heap_index_[v] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return v;
}

SatResult CdclSolver::solve(const std::vector<Lit>& assumptions) {
  ++stats_.solves;
  cur_solve_ = static_cast<uint32_t>(stats_.solves);
  if (!assumptions.empty()) ++stats_.assumption_solves;
  if (!ok_) return SatResult::kUnsat;
  cancel_until(0);

#ifndef NDEBUG
  // cancel_until() re-inserts every variable it unassigns, on every
  // exit path, so each unassigned decision variable is in the heap.
  for (Var v = 0; v < level_.size(); ++v) {
    OCC_DCHECK(!var_unassigned(v) || !decision_[v] || heap_index_[v] >= 0);
  }
#endif
  for (const Lit a : assumptions) {
    OCC_CHECK(lit_var(a) < level_.size(),
              "sat: assumption references variable ", lit_var(a),
              " but the solver declares ", level_.size());
  }

  // Level-0 facts queued by add_clause since the last solve.
  if (propagate() != kNoReason) {
    ok_ = false;
    return SatResult::kUnsat;
  }

  const uint64_t conflicts_at_entry = stats_.conflicts;
  std::vector<Lit> learnt;
  uint64_t restart_seq = 0;
  uint64_t until_restart = luby(restart_seq) * opts_.restart_base;

  while (true) {
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      if (trail_lim_.empty()) {
        ok_ = false;
        return SatResult::kUnsat;
      }
      uint32_t bt = 0;
      analyze(confl, &learnt, &bt);
      cancel_until(bt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cr = alloc_clause(learnt, true);
        attach_clause(cr);
        enqueue(learnt[0], cr);
        ++learned_count_;
        if (learnt.size() > 2) ++learned_nonbinary_;
      }
      ++stats_.learned_clauses;
      stats_.learned_literals += learnt.size();
      var_decay_all();
      cla_inc_ /= opts_.clause_decay;
      if (opts_.conflict_budget != 0 &&
          stats_.conflicts - conflicts_at_entry >= opts_.conflict_budget) {
        cancel_until(0);
        return SatResult::kUnknown;
      }
      if (--until_restart == 0) {
        ++stats_.restarts;
        ++restart_seq;
        until_restart = luby(restart_seq) * opts_.restart_base;
        cancel_until(0);
        if (learned_ceiling_ != 0 && learned_nonbinary_ > learned_ceiling_) {
          reduce_db();
        }
      }
    } else {
      // All assumptions first, one per decision level (MiniSat-style):
      // an assumption already true gets an empty level so analyze()'s
      // level arithmetic stays uniform; one already false means the
      // formula is UNSAT under these assumptions only.
      Lit next = kLitUndef;
      while (trail_lim_.size() < assumptions.size()) {
        const Lit a = assumptions[trail_lim_.size()];
        if (lit_true(a)) {
          trail_lim_.push_back(trail_.size());
        } else if (lit_false(a)) {
          cancel_until(0);
          return SatResult::kUnsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == kLitUndef) {
        next = pick_branch();
        if (next == kLitUndef) {
          model_.assign(level_.size(), 0);
          for (Var v = 0; v < level_.size(); ++v) {
            model_[v] = lit_true(mk_lit(v));
          }
          cancel_until(0);
          return SatResult::kSat;
        }
        ++stats_.decisions;
      }
      trail_lim_.push_back(trail_.size());
      enqueue(next, kNoReason);
    }
  }
}

std::vector<std::pair<Lit, Lit>> CdclSolver::learned_binaries() const {
  std::vector<std::pair<Lit, Lit>> out;
  for (ClauseRef cr = 0; cr < arena_.size(); cr = clause_next(cr)) {
    if (clause_learned(cr) && clause_size(cr) == 2) {
      out.emplace_back(clause_lits(cr)[0], clause_lits(cr)[1]);
    }
  }
  return out;
}

std::vector<int8_t> unit_propagate(const Cnf& cnf,
                                   const std::vector<Lit>& assumptions,
                                   bool* conflict) {
  *conflict = false;
  std::vector<int8_t> assign(cnf.num_vars, -1);
  // Occurrence lists per literal.
  std::vector<std::vector<uint32_t>> occ(2 * cnf.num_vars);
  for (size_t ci = 0; ci < cnf.clauses.size(); ++ci) {
    if (cnf.clauses[ci].empty()) {
      *conflict = true;
      return assign;
    }
    for (Lit l : cnf.clauses[ci]) {
      occ[l].push_back(static_cast<uint32_t>(ci));
    }
  }

  std::vector<Lit> queue;
  const auto set_true = [&](Lit l) {
    const Var v = lit_var(l);
    const int8_t want = lit_sign(l) ? 0 : 1;
    if (assign[v] >= 0) {
      if (assign[v] != want) *conflict = true;
      return;
    }
    assign[v] = want;
    queue.push_back(l);
  };

  for (Lit a : assumptions) set_true(a);
  for (const auto& c : cnf.clauses) {
    if (c.size() == 1) set_true(c[0]);
  }

  for (size_t qi = 0; qi < queue.size() && !*conflict; ++qi) {
    const Lit p = queue[qi];
    for (uint32_t ci : occ[lit_neg(p)]) {
      const auto& c = cnf.clauses[ci];
      Lit unit = kLitUndef;
      bool satisfied = false;
      size_t unassigned = 0;
      for (Lit l : c) {
        const int8_t a = assign[lit_var(l)];
        if (a < 0) {
          ++unassigned;
          unit = l;
        } else if ((a != 0) != lit_sign(l)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) {
        *conflict = true;
        break;
      }
      if (unassigned == 1) set_true(unit);
    }
  }
  return assign;
}

}  // namespace sat
}  // namespace occ
