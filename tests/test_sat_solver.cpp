// CDCL solver micro-fuzz: deterministic random small CNFs checked
// SAT/UNSAT against a brute-force enumerator, plus budget, determinism
// and unit-propagation reference checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

// Does `assign` (bit i = variable i) satisfy the formula?
bool satisfies(const Cnf& cnf, uint32_t assign) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (Lit l : clause) {
      const bool v = (assign >> lit_var(l)) & 1u;
      if (v != lit_sign(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

// Brute-force SAT decision over all 2^num_vars assignments.
bool brute_force_sat(const Cnf& cnf) {
  for (uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
    if (satisfies(cnf, a)) return true;
  }
  return false;
}

Cnf random_cnf(Rng& rng, uint32_t num_vars, size_t num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (size_t c = 0; c < num_clauses; ++c) {
    const size_t len = 1 + rng.below(4);
    std::vector<Lit> clause;
    for (size_t i = 0; i < len; ++i) {
      // Duplicate and complementary literals on purpose: the solver's
      // normalization path is part of what the fuzz covers.
      clause.push_back(mk_lit(static_cast<Var>(rng.below(num_vars)),
                              rng.chance(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

TEST(SatSolver, MicroFuzzAgainstBruteForce) {
  Rng rng(0xf00df00du);
  size_t sat_seen = 0, unsat_seen = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const uint32_t nv = 1 + static_cast<uint32_t>(rng.below(12));
    // Clause/variable ratios around the hard region so both outcomes
    // appear in force.
    const size_t nc = 1 + rng.below(static_cast<uint64_t>(5 * nv));
    const Cnf cnf = random_cnf(rng, nv, nc);
    const bool expect = brute_force_sat(cnf);
    CdclSolver solver(cnf);
    const SatResult got = solver.solve();
    ASSERT_NE(got, SatResult::kUnknown) << "iter " << iter;
    EXPECT_EQ(got == SatResult::kSat, expect) << "iter " << iter;
    if (got == SatResult::kSat) {
      ++sat_seen;
      // The returned model must actually satisfy the formula.
      uint32_t a = 0;
      ASSERT_EQ(solver.model().size(), cnf.num_vars);
      for (Var v = 0; v < cnf.num_vars; ++v) {
        a |= static_cast<uint32_t>(solver.model()[v]) << v;
      }
      EXPECT_TRUE(satisfies(cnf, a)) << "iter " << iter;
    } else {
      ++unsat_seen;
    }
  }
  // The fuzz must exercise both verdicts heavily.
  EXPECT_GT(sat_seen, 100u);
  EXPECT_GT(unsat_seen, 100u);
}

TEST(SatSolver, DeterministicAcrossRepeats) {
  Rng rng(0xdecafu);
  for (int iter = 0; iter < 50; ++iter) {
    const uint32_t nv = 4 + static_cast<uint32_t>(rng.below(8));
    const Cnf cnf = random_cnf(rng, nv, 3 * nv);
    CdclSolver a(cnf), b(cnf);
    const SatResult ra = a.solve();
    const SatResult rb = b.solve();
    ASSERT_EQ(ra, rb);
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().propagations, b.stats().propagations);
    if (ra == SatResult::kSat) EXPECT_EQ(a.model(), b.model());
  }
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  // A PHP-style unsatisfiable formula that needs search (pigeonhole
  // 5 pigeons / 4 holes), with a tiny budget.
  constexpr uint32_t P = 5, H = 4;
  Cnf cnf;
  cnf.num_vars = P * H;  // var p*H+h = pigeon p in hole h
  for (uint32_t p = 0; p < P; ++p) {
    std::vector<Lit> some;
    for (uint32_t h = 0; h < H; ++h) some.push_back(mk_lit(p * H + h));
    cnf.add_clause(some);
  }
  for (uint32_t h = 0; h < H; ++h) {
    for (uint32_t p1 = 0; p1 < P; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < P; ++p2) {
        cnf.add_binary(mk_lit(p1 * H + h, true), mk_lit(p2 * H + h, true));
      }
    }
  }
  CdclSolver full(cnf);
  EXPECT_EQ(full.solve(), SatResult::kUnsat);
  EXPECT_GT(full.stats().conflicts, 2u);

  SolverOptions opts;
  opts.conflict_budget = 2;
  CdclSolver capped(cnf, opts);
  EXPECT_EQ(capped.solve(), SatResult::kUnknown);
  EXPECT_LE(capped.stats().conflicts, 2u);
}

TEST(SatSolver, TrivialCases) {
  {
    Cnf cnf;  // empty formula
    cnf.num_vars = 3;
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kSat);
    EXPECT_EQ(s.model().size(), 3u);
  }
  {
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.add_clause({});  // empty clause
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kUnsat);
  }
  {
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.add_unit(mk_lit(0));
    cnf.add_unit(mk_lit(0, true));
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kUnsat);
  }
  {
    Cnf cnf;  // tautological clause normalizes away
    cnf.num_vars = 2;
    cnf.add_binary(mk_lit(0), mk_lit(0, true));
    cnf.add_unit(mk_lit(1, true));
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kSat);
    EXPECT_EQ(s.model()[1], 0);
  }
}

TEST(SatSolver, UnitPropagateReference) {
  // Chain of implications: a -> b -> c, plus c -> !d.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_binary(mk_lit(0, true), mk_lit(1));
  cnf.add_binary(mk_lit(1, true), mk_lit(2));
  cnf.add_binary(mk_lit(2, true), mk_lit(3, true));
  bool conflict = false;
  const auto val = unit_propagate(cnf, {mk_lit(0)}, &conflict);
  EXPECT_FALSE(conflict);
  EXPECT_EQ(val[0], 1);
  EXPECT_EQ(val[1], 1);
  EXPECT_EQ(val[2], 1);
  EXPECT_EQ(val[3], 0);

  // Contradictory assumptions surface as a conflict.
  conflict = false;
  (void)unit_propagate(cnf, {mk_lit(0), mk_lit(3)}, &conflict);
  EXPECT_TRUE(conflict);

  // No assumptions, no units: nothing propagates.
  conflict = false;
  const auto none = unit_propagate(cnf, {}, &conflict);
  EXPECT_FALSE(conflict);
  for (int8_t v : none) EXPECT_EQ(v, -1);
}

TEST(SatSolver, UnitPropagateAgreesWithCdclOnForcedFormulas) {
  // On formulas whose satisfying assignment is forced from unit clauses,
  // the standalone reference and the CDCL solver must agree exactly.
  Rng rng(0xbeefu);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t nv = 2 + static_cast<uint32_t>(rng.below(10));
    Cnf cnf;
    cnf.num_vars = nv;
    // Random forced chain seeded by one unit: each variable v is
    // implied (in both polarities of its parent) once the parent is
    // assigned, so plain unit propagation decides everything.
    cnf.add_unit(mk_lit(0, rng.chance(0.5)));
    for (Var v = 1; v < nv; ++v) {
      const Var prev = static_cast<Var>(rng.below(v));
      const Lit head = mk_lit(v, rng.chance(0.5));
      cnf.add_binary(mk_lit(prev, true), head);
      cnf.add_binary(mk_lit(prev, false), head);
    }
    bool conflict = false;
    const auto val = unit_propagate(cnf, {}, &conflict);
    if (conflict) continue;
    CdclSolver s(cnf);
    if (s.solve() != SatResult::kSat) continue;
    for (Var v = 0; v < nv; ++v) {
      if (val[v] >= 0) EXPECT_EQ(s.model()[v], val[v]) << "iter " << iter;
    }
  }
}

// Golden search path: a fixed, seeded multi-shot sequence shaped like
// the incremental miter's use of the solver (sat/incremental.h) --
// mixed binary and long clauses, solves under assumptions, add_clause
// between solves, instances retired with retire_var() and collected
// with simplify(), and a learned limit small enough that reduce_db()
// runs several times. Every counter and the hash of every verdict and
// model were recorded from the solver before its clause storage and
// watch loop were rewritten; the rewrite must reproduce them exactly.
// A change to the order in which propagation meets clauses, to the
// literal order analysis reads, or to the reduction schedule moves at
// least one of these numbers.
TEST(SatSolver, GoldenMultiShotSearchPath) {
  Rng rng(0x601de5u);
  constexpr uint32_t kBaseVars = 120;
  const auto random_lit = [&](uint32_t lo, uint32_t n) {
    return mk_lit(lo + static_cast<Var>(rng.below(n)), rng.chance(0.5));
  };
  const auto random_clause = [&](size_t len, uint32_t lo, uint32_t n) {
    std::vector<Lit> c;
    for (size_t i = 0; i < len; ++i) c.push_back(random_lit(lo, n));
    return c;
  };
  Cnf base;
  base.num_vars = kBaseVars;
  for (int i = 0; i < 20; ++i) base.add_clause(random_clause(2, 0, kBaseVars));
  for (int i = 0; i < 470; ++i) {
    base.add_clause(random_clause(3 + (rng.chance(0.2) ? 1 : 0), 0, kBaseVars));
  }

  SolverOptions opts;
  opts.learned_limit = 16;
  opts.restart_base = 8;
  opts.conflict_budget = 300;
  CdclSolver s(base, opts);

  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over verdicts + models
  const auto mix = [&](uint64_t x) {
    hash ^= x;
    hash *= 0x100000001b3ull;
  };
  size_t sat = 0, unsat = 0, unknown = 0;
  for (int round = 0; round < 24; ++round) {
    // One guarded instance: fresh variables whose clauses all carry the
    // negated activation literal, solved under that activation.
    const Var act = s.new_var();
    const Var first = s.new_var();
    constexpr uint32_t kInstVars = 10;
    for (uint32_t k = 1; k < kInstVars; ++k) s.new_var();
    for (int c = 0; c < 24; ++c) {
      std::vector<Lit> clause{mk_lit(act, true)};
      const size_t len = 2 + rng.below(3);
      for (size_t i = 0; i < len; ++i) {
        clause.push_back(rng.chance(0.5) ? random_lit(first, kInstVars)
                                         : random_lit(0, kBaseVars));
      }
      s.add_clause(std::move(clause));
    }
    std::vector<Lit> assumptions{mk_lit(act)};
    for (uint64_t i = rng.below(3); i > 0; --i) {
      assumptions.push_back(random_lit(0, kBaseVars));
    }
    const SatResult r = s.solve(assumptions);
    mix(static_cast<uint64_t>(r));
    if (r == SatResult::kSat) {
      ++sat;
      for (const uint8_t v : s.model()) mix(v);
    } else if (r == SatResult::kUnsat) {
      ++unsat;
    } else {
      ++unknown;
    }
    // Between solves: a little more base formula, then retire the
    // instance and, every third round, collect it.
    s.add_clause(random_clause(3, 0, kBaseVars));
    s.add_clause({mk_lit(act, true)});
    s.retire_var(act);
    for (uint32_t k = 0; k < kInstVars; ++k) s.retire_var(first + k);
    if (round % 3 == 2) {
      ASSERT_TRUE(s.simplify()) << "round " << round;
    }
  }
  ASSERT_TRUE(s.ok());
  // Learned binaries as unordered pairs: which binaries were learned is
  // part of the search path, the orientation of their literals is not.
  for (const auto& [a, b] : s.learned_binaries()) {
    mix(std::min(a, b));
    mix(std::max(a, b));
  }

  EXPECT_EQ(sat, 19u);
  EXPECT_EQ(unsat, 2u);
  EXPECT_EQ(unknown, 3u);
  EXPECT_EQ(hash, 0xe2eaf2717f6c8c10ull);
  const SolverStats& st = s.stats();
  EXPECT_EQ(st.conflicts, 2869u);
  EXPECT_EQ(st.decisions, 5189u);
  EXPECT_EQ(st.propagations, 89261u);
  EXPECT_EQ(st.restarts, 193u);
  EXPECT_EQ(st.learned_clauses, 2869u);
  EXPECT_EQ(st.learned_literals, 33042u);
  EXPECT_EQ(st.solves, 24u);
  EXPECT_EQ(st.assumption_solves, 24u);
  EXPECT_EQ(st.learned_reused, 7158u);
  EXPECT_EQ(st.db_reductions, 12u);
  EXPECT_EQ(st.learned_removed, 2132u);
  EXPECT_EQ(st.vars_retired, 264u);
  EXPECT_EQ(st.clauses_collected, 553u);
  EXPECT_EQ(s.learned_kept(), 737u);
  EXPECT_EQ(s.problem_clauses(), 505u);
}

TEST(SatCnf, DimacsWriter) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_binary(mk_lit(0), mk_lit(1, true));
  cnf.add_unit(mk_lit(2));
  std::ostringstream os;
  cnf.write_dimacs(os, {"hello"});
  EXPECT_EQ(os.str(), "c hello\np cnf 3 2\n1 -2 0\n3 0\n");
  EXPECT_EQ(cnf.literal_count(), 3u);
}

}  // namespace
}  // namespace sat
}  // namespace occ
