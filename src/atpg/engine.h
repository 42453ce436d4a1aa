// ATPG engine: full test-generation flow for one clocking scheme.
//
//   1. fault universe + structural collapsing;
//   2. random-pattern stage per capture procedure (patterns kept only if
//      they are the first detector of some fault);
//   3. deterministic PODEM stage with fault dropping (64-wide PPSFP);
//   4. optional reverse-order compaction pass;
//   5. optional structural classification of leftover faults.
//
// Every Table-1 experiment of the paper is one run_atpg() call with a
// different ClockingScheme.
//
// run_atpg() is a compatibility wrapper over occ::Session (api/session.h),
// which exposes the same flow with pluggable stages, sharded fault
// simulation and optional compression/export; prefer Session in new code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "core/clock_scheme.h"
#include "fsim/fsim.h"
#include "fsim/tfsim.h"

namespace occ {

struct AtpgOptions {
  uint64_t seed = 0x0cc7e57;
  uint32_t backtrack_limit = 300;
  /// Aborted faults get one retry with the limit multiplied by this
  /// factor (0/1 disables). Keeps the abort rate near the paper's 0.3%
  /// without paying the deep limit on every fault.
  uint32_t abort_retry_factor = 8;
  /// Optional random pre-stage (OFF by default: commercial flows get the
  /// same effect from random fill of deterministic cubes): max 64-pattern
  /// rounds per capture procedure; a round yielding fewer than
  /// `random_min_yield` new detections ends the stage for that procedure.
  size_t random_rounds = 0;
  size_t random_min_yield = 2;
  /// Static cube merging (dynamic-compaction stand-in): a new PODEM cube
  /// is merged into the most recent compatible open cube of the same
  /// capture procedure. `merge_window` also sets the flush cadence
  /// (fill + fault-simulate once this many open cubes accumulate).
  bool merge_cubes = true;
  size_t merge_window = 64;
  bool reverse_compaction = true;
  bool classify = false;
  bool verbose = false;
  /// Keep the unfilled deterministic cubes (care bits only) in
  /// AtpgRunResult::cubes -- needed by compression flows, which encode
  /// care bits rather than filled patterns.
  bool keep_cubes = false;
  /// Worker shards of the deterministic PODEM stage (atpg/parallel.h).
  /// 0 = follow the session's fault-simulation shard count; 1 = the
  /// plain sequential loop. Committed results are bit-identical for
  /// every value -- only wall clock and the wasted speculative work
  /// (AtpgRunResult::speculative_runs) vary.
  size_t atpg_shards = 0;
  /// Run the SAT backend (sat/source.h) on faults the PODEM stage left
  /// aborted: each gets a CNF miter decision -- a test cube, a
  /// redundancy proof (kProvenUntestable), or kUnknown within the
  /// conflict budget (stays aborted).
  bool sat_backend = false;
  /// Per-solve conflict budget of the SAT backend; 0 = unlimited.
  uint64_t sat_conflict_budget = 100000;
  /// PODEM search heuristics (podem.h: SCOAP-guided objectives, static
  /// implication learning, dominator early abort) plus the parallel
  /// stage's per-cone cube cache. Off reproduces the pre-heuristic
  /// search -- and all its committed counters -- bit-identically.
  bool heuristics = true;
  /// Enrich the implication tables by solver-based probing of the SAT
  /// lowering (sat/probe.h): assumption propagation over the persistent
  /// incremental solver plus a harvest of its retained learned binary
  /// clauses. Only read when `heuristics` is on.
  bool implication_sat_harvest = false;
  /// Adaptive PODEM->SAT escalation in the deterministic stage: a fault
  /// aborting at the cheap backtrack limit first gets a bounded
  /// incremental-SAT probe (shared clause-learning miter per capture
  /// procedure); the deep PODEM retry runs only when the probe is
  /// inconclusive. Probes run at canonical commit order on the leader,
  /// so results stay bit-identical across `atpg_shards`. Off reproduces
  /// today's cheap-then-deep schedule -- and all its committed counters
  /// -- bit-identically.
  bool escalation = true;
  /// Per-probe conflict budget of the escalation SAT probe.
  uint64_t escalation_conflict_budget = 2000;
};

/// Deterministic work counters of the SAT backend stage.
struct SatStats {
  size_t faults_targeted = 0;    ///< aborted faults handed to SAT
  size_t detected = 0;           ///< classified testable (cube emitted)
  size_t proven_untestable = 0;  ///< all miters UNSAT within budget
  size_t still_aborted = 0;      ///< some solve hit the conflict budget
  size_t patterns = 0;           ///< patterns emitted by the stage
  uint64_t solves = 0;           ///< CDCL solver invocations
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  /// Incremental-core reuse counters (sat/incremental.h).
  uint64_t relowered_faults = 0;   ///< instances lowered more than once (0)
  uint64_t assumption_solves = 0;  ///< solves under activation assumptions
  uint64_t learned_kept = 0;       ///< learned clauses retained at stage end
  uint64_t learned_reused = 0;     ///< propagations from earlier solves' clauses
  /// Retirement of decided instances (sat/incremental.h).
  uint64_t vars_retired = 0;       ///< variables taken out of branching
  uint64_t clauses_collected = 0;  ///< retired problem clauses deleted
  uint64_t problem_clauses = 0;    ///< live problem clauses at stage end
};

/// Fault-status tallies after one pipeline stage, for auditable
/// coverage reporting (occ run --json / bench_table1 --json).
struct StageDisposition {
  std::string stage;  ///< source name ("random", "podem", "sat", ...)
  size_t detected = 0;
  size_t possibly_detected = 0;
  size_t untestable = 0;
  size_t proven_untestable = 0;
  size_t aborted = 0;
  size_t undetected = 0;
};

struct AtpgRunResult {
  std::string scheme_name;
  PatternSet patterns{""};
  PatternSet cubes{""};  // unfilled cubes (only if opts.keep_cubes)
  FaultList faults;
  Podem::Stats podem;
  FsimStats fsim;
  FaultClassReport classes;
  size_t random_patterns = 0;
  size_t deterministic_patterns = 0;
  size_t external_patterns = 0;  // graded via ExternalCubeSource
  /// Wasted speculation of the parallel deterministic stage (both zero
  /// when it runs sequentially): PODEM runs whose fault was already
  /// detected when its canonical commit slot came up, and how many of
  /// those runs had produced a (now discarded) cube. Deliberately NOT
  /// part of the bit-identity contract -- they depend on shard count
  /// and scheduling, unlike `podem`, which counts committed work only.
  size_t speculative_runs = 0;
  size_t discarded_cubes = 0;
  /// Escalation-schedule counters of the deterministic stage (both zero
  /// with opts.escalation off). Committed in canonical fault order, so
  /// -- unlike the speculation counters above -- they ARE part of the
  /// bit-identity contract across shard counts.
  size_t escalations = 0;    ///< cheap-PODEM aborts handed to the SAT probe
  size_t sat_probe_wins = 0; ///< probes that settled the fault (SAT or UNSAT)
  /// SAT solver counters: the SAT backend stage and the deterministic
  /// stage's escalation probes both accumulate here (all zero when
  /// opts.sat_backend and opts.escalation are both off).
  SatStats sat;
  /// Fault-status tallies after each pipeline source stage, in run
  /// order (filled by occ::Session).
  std::vector<StageDisposition> stage_dispositions;
  size_t patterns_after_compaction = 0;
  double seconds = 0.0;

  double test_coverage() const { return faults.test_coverage(); }
  double fault_coverage() const { return faults.fault_coverage(); }
  size_t pattern_count() const { return patterns.size(); }

  /// Table-row style summary line.
  std::string summary() const;
};

/// Runs the complete ATPG flow. `scan_en_pi` is the scan-enable input of
/// `nl` (kNoGate if the design has none).
AtpgRunResult run_atpg(const Netlist& nl, const ClockingScheme& scheme,
                       GateId scan_en_pi, const AtpgOptions& opts = {});

}  // namespace occ
