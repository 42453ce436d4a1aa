/// \file
/// Engine-selection options shared by every fault-simulation driver.
///
/// FsimMode picks the propagation strategy of one NcpFaultSim;
/// FsimOptions bundles it with the shard count of the ShardedFaultSim
/// wrapper; EngineOptions adds the remaining engine knobs (deterministic
/// PODEM worker shards, the SAT backend and its conflict budget, the
/// PODEM search heuristics and the PODEM->SAT escalation). EngineOptions
/// is the only home of these knobs: SessionConfig::engine() takes one,
/// and the pipeline stages read it through PipelineContext::engine. The
/// drivers parse the shared `--mode/--shards/--atpg-shards/--sat/
/// --sat-budget/--atpg-heuristics/--atpg-escalation` flags into it via
/// occ::parse_engine_flag (util/cli.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace occ {

/// Fault-propagation strategy; results (statuses, detection slots and
/// the deterministic work counters) are bit-identical across all four,
/// only the work layout and wall clock differ. See fsim/fsim.h.
enum class FsimMode : uint8_t {
  /// Compiled cone replay programs plus the one-word (X-free) PPSFP
  /// sweep kernel: frames whose good machine carries no X propagate on
  /// a single uint64_t value plane per node (default).
  kWordParallel,
  /// Compiled cone replay programs, two-word 01X kernel on every frame
  /// (the parity reference for the word kernel's X-free fast path).
  kCompiled,
  /// Interpreted cone-limited event propagation over the global
  /// netlist (the parity reference for the compiled layer).
  kConeLimited,
  /// Full-fanout event propagation without cone masks (the original
  /// reference path, kept for parity tests and the work benchmark).
  kExhaustive,
};

/// Stable driver-facing name of a mode ("word", "compiled", "cone",
/// "exhaustive") -- the vocabulary of the shared `--mode` flag.
const char* fsim_mode_name(FsimMode m);

/// Parses a `--mode` value; returns false on an unknown name.
bool parse_fsim_mode(const char* name, FsimMode* out);

/// Fault-simulation engine configuration: propagation strategy + shard
/// count of the surrounding ShardedFaultSim.
struct FsimOptions {
  FsimMode mode = FsimMode::kWordParallel;
  /// Thread shards of the fault-list fan-out (1 = sequential, 0 =
  /// hardware concurrency). Results are bit-identical for every value.
  size_t shards = 1;
};

/// The whole engine-selection surface in one struct. The fsim half and
/// `atpg_shards` are pure performance knobs (results are bit-identical
/// for every value); `sat_backend`, `sat_conflict_budget`,
/// `atpg_heuristics` and `atpg_escalation` change which faults get
/// decided and how, so they can change results.
struct EngineOptions {
  FsimOptions fsim = {};
  /// Worker shards of the deterministic PODEM stage (0 = follow the
  /// fault-simulation shard count; 1 = plain sequential loop).
  size_t atpg_shards = 0;
  /// Run the SAT backend (sat/source.h) on faults the PODEM stage left
  /// aborted: each gets a CNF miter decision -- a test cube, a
  /// redundancy proof (kProvenUntestable), or kUnknown within the
  /// conflict budget (stays aborted).
  bool sat_backend = false;
  /// Per-solve conflict budget of the SAT backend; 0 = unlimited.
  uint64_t sat_conflict_budget = 100000;
  /// PODEM search heuristics (atpg/podem.h) + the parallel stage's cube
  /// cache. Off (`--atpg-heuristics off`) reproduces the pre-heuristic
  /// search and all its committed counters bit-identically.
  bool atpg_heuristics = true;
  /// Adaptive PODEM->SAT escalation of the deterministic stage
  /// (atpg/parallel.h): a fault aborting at the cheap backtrack limit
  /// first gets a bounded incremental-SAT probe, and the deep PODEM
  /// retry runs only when the probe is inconclusive. Off
  /// (`--atpg-escalation off`) reproduces the cheap-then-deep PODEM
  /// schedule and all its committed counters bit-identically.
  bool atpg_escalation = true;
};

}  // namespace occ
