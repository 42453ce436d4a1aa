// Parallel-pattern single-fault-propagation (PPSFP) fault simulator,
// driven by named capture procedures.
//
// One engine serves both fault models (Waicukauski-style):
//   * stuck-at: the fault is injected in every frame;
//   * transition: the fault is injected in frame k (as the stuck-at of
//     its initial value) for pattern slots where the fault-free machine
//     launches the required transition across an *at-speed* pulse pair
//     (k-1, k). Initialization frames are simulated fault-free -- the
//     standard broadside approximation.
//
// Observation points: scan-cell final state (unloaded after the last
// pulse) and primary outputs in frames whose CaptureCycle strobes them.
// Detection requires a known good/faulty disagreement; a disagreement
// involving X downgrades to "possibly detected".
//
// Propagation is event-driven and cone-limited: differences against the
// stored good-machine frames propagate only through nets from which an
// observation point is still structurally reachable in the remaining
// frames (per-NCP masks precomputed by ConeSim). A fault whose injection
// site is outside every frame's cone is dropped without propagating a
// single gate. The masks over-approximate sensitization, so results are
// bit-identical across all four execution strategies (FsimMode, declared
// in fsim/options.h):
//
//   * kWordParallel (default): kCompiled, with every X-free frame run
//     on the one-word value plane (below).
//   * kCompiled: each frame's cone is lowered once per NCP into a dense
//     SoA replay program (sim/cone_program.h); the overlay pass sweeps
//     a per-level active bitset over cone-local dense ids and a compact
//     write-through arena, never touching the global netlist.
//   * kConeLimited: the interpreted cone engine (levelized event queue
//     over the global netlist); the independent reference the compiled
//     kernel's work counters are checked against.
//   * kExhaustive: full-fanout event propagation without cone masks;
//     the original reference path, kept for parity tests and the
//     work-reduction benchmark.
//
// Both compiled modes run ONE kernel, propagate_frame_compiled<P>,
// templated on the value plane P. Val64 is the 01X plane (a value word
// and an x word per net). uint64_t is the X-free plane, taken when the
// frame's good machine carries no X anywhere and neither does the
// carried faulty state: gate functions map known inputs to known
// outputs and injections force known bits, so the overlay stays X-free,
// the x word is dropped, hard difference is a bare XOR and possible
// difference is identically zero. The plane supplies only the value
// operations (operand load, force, difference masks, the lowered
// evaluation classes, the eval_gate_packed fallback); seeds, candidate
// collection, the sweep, the capture pass and the arena restore are
// written once. On X-free data each uint64_t operation computes exactly
// the v word of its Val64 form, so the skip condition (new value ==
// previous value) and the difference tests coincide: both planes share
// one activation schedule, hence identical statuses, detection slots
// AND work counters -- equal to the interpreted engine's, too.
//
// Cone modes additionally propagate slow-to-rise/slow-to-fall partners
// at the same site in ONE overlay pass: a pattern lane launches at most
// one transition direction, so the two faults inject on disjoint lane
// sets, and both force the site to the complement of its good value on
// their lanes. The 64 PPSFP lanes never interact, so the combined
// difference word splits exactly back into per-fault detection masks
// (each fault's early-exit point is tracked per lane set). This roughly
// halves transition fault-sim work on top of the cone limiting.
//
// The per-batch fault walk (cone-locality order, STR/STF pairing, the
// fsim_wants_simulation filter) lives in probe_faults(); the sequential
// detect_faults is its one-shard case and ShardedFaultSim runs it once
// per shard. The window forms of both engines share detect_window().
//
// After warm-up (first batch of an NCP), detect_faults performs zero
// heap allocations in both compiled modes: all per-fault buffers live
// in a reusable per-worker FsimScratch owned by this instance (each
// ShardedFaultSim worker owns its own engine and therefore its own
// scratch). tests/test_cone_program.cpp pins this with a global
// allocation counter, on both value planes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/clock_scheme.h"
#include "fault/fault_list.h"
#include "fsim/options.h"
#include "fsim/pattern.h"
#include "sim/cone_program.h"
#include "sim/cone_sim.h"
#include "sim/cycle_sim.h"

namespace occ {

/// Provider of frozen per-NCP cone artifacts shared across engines.
///
/// The observability masks (FrameObs) and compiled replay programs
/// (ConeProgram) of one (netlist, scheme) pair are pure read-only data
/// during simulation; only the per-engine scratch (event queue, overlay
/// arenas) is mutable. An implementation -- occ::CompiledDesign -- owns
/// one immutable copy per capture procedure, so N fault-sim shards stop
/// rebuilding N private copies. Accessors must be thread-safe and must
/// return artifacts identical to what a private build would produce
/// (the engines' bit-identity contract relies on it).
class ConeArtifactSource {
 public:
  virtual ~ConeArtifactSource() = default;
  /// Frozen observability masks of capture procedure `ncp_index`.
  virtual const FrameObs& shared_frame_obs(size_t ncp_index) const = 0;
  /// Frozen compiled replay program of capture procedure `ncp_index`.
  virtual const ConeProgram& shared_cone_program(size_t ncp_index) const = 0;
};

/// Fault-free multi-frame simulation of one batch.
struct GoodFrames {
  /// frames[f][gate] = settled value in frame f.
  std::vector<std::vector<Val64>> frames;
  /// Flop state entering frame f (indexed like nl.dffs()).
  std::vector<std::vector<Val64>> state;
  /// Final flop state after the last pulse.
  std::vector<Val64> final_state;
};

/// Deterministic work done by fault propagation. Both counters are
/// independent of shard count, walk order and execution strategy
/// (compiled vs interpreted cone): gate_evals counts gates evaluated
/// under the single-fault overlay, events_processed counts difference
/// events offered to the schedule (fanout activation attempts,
/// pre-dedup) -- the quantity the compiled replay programs make cheap.
struct FsimWork {
  uint64_t gate_evals = 0;
  uint64_t events_processed = 0;

  FsimWork& operator+=(const FsimWork& o) {
    gate_evals += o.gate_evals;
    events_processed += o.events_processed;
    return *this;
  }
};

/// Statistics from one fault-sim invocation.
struct FsimStats {
  size_t faults_simulated = 0;
  size_t newly_detected = 0;
  size_t newly_possibly = 0;
  uint64_t gate_evals = 0;
  uint64_t events_processed = 0;

  /// Accumulates another invocation's stats (every field); the one
  /// place to extend when a counter is added, shared by all engines
  /// and stages so none of them drops a field.
  FsimStats& operator+=(const FsimStats& o) {
    faults_simulated += o.faults_simulated;
    newly_detected += o.newly_detected;
    newly_possibly += o.newly_possibly;
    gate_evals += o.gate_evals;
    events_processed += o.events_processed;
    return *this;
  }
};

/// True for statuses the simulator still grades. Aborted faults stay in
/// the simulation: ATPG gave up on targeting them, but any later pattern
/// may still detect them incidentally.
constexpr bool fsim_wants_simulation(FaultStatus fs) {
  return fs == FaultStatus::kUndetected ||
         fs == FaultStatus::kPossiblyDetected || fs == FaultStatus::kAborted;
}

/// Per-fault probe buffer entry (hard/possible detection masks).
struct FaultProbe {
  uint64_t hard = 0;
  uint64_t poss = 0;
  bool simulated = false;
};

/// Merges per-fault probe masks into the fault list in fault-index
/// order -- the one canonical status/detections walk shared by the
/// sequential and sharded engines (their bit-identical-results
/// invariant lives here). `detections` gets (fault index,
/// countr_zero(hard)) for each newly hard-detected fault. The returned
/// stats carry `work` as their work counters.
FsimStats merge_fault_probes(
    const std::vector<FaultProbe>& probes, const FsimWork& work,
    FaultList& fl, std::vector<std::pair<size_t, unsigned>>* detections);

/// Grades one packed batch, appending (fault, slot) detections when
/// given: the batch form of detect_faults.
using BatchDetector = std::function<FsimStats(
    const PatternBatch&, std::vector<std::pair<size_t, unsigned>>*)>;

/// The window packer behind the window-form detect_faults of both
/// engines: splits patterns [first, first + n) of `ps` into maximal
/// same-NCP runs, packs each run 64 lanes at a time, grades every batch
/// through `detect_batch` and rebases its detection slots onto `first`.
FsimStats detect_window(const PatternSet& ps, size_t first, size_t n,
                        const Netlist& nl, const ClockingScheme& scheme,
                        std::vector<std::pair<size_t, unsigned>>* detections,
                        const BatchDetector& detect_batch);

class NcpFaultSim {
 public:
  /// `scan_en_pi` (optional): the scan-enable input; when the scheme
  /// freezes scan_en, that PI is forced to 0 in every capture frame
  /// regardless of pattern contents.
  /// `shared` (optional): frozen per-NCP observability masks and replay
  /// programs to consume instead of building private copies; must match
  /// (nl, scheme). Results are bit-identical either way -- the shared
  /// artifacts only skip redundant builds.
  NcpFaultSim(const Netlist& nl, const ClockingScheme& scheme,
              GateId scan_en_pi = kNoGate,
              FsimMode mode = FsimMode::kWordParallel,
              std::shared_ptr<const ConeArtifactSource> shared = nullptr);

  const Netlist& netlist() const { return *nl_; }
  const ClockingScheme& scheme() const { return *scheme_; }
  FsimMode mode() const { return mode_; }

  /// Fault-free simulation of a packed batch. In the compiled modes
  /// this also (lazily) lowers the batch's NCP cones into replay
  /// programs and packs the good-machine frames into the dense arena
  /// layout (word-parallel mode additionally primes the one-word value
  /// planes and the per-frame X-free flags). detect_faults(batch, ...)
  /// calls this itself; it stays public for the probe_fault flows.
  void simulate_good(const PatternBatch& batch);
  const GoodFrames& good() const { return good_; }

  /// Good-machine final scan state / strobed PO values for slot `s` of
  /// the last simulated batch (expected responses for the ATE).
  std::vector<V3> expected_unload(unsigned slot) const;

  /// The canonical fault-simulation entry point: simulates the batch
  /// fault-free (simulate_good), then simulates all undetected faults
  /// of `fl` against it; detected faults are marked (fault dropping).
  /// Faults are walked in cone-locality order (fault/order.h) and the
  /// results merged back in fault-index order, so statuses, stats and
  /// `detections` are independent of the walk order.
  /// If `detections` is given, appends (fault index, detecting slot) for
  /// each newly hard-detected fault; the slot is the lowest-numbered live
  /// pattern that detects it (used for pattern-selection/compaction).
  FsimStats detect_faults(
      const PatternBatch& batch, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// Window form: simulates patterns [first, first + n) of `ps` -- any
  /// length, any mix of NCPs -- by packing maximal same-NCP runs into
  /// ceil(run / 64)-sweep batches internally; callers no longer hand-
  /// roll the 64-pattern chunking. Detection slots are relative to
  /// `first`. Fault dropping carries across the internal batches, so
  /// statuses are identical to any other split of the same window
  /// (counters, as always under dropping, depend on the batch
  /// boundaries -- which this form fixes canonically).
  FsimStats detect_faults(
      const PatternSet& ps, size_t first, size_t n, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// Detection masks (hard, possible) of one fault over `live_mask`.
  struct ProbeMasks {
    uint64_t hard = 0;
    uint64_t poss = 0;
  };

  /// Simulates one fault against the last simulate_good() batch without
  /// touching any fault list: returns the (hard, possible) detection
  /// masks over `live_mask` slots and accumulates work counters into
  /// `work`. Like probe_faults, it only mutates this instance's private
  /// scratch.
  std::pair<uint64_t, uint64_t> probe_fault(const Fault& f,
                                            uint64_t live_mask,
                                            FsimWork* work) {
    const ProbeMasks m = simulate_sites(f, nullptr, live_mask, work).first;
    return {m.hard, m.poss};
  }

  /// Probes an STR/STF pair at the same (gate, pin) site in one overlay
  /// pass when their launch lanes are disjoint (automatic exact fallback
  /// to two solo passes otherwise). Results are identical to two
  /// probe_fault calls; only the work counters are smaller.
  std::pair<ProbeMasks, ProbeMasks> probe_fault_pair(const Fault& a,
                                                     const Fault& b,
                                                     uint64_t live_mask,
                                                     FsimWork* work);

  /// Cone-locality simulation order for `fl` (cached; rebuilt when the
  /// fault list contents change). Shared with ShardedFaultSim so every
  /// engine walks faults the same way.
  const std::vector<uint32_t>& sim_order(const FaultList& fl);

  /// No STR/STF partner exists for this fault.
  static constexpr uint32_t kNoPartner = 0xFFFFFFFFu;

  /// partner[i] = index of the complementary transition fault at the
  /// same (gate, pin), or kNoPartner. Cached alongside sim_order().
  const std::vector<uint32_t>& sim_partners(const FaultList& fl);

  /// The per-batch fault walk: probes every fault of `fl` that shard
  /// `shard` of `shards` owns and that fsim_wants_simulation(), against
  /// the last simulate_good() batch, into `probes` (indexed by fault,
  /// sized to fl.size(), unsimulated on entry). Faults are walked in
  /// `order` (sim_order) and interleaved over the shards, an STR/STF
  /// pair (`partners`, sim_partners) co-owned by its lower index and,
  /// outside kExhaustive, probed in one overlay pass. Writes only owned
  /// slots, so shards may share `probes`; detect_faults is the
  /// one-shard case. Returns the walk's work counters.
  FsimWork probe_faults(const FaultList& fl,
                        const std::vector<uint32_t>& order,
                        const std::vector<uint32_t>& partners, size_t shard,
                        size_t shards, uint64_t live_mask,
                        std::vector<FaultProbe>* probes);

  /// Compiled replay program for procedure `ncp_index` (built on first
  /// use in compiled mode; exposed for structural tests).
  const ConeProgram& cone_program(size_t ncp_index);

  /// Live-slot mask for a batch (count < 64 leaves the top slots dead).
  static uint64_t live_mask(const PatternBatch& batch) {
    return batch.count >= 64 ? ~0ull : ((1ull << batch.count) - 1);
  }

 private:
  /// Modes that run the dense replay programs (and need the packed
  /// good-value arenas from simulate_good).
  bool compiled_family() const {
    return mode_ == FsimMode::kCompiled || mode_ == FsimMode::kWordParallel;
  }

  struct StateDiff {
    uint32_t dff_pos;  // index into nl.dffs()
    Val64 faulty;
  };

  /// One value plane of the compiled kernel: per frame, the good
  /// values in dense-id order (read-only during overlay passes) and the
  /// write-through overlay arena. The arena is primed with the good
  /// values, corrupted during a fault pass and restored via
  /// FsimScratch::touched afterwards. Keeping it always-good between
  /// passes makes the operand gather one contiguous load and
  /// `new == previous` an exact skip condition, with no epoch stamps.
  template <class P>
  struct ValuePlane {
    std::vector<std::vector<P>> good;
    std::vector<std::vector<P>> arena;
    /// Packs `gf` into dense order and resets the arenas to it.
    void prime(const ConeProgram& prog, const GoodFrames& gf);
  };

  /// Reusable per-worker buffers: everything a single fault overlay
  /// pass writes lives here (epoch-stamped, so nothing is cleared
  /// between faults). Sized at simulate_good time; after the first
  /// batch of an NCP the steady-state detect_faults loop allocates
  /// nothing.
  struct FsimScratch {
    // The 01X plane (both compiled modes) and the X-free plane
    // (kWordParallel only); std::get<ValuePlane<P>> picks one.
    std::tuple<ValuePlane<Val64>, ValuePlane<uint64_t>> planes;
    // frame_xfree[f] != 0 iff the good machine carries no X anywhere in
    // frame f -- over ALL gates, not just cone nodes, because the
    // off-cone reads (off_cone_value, captured D nets, final state) may
    // touch any net. Gate functions map known inputs to known outputs,
    // so an X-free frame with X-free carried state keeps the whole
    // overlay X-free: the precondition of the one-word plane.
    std::vector<uint8_t> frame_xfree;
    std::vector<uint32_t> touched;  // dense ids to restore (dups fine)
    std::vector<uint64_t> active;   // per-level active bitset words
    // Carried state corruption double-buffer.
    std::vector<StateDiff> state_a, state_b;
    // Operand gather spill for wide gates.
    std::vector<Val64> wide_ins;
    // Per-frame injection lane masks of the fault (and its partner),
    // computed in one pass over the good frames per simulate_sites call
    // -- the launch condition reads the same two good words for both
    // partners and for the union pre-check, so computing them once
    // halves the per-fault fixed cost.
    std::vector<uint64_t> inj_a, inj_b;
  };

  // Simulates fault `a` (and, when non-null, its complementary
  // transition partner `b` at the same site) and returns both mask sets.
  std::pair<ProbeMasks, ProbeMasks> simulate_sites(const Fault& a,
                                                   const Fault* b,
                                                   uint64_t live_mask,
                                                   FsimWork* work);

  Val64 faulty_value(GateId g) const {
    return stamp_[g] == epoch_ ? faulty_[g] : good_.frames[cur_frame_][g];
  }
  // `inj_mask`/`forced_v`: lanes where the site is overridden and the
  // value bits forced there (forced_v must be a subset of inj_mask).
  // Interpreted engine: levelized event queue over the global netlist.
  void propagate_frame(GateId site_gate, uint8_t site_pin,
                       uint64_t inj_mask, uint64_t forced_v,
                       const std::vector<StateDiff>& in_state,
                       std::vector<StateDiff>* out_state,
                       uint64_t* hard_po, uint64_t* poss_po,
                       FsimWork* work);
  // Compiled engine: one linear bitset sweep over the frame's replay
  // program on value plane P -- Val64 (01X) or uint64_t (X-free frames;
  // the caller checks the precondition). Bit-identical results and work
  // counters to propagate_frame on either plane (same activation
  // conditions over the same pre-filtered edges).
  template <class P>
  void propagate_frame_compiled(GateId site_gate, uint8_t site_pin,
                                uint64_t inj_mask, uint64_t forced_v,
                                const std::vector<StateDiff>& in_state,
                                std::vector<StateDiff>* out_state,
                                uint64_t* hard_po, uint64_t* poss_po,
                                FsimWork* work);
  // Faulty value of a net with no dense id this frame: only carried
  // flop corruption (or a stem injection, handled by the caller) can
  // make it differ from good.
  Val64 off_cone_value(GateId g,
                       const std::vector<StateDiff>& in_state) const;

  /// Observability masks for `ncp_index` (shared artifact when present,
  /// else this engine's private lazily-built copy).
  const FrameObs& frame_obs_for(size_t ncp_index,
                                const NamedCaptureProcedure& ncp) {
    return shared_ ? shared_->shared_frame_obs(ncp_index)
                   : cone_.frame_obs(ncp_index, ncp);
  }

  const Netlist* nl_;
  const ClockingScheme* scheme_;
  GateId scan_en_pi_;
  FsimMode mode_;
  std::shared_ptr<const ConeArtifactSource> shared_;  // may be null
  CycleSim sim_;
  ConeSim cone_;
  GoodFrames good_;
  const NamedCaptureProcedure* cur_ncp_ = nullptr;
  const FrameObs* cur_obs_ = nullptr;      // null in exhaustive mode
  const ConeProgram* cur_prog_ = nullptr;  // set in compiled mode

  // Compiled replay programs, cached per NCP index.
  std::vector<ConeProgram> progs_;
  std::vector<uint8_t> prog_built_;

  // Per-fault scratch (epoch-stamped overlay), interpreted engine.
  std::vector<Val64> faulty_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  size_t cur_frame_ = 0;

  FsimScratch scratch_;

  // dff position lookup: gate id -> index in nl.dffs(), or -1.
  std::vector<int32_t> dff_pos_;
  std::vector<GateId> scan_cells_;
  std::vector<int32_t> scan_pos_;  // dff position -> scan position or -1
  // For capture-diff tracking: gate -> dff positions whose D pin it drives.
  std::vector<std::vector<uint32_t>> d_feeds_;
  std::vector<GateId> dff_d_;             // dff position -> D net
  std::vector<uint32_t> cand_dffs_;       // capture candidates this frame
  std::vector<uint32_t> cand_stamp_;      // epoch-stamped dedup

  // Cached cone-locality walk order and STR/STF partner map (keyed on
  // the fault list contents).
  std::vector<uint32_t> order_;
  std::vector<uint32_t> partners_;
  uint64_t order_hash_ = 0;
  size_t order_size_ = static_cast<size_t>(-1);
  // Per-fault probe buffer for the order-independent merge.
  std::vector<FaultProbe> probes_;
};

}  // namespace occ
