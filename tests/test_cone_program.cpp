// Tests: compiled-cone replay programs (sim/cone_program.h,
// FsimMode::kCompiled) -- bit-exact parity of masks, statuses,
// detection slots AND work counters against the interpreted cone
// engine, across every scheme on generated SOCs and the committed
// circuits/ corpus; structural invariants of the lowered programs; and
// the allocation-free steady-state hot loop of both compiled modes and
// value planes (global operator new counter around a warmed-up
// detect_faults).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "util/rng.h"

// ---- global allocation counter ------------------------------------------
// Counts every operator new in the process; the steady-state test
// snapshots it around a warmed-up detect_faults call. Deallocation
// routes straight to free() so the pairing stays trivially correct.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(a);
  void* p = nullptr;
  if (posix_memalign(&p, al < sizeof(void*) ? sizeof(void*) : al,
                     n ? n : al) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace occ {
namespace {

/// Generated SOC; `full_scan` leaves no non-scan flop, so no flop
/// powers up X and a fully specified batch simulates X-free.
Netlist test_soc(uint64_t seed, bool full_scan = false) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.flops = 80;
  prm.gates = 700;
  prm.pis = 12;
  prm.pos = 12;
  if (full_scan) prm.nonscan_fraction = 0.0;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 3});
  return nl;
}

/// Random batch with X holes (loads and PIs) so parity covers
/// three-valued propagation; mirrors tests/test_cone.cpp. Without
/// `x_holes` the batch is fully specified.
PatternBatch make_batch(const Netlist& nl, const ClockingScheme& s,
                        uint32_t ncp, uint64_t seed, PatternSet* ps,
                        bool x_holes = true) {
  Rng rng(seed);
  const NamedCaptureProcedure& proc = s.procedures[ncp];
  for (int i = 0; i < 64; ++i) {
    TestPattern p;
    p.ncp_index = ncp;
    p.pi_frames.assign(proc.cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(proc, rng);
    if (!x_holes) {
      ps->add(std::move(p));
      continue;
    }
    for (auto& v : p.load) {
      if (rng.chance(0.15)) v = V3::kX;
    }
    for (size_t f = 0; f < p.pi_frames.size(); ++f) {
      if (f > 0 && !proc.cycles[f].pi_change) {
        p.pi_frames[f] = p.pi_frames[f - 1];
        continue;
      }
      for (auto& v : p.pi_frames[f]) {
        if (rng.chance(0.15)) v = V3::kX;
      }
    }
    ps->add(std::move(p));
  }
  return pack_batch(*ps, 0, 64, nl, proc);
}

/// The compiled engine must reproduce the interpreted cone engine bit
/// for bit -- including both deterministic work counters, which is a
/// strictly stronger claim than equal detections (same events offered,
/// same gates evaluated, only the memory layout differs).
void expect_compiled_parity(const Netlist& nl, const ClockingScheme& s,
                            uint32_t ncp, uint64_t seed) {
  SCOPED_TRACE(s.name + " ncp" + std::to_string(ncp));
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, ncp, seed, &ps);
  const uint64_t live = NcpFaultSim::live_mask(b);

  NcpFaultSim interp(nl, s, se, FsimMode::kConeLimited);
  NcpFaultSim comp(nl, s, se, FsimMode::kCompiled);

  // Per-fault probe masks (the sharded primitive).
  FaultList fl = FaultList::build(nl, s.model);
  interp.simulate_good(b);
  comp.simulate_good(b);
  for (size_t i = 0; i < fl.size(); ++i) {
    FsimWork wi, wc;
    const auto m1 = interp.probe_fault(fl.fault(i), live, &wi);
    const auto m2 = comp.probe_fault(fl.fault(i), live, &wc);
    ASSERT_EQ(m1, m2) << "fault " << fault_to_string(nl, fl.fault(i));
    ASSERT_EQ(wi.gate_evals, wc.gate_evals)
        << "fault " << fault_to_string(nl, fl.fault(i));
    ASSERT_EQ(wi.events_processed, wc.events_processed)
        << "fault " << fault_to_string(nl, fl.fault(i));
  }

  // Whole-list grading: statuses, detection slots, stats, counters.
  FaultList fl1 = FaultList::build(nl, s.model);
  FaultList fl2 = FaultList::build(nl, s.model);
  std::vector<std::pair<size_t, unsigned>> d1, d2;
  const FsimStats st1 = interp.detect_faults(b, fl1, &d1);
  const FsimStats st2 = comp.detect_faults(b, fl2, &d2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(st1.faults_simulated, st2.faults_simulated);
  EXPECT_EQ(st1.newly_detected, st2.newly_detected);
  EXPECT_EQ(st1.newly_possibly, st2.newly_possibly);
  EXPECT_EQ(st1.gate_evals, st2.gate_evals);
  EXPECT_EQ(st1.events_processed, st2.events_processed);
  for (size_t i = 0; i < fl1.size(); ++i) {
    ASSERT_EQ(fl1.status(i), fl2.status(i))
        << "fault " << fault_to_string(nl, fl1.fault(i));
  }
}

TEST(ConeProgramParity, TransitionSchemesWithXStates) {
  const Netlist nl = test_soc(7);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_cpf_basic(nd), scheme_external_full(nd, 3),
        scheme_external_constrained(nd, 3)}) {
    for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
      expect_compiled_parity(nl, s, ncp, 1000 + ncp);
    }
  }
}

TEST(ConeProgramParity, EnhancedCpfAllProcedures) {
  // Multi-pulse bursts and inter-domain procedures: carried state
  // corruption across frames, multiple at-speed launch frames, the
  // STR/STF pair overlay and its solo fallback.
  const Netlist nl = test_soc(8);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 4);
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_compiled_parity(nl, s, ncp, 2000 + ncp);
  }
}

TEST(ConeProgramParity, StuckAtSchemes) {
  const Netlist nl = test_soc(9);
  const ClockingScheme s = scheme_stuck_at_external(nl.num_domains());
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_compiled_parity(nl, s, ncp, 3000 + ncp);
  }
}

TEST(ConeProgramParity, CorpusCircuitsAllSchemes) {
  // The committed cycle-semantics corpus circuits (hand-written s27
  // variants and the generated ISCAS'89-class designs).
  for (const char* name :
       {"s27.bench", "s27m.bench", "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    Netlist nl = read_bench_file(std::string(OCC_CIRCUITS_DIR) + "/" + name);
    insert_scan(nl, {.num_chains = 2});
    const size_t nd = nl.num_domains();
    for (const ClockingScheme& s :
         {scheme_stuck_at_external(nd), scheme_cpf_basic(nd),
          scheme_cpf_enhanced(nd, 3)}) {
      for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
        expect_compiled_parity(nl, s, ncp, 4000 + ncp);
      }
    }
  }
}

TEST(ConeProgramParity, ShardedCompiledMatchesSequentialInterpreted) {
  const Netlist nl = test_soc(12);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, 0, 77, &ps);

  FaultList ref = FaultList::build(nl, FaultModel::kTransition);
  std::vector<std::pair<size_t, unsigned>> dref;
  NcpFaultSim interp(nl, s, se, FsimMode::kConeLimited);
  const FsimStats stref = interp.detect_faults(b, ref, &dref);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    std::vector<std::pair<size_t, unsigned>> dets;
    ShardedFaultSim sim(nl, s, se, shards, FsimMode::kCompiled);
    const FsimStats st = sim.detect_faults(b, fl, &dets);
    EXPECT_EQ(dets, dref);
    EXPECT_EQ(st.gate_evals, stref.gate_evals);
    EXPECT_EQ(st.events_processed, stref.events_processed);
    for (size_t i = 0; i < fl.size(); ++i) {
      ASSERT_EQ(fl.status(i), ref.status(i));
    }
  }
}

TEST(ConeProgramParity, SessionPipelineIdenticalToInterpreted) {
  // End-to-end through the Session front door on a corpus circuit.
  auto run = [](FsimMode m) {
    SessionConfig cfg;
    cfg.design_file(std::string(OCC_CIRCUITS_DIR) + "/s344c.bench")
        .scan({.num_chains = 2})
        .scheme(scheme_cpf_basic(1))
        .engine({.fsim = {.mode = m}});
    return Session(std::move(cfg)).run();
  };
  const SessionResult a = run(FsimMode::kCompiled);
  const SessionResult b = run(FsimMode::kConeLimited);
  EXPECT_EQ(a.pattern_count(), b.pattern_count());
  EXPECT_EQ(a.test_coverage(), b.test_coverage());
  EXPECT_EQ(a.atpg.fsim.gate_evals, b.atpg.fsim.gate_evals);
  EXPECT_EQ(a.atpg.fsim.events_processed, b.atpg.fsim.events_processed);
  ASSERT_EQ(a.atpg.faults.size(), b.atpg.faults.size());
  for (size_t i = 0; i < a.atpg.faults.size(); ++i) {
    ASSERT_EQ(a.atpg.faults.status(i), b.atpg.faults.status(i));
  }
  std::ostringstream ta, tb;
  a.atpg.patterns.write_text(ta);
  b.atpg.patterns.write_text(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(ConeProgramParity, DPinFaultOnFlopFedByFlop) {
  // Regression: a D-pin branch fault on a flop whose D net is itself a
  // corrupted flop. The carried-state seed and the injection seed name
  // the same capture candidate; without dedup the interpreted engine
  // double-counted next-frame activation events and its
  // events_processed diverged from the compiled engine's.
  Netlist nl("ff2ff");
  const GateId a = nl.add_input("a");
  const GateId f1 = nl.add_dff(kNoGate, 0, "f1");
  const GateId f2 = nl.add_dff(f1, 0, "f2");
  nl.connect_dff_d(f1, nl.add_gate2(GateType::kAnd, f2, a, "g"));
  nl.add_output(nl.add_gate1(GateType::kBuf, f2, "z"), "o");
  nl.finalize();

  ClockingScheme s;
  s.name = "ff2ff_sa";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "cap4";
  for (int i = 0; i < 4; ++i) {
    p.cycles.push_back({.pulses = kAllDomains,
                        .pi_change = true,
                        .po_strobe = true,
                        .at_speed = false});
  }
  s.procedures.push_back(p);

  PatternSet ps("x");
  TestPattern t;
  t.ncp_index = 0;
  t.pi_frames.assign(4, std::vector<V3>{V3::k1});
  ps.add(std::move(t));
  const PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[0]);
  const uint64_t live = NcpFaultSim::live_mask(b);

  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  NcpFaultSim interp(nl, s, kNoGate, FsimMode::kConeLimited);
  NcpFaultSim comp(nl, s, kNoGate, FsimMode::kCompiled);
  interp.simulate_good(b);
  comp.simulate_good(b);
  for (size_t i = 0; i < fl.size(); ++i) {
    FsimWork wi, wc;
    const auto m1 = interp.probe_fault(fl.fault(i), live, &wi);
    const auto m2 = comp.probe_fault(fl.fault(i), live, &wc);
    ASSERT_EQ(m1, m2) << fault_to_string(nl, fl.fault(i));
    ASSERT_EQ(wi.gate_evals, wc.gate_evals)
        << fault_to_string(nl, fl.fault(i));
    ASSERT_EQ(wi.events_processed, wc.events_processed)
        << fault_to_string(nl, fl.fault(i));
  }
}

TEST(ConeProgramStructure, LoweringInvariants) {
  const Netlist nl = test_soc(13);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 3);
  const GateId se = nl.find("scan_en");
  NcpFaultSim sim(nl, s, se, FsimMode::kCompiled);
  for (size_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    const ConeProgram& prog = sim.cone_program(ncp);
    ASSERT_EQ(prog.frames.size(), s.procedures[ncp].cycles.size());
    for (const FrameProgram& fp : prog.frames) {
      ASSERT_LE(fp.num_nodes, prog.max_nodes);
      ASSERT_EQ(fp.gate_of.size(), fp.num_nodes);
      ASSERT_EQ(fp.nodes.size(), fp.num_nodes + 1);  // CSR-end sentinel
      // dense_of and gate_of are inverse on the cone.
      for (uint32_t n = 0; n < fp.num_nodes; ++n) {
        ASSERT_EQ(fp.dense_of[fp.gate_of[n]], static_cast<int32_t>(n));
      }
      int32_t prev_level = -1;
      for (uint32_t n = 0; n < fp.num_nodes; ++n) {
        const Gate& g = nl.gate(fp.gate_of[n]);
        const ConeNode& rec = fp.nodes[n];
        // Dense ids are level-sorted; level boundaries bracket them.
        ASSERT_GE(g.level, prev_level);
        prev_level = g.level;
        const size_t l = static_cast<size_t>(g.level);
        ASSERT_GE(n, fp.level_begin[l]);
        ASSERT_LT(n, fp.level_begin[l + 1]);
        // Operands precede their reader (the sweep's scheduling
        // invariant); fanouts strictly follow it.
        if (rec.nf > 0 && rec.nf <= 2) {
          ASSERT_LT(rec.in0, n);
          if (rec.nf == 2) ASSERT_LT(rec.in1, n);
        } else if (rec.nf > 2) {
          for (uint32_t i = 0; i < rec.nf; ++i) {
            ASSERT_LT(fp.fanin_pool[rec.in0 + i], n);
          }
        }
        for (uint32_t k = rec.fanout_begin;
             k < fp.nodes[n + 1].fanout_begin; ++k) {
          ASSERT_GT(fp.fanout[k], n);
          ASSERT_LT(fp.fanout[k], fp.num_nodes);
        }
        // Level-0 nodes are operand-only sources.
        if (g.level == 0) ASSERT_EQ(rec.nf, 0);
      }
    }
  }
}

/// True iff any good-machine frame of the last simulated batch carries
/// an X. With none, the word-parallel engine runs every frame on the
/// one-word plane (the carried faulty state of an X-free batch is X-free
/// too).
bool good_frames_see_x(const NcpFaultSim& sim) {
  for (const auto& frame : sim.good().frames) {
    for (const Val64& v : frame) {
      if (v.x != 0) return true;
    }
  }
  return false;
}

/// Warms an engine of `mode` up on one batch, then runs an identical
/// fresh fault list through the same hot loop: detect_faults must not
/// touch the heap at all.
void expect_allocation_free(FsimMode mode, bool x_holes) {
  SCOPED_TRACE(std::string(fsim_mode_name(mode)) +
               (x_holes ? " x-holes" : " fully-specified"));
  // The fully specified batch runs on a full-scan SOC so that no
  // power-up X keeps it off the one-word plane.
  const Netlist nl = test_soc(14, /*full_scan=*/!x_holes);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, 0, 99, &ps, x_holes);

  NcpFaultSim sim(nl, s, se, mode);
  sim.simulate_good(b);
  ASSERT_EQ(good_frames_see_x(sim), x_holes);

  // Warm-up: builds the replay programs, sizes the scratch arena and
  // the per-fault buffers to this workload's high-water marks.
  FaultList warm = FaultList::build(nl, FaultModel::kTransition);
  sim.detect_faults(b, warm);

  FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const FsimStats st = sim.detect_faults(b, fl);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "detect_faults allocated on a warmed-up engine";
  EXPECT_GT(st.faults_simulated, 0u);
  EXPECT_GT(st.gate_evals, 0u);
}

// The default mode runs both kernel instantiations: the one-word plane
// on a fully specified batch, the 01X plane on a batch with X holes.
TEST(ConeProgramAllocations, SteadyStateHotLoopIsAllocationFree) {
  expect_allocation_free(FsimMode::kCompiled, /*x_holes=*/true);
  expect_allocation_free(FsimMode::kWordParallel, /*x_holes=*/false);
  expect_allocation_free(FsimMode::kWordParallel, /*x_holes=*/true);
}

}  // namespace
}  // namespace occ
