// Tests: cone-limited event-driven fault propagation (sim/cone_sim.h,
// FsimMode) -- bit-exact parity against the exhaustive reference path,
// STR/STF pair propagation, fault ordering/dropping invariance, and the
// gate-evaluation reduction the cone engine exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fault/order.h"
#include "fsim/fsim.h"
#include "fsim/sharded.h"
#include "gen/circuits.h"
#include "gen/socgen.h"
#include "util/rng.h"

namespace occ {
namespace {

Netlist test_soc(uint64_t seed) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.flops = 80;
  prm.gates = 700;
  prm.pis = 12;
  prm.pos = 12;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 3});
  return nl;
}

/// Random batch for one NCP with X holes punched into loads and PIs
/// (respecting frozen-PI frames), so parity covers three-valued
/// propagation, not just fully specified patterns.
PatternBatch make_batch(const Netlist& nl, const ClockingScheme& s,
                        uint32_t ncp, uint64_t seed, PatternSet* ps) {
  Rng rng(seed);
  const NamedCaptureProcedure& proc = s.procedures[ncp];
  for (int i = 0; i < 64; ++i) {
    TestPattern p;
    p.ncp_index = ncp;
    p.pi_frames.assign(proc.cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(proc, rng);
    for (auto& v : p.load) {
      if (rng.chance(0.15)) v = V3::kX;
    }
    for (size_t f = 0; f < p.pi_frames.size(); ++f) {
      if (f > 0 && !proc.cycles[f].pi_change) {
        p.pi_frames[f] = p.pi_frames[f - 1];  // keep frozen frames legal
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

/// Runs one batch through both propagation modes and requires identical
/// statuses, detections and per-fault probe masks.
void expect_parity(const Netlist& nl, const ClockingScheme& s,
                   uint32_t ncp, uint64_t seed) {
  SCOPED_TRACE(s.name + " ncp" + std::to_string(ncp));
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, ncp, seed, &ps);
  const uint64_t live = NcpFaultSim::live_mask(b);

  NcpFaultSim ex(nl, s, se, FsimMode::kExhaustive);
  NcpFaultSim cone(nl, s, se, FsimMode::kConeLimited);

  // Per-fault probe masks (the sharded primitive).
  FaultList fl = FaultList::build(nl, s.model);
  ex.simulate_good(b);
  cone.simulate_good(b);
  for (size_t i = 0; i < fl.size(); ++i) {
    FsimWork w1, w2;
    const auto m1 = ex.probe_fault(fl.fault(i), live, &w1);
    const auto m2 = cone.probe_fault(fl.fault(i), live, &w2);
    ASSERT_EQ(m1, m2) << "fault " << fault_to_string(nl, fl.fault(i));
    ASSERT_LE(w2.gate_evals, w1.gate_evals)
        << "cone mode must never do more work";
  }

  // Whole-list grading: statuses, detections, stats.
  FaultList fl1 = FaultList::build(nl, s.model);
  FaultList fl2 = FaultList::build(nl, s.model);
  std::vector<std::pair<size_t, unsigned>> d1, d2;
  const FsimStats st1 = ex.detect_faults(b, fl1, &d1);
  const FsimStats st2 = cone.detect_faults(b, fl2, &d2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(st1.faults_simulated, st2.faults_simulated);
  EXPECT_EQ(st1.newly_detected, st2.newly_detected);
  EXPECT_EQ(st1.newly_possibly, st2.newly_possibly);
  EXPECT_GE(st1.gate_evals, st2.gate_evals);
  for (size_t i = 0; i < fl1.size(); ++i) {
    ASSERT_EQ(fl1.status(i), fl2.status(i))
        << "fault " << fault_to_string(nl, fl1.fault(i));
  }
}

TEST(ConeParity, TransitionSchemesWithXStates) {
  const Netlist nl = test_soc(7);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_cpf_basic(nd), scheme_external_full(nd, 3),
        scheme_external_constrained(nd, 3)}) {
    for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
      expect_parity(nl, s, ncp, 1000 + ncp);
    }
  }
}

TEST(ConeParity, EnhancedCpfAllProcedures) {
  // Multi-pulse bursts and inter-domain procedures: exercises carried
  // state corruption, multiple at-speed launch frames and the solo
  // fallback for STR/STF pairs whose launch lanes overlap.
  const Netlist nl = test_soc(8);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 4);
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_parity(nl, s, ncp, 2000 + ncp);
  }
}

TEST(ConeParity, StuckAtSchemes) {
  const Netlist nl = test_soc(9);
  const ClockingScheme s = scheme_stuck_at_external(nl.num_domains());
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_parity(nl, s, ncp, 3000 + ncp);
  }
}

TEST(ConePair, PairProbeMatchesTwoSoloProbes) {
  // Covers single-launch-frame NCPs (cpf_basic) and multi-pulse bursts
  // (cpf_enhanced), where pairs hit the overlap/empty-union fallbacks
  // and the frozen-partner lane purge.
  const Netlist nl = test_soc(10);
  const GateId se = nl.find("scan_en");
  const ClockingScheme basic = scheme_cpf_basic(nl.num_domains());
  const ClockingScheme enh = scheme_cpf_enhanced(nl.num_domains(), 4);
  struct Case {
    const ClockingScheme* s;
    uint32_t ncp;
  };
  size_t pairs = 0;
  for (const Case& c : {Case{&basic, 0}, Case{&enh, 1}, Case{&enh, 2},
                        Case{&enh, 5}}) {
    SCOPED_TRACE(c.s->name + " ncp" + std::to_string(c.ncp));
    PatternSet ps("x");
    const PatternBatch b = make_batch(nl, *c.s, c.ncp, 42 + c.ncp, &ps);
    const uint64_t live = NcpFaultSim::live_mask(b);

    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    const std::vector<uint32_t> partners = str_stf_partners(fl);
    NcpFaultSim sim(nl, *c.s, se);
    sim.simulate_good(b);

    for (uint32_t i = 0; i < fl.size(); ++i) {
      const uint32_t j = partners[i];
      if (j == NcpFaultSim::kNoPartner || j < i) continue;
      ++pairs;
      FsimWork wp, wa, wb;
      const auto [ma, mb] =
          sim.probe_fault_pair(fl.fault(i), fl.fault(j), live, &wp);
      const auto sa = sim.probe_fault(fl.fault(i), live, &wa);
      const auto sb = sim.probe_fault(fl.fault(j), live, &wb);
      ASSERT_EQ(sa.first, ma.hard) << fault_to_string(nl, fl.fault(i));
      ASSERT_EQ(sa.second, ma.poss) << fault_to_string(nl, fl.fault(i));
      ASSERT_EQ(sb.first, mb.hard) << fault_to_string(nl, fl.fault(j));
      ASSERT_EQ(sb.second, mb.poss) << fault_to_string(nl, fl.fault(j));
      ASSERT_LE(wp.gate_evals, wa.gate_evals + wb.gate_evals)
          << "pair pass must not exceed two solo passes";
    }
  }
  EXPECT_GT(pairs, 0u) << "transition list must contain STR/STF pairs";
}

TEST(FaultOrder, ConeOrderIsAPermutation) {
  const Netlist nl = test_soc(11);
  const FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const std::vector<uint32_t> order = cone_sim_order(nl, fl);
  ASSERT_EQ(order.size(), fl.size());
  std::set<uint32_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), fl.size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), fl.size() - 1);
}

TEST(FaultOrder, PartnersAreSymmetricComplementaryPairs) {
  const Netlist nl = test_soc(11);
  const FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const std::vector<uint32_t> partners = str_stf_partners(fl);
  size_t paired = 0;
  for (uint32_t i = 0; i < fl.size(); ++i) {
    const uint32_t j = partners[i];
    if (j == NcpFaultSim::kNoPartner) continue;
    ++paired;
    ASSERT_NE(i, j);
    ASSERT_EQ(partners[j], i);
    const Fault& a = fl.fault(i);
    const Fault& b = fl.fault(j);
    EXPECT_EQ(a.gate, b.gate);
    EXPECT_EQ(a.pin, b.pin);
    EXPECT_TRUE(is_transition(a.type) && is_transition(b.type));
    EXPECT_NE(a.type, b.type);
  }
  EXPECT_GT(paired, 0u);

  // Stuck-at lists never pair.
  const FaultList sa = FaultList::build(nl, FaultModel::kStuckAt);
  for (const uint32_t p : str_stf_partners(sa)) {
    EXPECT_EQ(p, NcpFaultSim::kNoPartner);
  }
}

TEST(FaultOrder, ShardingAndOrderingPreserveDetectionSets) {
  // The sharded engine walks faults in cone order with pair co-ownership;
  // every shard count must reproduce the exhaustive sequential result.
  const Netlist nl = test_soc(12);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, 0, 77, &ps);

  FaultList ref = FaultList::build(nl, FaultModel::kTransition);
  std::vector<std::pair<size_t, unsigned>> dref;
  NcpFaultSim ex(nl, s, se, FsimMode::kExhaustive);
  ex.detect_faults(b, ref, &dref);

  uint64_t cone_evals = 0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    std::vector<std::pair<size_t, unsigned>> dets;
    ShardedFaultSim sim(nl, s, se, shards);
    const FsimStats st = sim.detect_faults(b, fl, &dets);
    EXPECT_EQ(dets, dref);
    for (size_t i = 0; i < fl.size(); ++i) {
      ASSERT_EQ(fl.status(i), ref.status(i));
    }
    // The cone engine's work is deterministic for every shard count.
    if (cone_evals == 0) cone_evals = st.gate_evals;
    EXPECT_EQ(st.gate_evals, cone_evals);
  }
}

TEST(ConeParity, SessionPipelineIdenticalAcrossModes) {
  // End-to-end: the full ATPG pipeline (random stage, PODEM grading,
  // compaction) must emit byte-identical patterns for either
  // propagation mode.
  auto run = [](FsimMode m) {
    SessionConfig cfg;
    cfg.design([] { return gen::make_counter(8); })
        .scan({.num_chains = 2})
        .scheme(scheme_cpf_basic(1))
        .engine({.fsim = {.mode = m}});
    return Session(std::move(cfg)).run();
  };
  const SessionResult a = run(FsimMode::kConeLimited);
  const SessionResult b = run(FsimMode::kExhaustive);
  EXPECT_EQ(a.pattern_count(), b.pattern_count());
  EXPECT_EQ(a.test_coverage(), b.test_coverage());
  ASSERT_EQ(a.atpg.faults.size(), b.atpg.faults.size());
  for (size_t i = 0; i < a.atpg.faults.size(); ++i) {
    ASSERT_EQ(a.atpg.faults.status(i), b.atpg.faults.status(i));
  }
  std::ostringstream ta, tb;
  a.atpg.patterns.write_text(ta);
  b.atpg.patterns.write_text(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(ObsCone, UnstrobedPoConeCostsNothing) {
  // NOT gate feeds only a PO. Without a strobe the fault has no
  // observation point: the cone engine must not evaluate a single gate,
  // and both engines must agree the fault is undetected.
  Netlist nl("po_only");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate1(GateType::kNot, a, "g");
  nl.add_output(g, "o");
  nl.finalize();

  ClockingScheme s;
  s.name = "sa_nostrobe";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "cap";
  p.cycles = {{.pulses = kAllDomains,
               .pi_change = true,
               .po_strobe = false,
               .at_speed = false}};
  s.procedures.push_back(p);

  PatternSet ps("x");
  TestPattern t;
  t.ncp_index = 0;
  t.pi_frames = {std::vector<V3>{V3::k1}};
  ps.add(std::move(t));
  const PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[0]);
  const uint64_t live = NcpFaultSim::live_mask(b);

  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  NcpFaultSim ex(nl, s, kNoGate, FsimMode::kExhaustive);
  NcpFaultSim cone(nl, s, kNoGate);
  ex.simulate_good(b);
  cone.simulate_good(b);
  FsimWork ex_work, cone_work;
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto m1 = ex.probe_fault(fl.fault(i), live, &ex_work);
    const auto m2 = cone.probe_fault(fl.fault(i), live, &cone_work);
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(m1.first, 0u);
  }
  EXPECT_GT(ex_work.gate_evals, 0u);
  EXPECT_EQ(cone_work.gate_evals, 0u)
      << "no observation point -> zero propagation";

  // Strobing the PO restores full detection in both modes.
  s.procedures[0].cycles[0].po_strobe = true;
  FaultList fl1 = FaultList::build(nl, FaultModel::kStuckAt);
  FaultList fl2 = FaultList::build(nl, FaultModel::kStuckAt);
  NcpFaultSim ex2(nl, s, kNoGate, FsimMode::kExhaustive);
  NcpFaultSim cone2(nl, s, kNoGate);
  ex2.detect_faults(b, fl1);
  cone2.detect_faults(b, fl2);
  for (size_t i = 0; i < fl1.size(); ++i) {
    EXPECT_EQ(fl1.status(i), fl2.status(i));
  }
  EXPECT_GT(fl2.count(FaultStatus::kDetected), 0u);
}

TEST(ObsCone, BenchConfigGateEvalReductionAtLeast2x) {
  // The acceptance bar for the cone engine: >= 2x fewer gate
  // evaluations than the exhaustive path on the bench_engines fault-sim
  // workload (identical detections). Both numbers are deterministic.
  gen::SocParams prm;
  prm.seed = 99;
  prm.flops = 200;
  prm.gates = 2000;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 4});
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  Rng rng(2);
  PatternSet ps("b");
  for (int i = 0; i < 64; ++i) {
    TestPattern p;
    p.ncp_index = 0;
    p.pi_frames.assign(2, std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(s.procedures[0], rng);
    ps.add(std::move(p));
  }
  const PatternBatch b = pack_batch(ps, 0, 64, nl, s.procedures[0]);

  FaultList fl1 = FaultList::build(nl, FaultModel::kTransition);
  FaultList fl2 = FaultList::build(nl, FaultModel::kTransition);
  NcpFaultSim ex(nl, s, se, FsimMode::kExhaustive);
  NcpFaultSim cone(nl, s, se);
  const FsimStats st1 = ex.detect_faults(b, fl1);
  const FsimStats st2 = cone.detect_faults(b, fl2);
  EXPECT_EQ(st1.newly_detected, st2.newly_detected);
  EXPECT_GE(st1.gate_evals, 2 * st2.gate_evals)
      << "cone engine lost its >= 2x work reduction ("
      << st1.gate_evals << " vs " << st2.gate_evals << ")";
}

}  // namespace
}  // namespace occ
