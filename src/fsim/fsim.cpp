#include "fsim/fsim.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "fault/order.h"
#include "util/check.h"

namespace occ {
namespace {

// ---- value planes ----------------------------------------------------
// The compiled kernel runs on one of two value planes: Val64 (01X, a
// value word and an x word per net) or uint64_t (X-free frames, where
// the x word is identically zero and dropped). Each operation the
// kernel needs has one overload per plane. On X-free data the uint64_t
// forms compute exactly the v word of the Val64 forms and the
// difference masks coincide, so both planes drive the same activation
// schedule.

/// Slots where a and b are both known and disagree.
uint64_t hard_diff(Val64 a, Val64 b) {
  return (a.v ^ b.v) & ~a.x & ~b.x;
}
uint64_t hard_diff(uint64_t a, uint64_t b) { return a ^ b; }

/// Slots where exactly one of a, b is known (X-marginal disagreement).
uint64_t possible_diff(Val64 a, Val64 b) { return a.x ^ b.x; }
uint64_t possible_diff(uint64_t, uint64_t) { return 0; }

/// Slots where a and b differ, hard or possibly.
template <class P>
uint64_t differs(P a, P b) {
  return hard_diff(a, b) | possible_diff(a, b);
}

/// Forces the lanes of `mask` to the known bits `bits` (bits within
/// mask): the stem/branch fault injection.
Val64 force(Val64 a, uint64_t mask, uint64_t bits) {
  return {(a.v & ~mask) | bits, a.x & ~mask};
}
uint64_t force(uint64_t a, uint64_t mask, uint64_t bits) {
  return (a & ~mask) | bits;
}

/// Complements the known lanes when m is ~0 (identity when 0): the
/// inversion masks of the lowered evaluation classes.
Val64 flip(Val64 a, uint64_t m) { return {(a.v ^ m) & ~a.x, a.x}; }
uint64_t flip(uint64_t a, uint64_t m) { return a ^ m; }

Val64 and2(Val64 a, Val64 b) { return v_and(a, b); }
uint64_t and2(uint64_t a, uint64_t b) { return a & b; }

Val64 xor2(Val64 a, Val64 b) { return v_xor(a, b); }
uint64_t xor2(uint64_t a, uint64_t b) { return a ^ b; }

/// Plane value <-> the two-word form of the good machine, the carried
/// state and eval_gate_packed (X-free words get a zero x word).
Val64 to_val64(Val64 a) { return a; }
Val64 to_val64(uint64_t v) { return {v, 0}; }
template <class P>
P from_val64(Val64 a) {
  if constexpr (std::is_same_v<P, Val64>) {
    return a;
  } else {
    return a.v;
  }
}

/// FNV-1a over the fault list's defining fields (order-cache key).
uint64_t fault_list_hash(const FaultList& fl) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Fault& f : fl.faults()) {
    mix(f.gate);
    mix((uint64_t{f.pin} << 8) | static_cast<uint64_t>(f.type));
  }
  return h;
}

std::vector<uint8_t> scan_observable_flags(const Netlist& nl) {
  std::vector<int32_t> dff_pos(nl.size(), -1);
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_pos[nl.dffs()[i]] = static_cast<int32_t>(i);
  }
  std::vector<uint8_t> so(nl.dffs().size(), 0);
  for (GateId sc : scan_cells(nl)) {
    so[static_cast<size_t>(dff_pos[sc])] = 1;
  }
  return so;
}

}  // namespace

template <class P>
void NcpFaultSim::ValuePlane<P>::prime(const ConeProgram& prog,
                                       const GoodFrames& gf) {
  const size_t frames = prog.frames.size();
  good.resize(frames);
  arena.resize(frames);
  for (size_t f = 0; f < frames; ++f) {
    const FrameProgram& fp = prog.frames[f];
    const std::vector<Val64>& frame = gf.frames[f];
    good[f].resize(fp.num_nodes);
    for (uint32_t n = 0; n < fp.num_nodes; ++n) {
      good[f][n] = from_val64<P>(frame[fp.gate_of[n]]);
    }
    arena[f] = good[f];
  }
}

NcpFaultSim::NcpFaultSim(const Netlist& nl, const ClockingScheme& scheme,
                         GateId scan_en_pi, FsimMode mode,
                         std::shared_ptr<const ConeArtifactSource> shared)
    : nl_(&nl),
      scheme_(&scheme),
      scan_en_pi_(scan_en_pi),
      mode_(mode),
      shared_(std::move(shared)),
      sim_(nl),
      cone_(nl, scan_observable_flags(nl)) {
  faulty_.assign(nl.size(), Val64{});
  stamp_.assign(nl.size(), 0);

  dff_pos_.assign(nl.size(), -1);
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_pos_[nl.dffs()[i]] = static_cast<int32_t>(i);
  }
  scan_cells_ = scan_cells(nl);
  scan_pos_.assign(nl.dffs().size(), -1);
  for (size_t i = 0; i < scan_cells_.size(); ++i) {
    scan_pos_[static_cast<size_t>(dff_pos_[scan_cells_[i]])] =
        static_cast<int32_t>(i);
  }
  d_feeds_.assign(nl.size(), {});
  dff_d_.resize(nl.dffs().size());
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    const GateId d = nl.gate(nl.dffs()[i]).fanin[0];
    d_feeds_[d].push_back(static_cast<uint32_t>(i));
    dff_d_[i] = d;
  }
  cand_stamp_.assign(nl.dffs().size(), 0);
}

const ConeProgram& NcpFaultSim::cone_program(size_t ncp_index) {
  OCC_CHECK(ncp_index < scheme_->procedures.size(), "NCP out of range");
  if (shared_) return shared_->shared_cone_program(ncp_index);
  if (ncp_index >= progs_.size()) {
    progs_.resize(ncp_index + 1);
    prog_built_.resize(ncp_index + 1, 0);
  }
  if (!prog_built_[ncp_index]) {
    const NamedCaptureProcedure& ncp = scheme_->procedures[ncp_index];
    progs_[ncp_index] =
        compile_cone_program(*nl_, ncp, cone_.frame_obs(ncp_index, ncp));
    prog_built_[ncp_index] = 1;
  }
  return progs_[ncp_index];
}

void NcpFaultSim::simulate_good(const PatternBatch& batch) {
  OCC_CHECK(batch.ncp_index < scheme_->procedures.size(),
            "batch NCP out of range");
  cur_ncp_ = &scheme_->procedures[batch.ncp_index];
  cur_obs_ = mode_ != FsimMode::kExhaustive
                 ? &frame_obs_for(batch.ncp_index, *cur_ncp_)
                 : nullptr;
  const size_t frames = cur_ncp_->cycles.size();
  const auto& dffs = nl_->dffs();

  // resize (not assign-with-temporary) so the steady-state re-prime of
  // an already-sized engine stays allocation-free: detect_faults runs
  // this per batch inside the zero-allocation hot loop. Every element
  // is overwritten below.
  good_.frames.resize(frames);
  good_.state.resize(frames + 1);
  for (auto& s : good_.state) s.resize(dffs.size());

  // Load: scan cells get the pattern, non-scan cells power up X.
  sim_.reset_x();
  for (size_t i = 0; i < scan_cells_.size(); ++i) {
    sim_.set_state(scan_cells_[i], batch.load[i]);
  }
  for (size_t i = 0; i < dffs.size(); ++i) {
    good_.state[0][i] = sim_.state(dffs[i]);
  }

  for (size_t f = 0; f < frames; ++f) {
    const auto& pis = nl_->inputs();
    OCC_CHECK(batch.pi_frames[f].size() == pis.size(), "PI width mismatch");
    for (size_t i = 0; i < pis.size(); ++i) {
      sim_.set_input(pis[i], batch.pi_frames[f][i]);
    }
    if (scheme_->scan_en_frozen && scan_en_pi_ != kNoGate) {
      sim_.set_input(scan_en_pi_, Val64::all0());
    }
    sim_.eval();
    good_.frames[f] = sim_.values();
    sim_.capture(cur_ncp_->cycles[f].pulses);
    for (size_t i = 0; i < dffs.size(); ++i) {
      good_.state[f + 1][i] = sim_.state(dffs[i]);
    }
  }
  good_.final_state = good_.state[frames];

  cur_prog_ = nullptr;
  if (compiled_family()) {
    cur_prog_ = &cone_program(batch.ncp_index);
    // Size the bitset scratch for the NCP's largest frame cone (never
    // shrinks: one engine may alternate between procedures).
    if (scratch_.active.size() < (cur_prog_->max_nodes + 63) / 64) {
      scratch_.active.resize((cur_prog_->max_nodes + 63) / 64, 0);
    }
    // Pack the good-machine frames into dense-id order and prime the
    // per-frame write-through arenas with them. Once per batch,
    // amortized over every fault probed against it.
    std::get<ValuePlane<Val64>>(scratch_.planes).prime(*cur_prog_, good_);
  }
  if (mode_ == FsimMode::kWordParallel) {
    // Word-parallel extras: the one-word value plane and the per-frame
    // X-free flags. The flag scans the FULL frame, not just cone nodes:
    // off-cone reads (off_cone_value, captured D nets, carried/final
    // state) may touch any net, and flop outputs are frame values, so
    // an X-free frame also certifies the state words the frame reads
    // and writes.
    std::get<ValuePlane<uint64_t>>(scratch_.planes).prime(*cur_prog_,
                                                     good_);
    scratch_.frame_xfree.resize(frames);
    for (size_t f = 0; f < frames; ++f) {
      uint64_t any_x = 0;
      for (const Val64& v : good_.frames[f]) any_x |= v.x;
      scratch_.frame_xfree[f] = any_x == 0;
    }
  }
}

std::vector<V3> NcpFaultSim::expected_unload(unsigned slot) const {
  std::vector<V3> out;
  out.reserve(scan_cells_.size());
  for (GateId sc : scan_cells_) {
    const int32_t pos = dff_pos_[sc];
    out.push_back(good_.final_state[static_cast<size_t>(pos)].get(slot));
  }
  return out;
}

Val64 NcpFaultSim::off_cone_value(
    GateId g, const std::vector<StateDiff>& in_state) const {
  const int32_t pos = dff_pos_[g];
  if (pos >= 0) {
    for (const StateDiff& sd : in_state) {
      if (sd.dff_pos == static_cast<uint32_t>(pos)) return sd.faulty;
    }
  }
  return good_.frames[cur_frame_][g];
}

void NcpFaultSim::propagate_frame(GateId site_gate, uint8_t site_pin,
                                  uint64_t inj_mask, uint64_t forced_v,
                                  const std::vector<StateDiff>& in_state,
                                  std::vector<StateDiff>* out_state,
                                  uint64_t* hard_po, uint64_t* poss_po,
                                  FsimWork* work) {
  ++epoch_;
  const auto& good_vals = good_.frames[cur_frame_];
  const CaptureCycle& cyc = cur_ncp_->cycles[cur_frame_];
  const uint8_t* live =
      cur_obs_ ? cur_obs_->live[cur_frame_].data() : nullptr;
  cand_dffs_.clear();
  cone_.begin_frame();

  // Cone limiting: a difference leaving the observability cone can never
  // reach an observation point in the remaining frames, so it dies here.
  auto enqueue = [&](GateId g) {
    if (live && !live[g]) return;
    ++work->events_processed;
    cone_.push(g);
  };

  auto add_candidates = [&](GateId g) {
    for (uint32_t pos : d_feeds_[g]) {
      if (cand_stamp_[pos] != epoch_) {
        cand_stamp_[pos] = epoch_;
        cand_dffs_.push_back(pos);
      }
    }
  };

  // Seeds: corrupted flop outputs from the previous pulse.
  for (const StateDiff& sd : in_state) {
    const GateId ff = nl_->dffs()[sd.dff_pos];
    faulty_[ff] = sd.faulty;
    stamp_[ff] = epoch_;
    if (hard_diff(sd.faulty, good_vals[ff]) |
        possible_diff(sd.faulty, good_vals[ff])) {
      for (GateId out : nl_->gate(ff).fanout) {
        if (!is_sequential(nl_->gate(out).type)) enqueue(out);
      }
      add_candidates(ff);
    }
  }

  // Seed: fault injection site.
  if (inj_mask != 0) {
    if (site_pin == kOutputPin) {
      const Val64 g = faulty_value(site_gate);
      Val64 forced;
      forced.v = (g.v & ~inj_mask) | forced_v;
      forced.x = g.x & ~inj_mask;
      faulty_[site_gate] = forced;
      stamp_[site_gate] = epoch_;
      if (hard_diff(forced, good_vals[site_gate]) |
          possible_diff(forced, good_vals[site_gate])) {
        for (GateId out : nl_->gate(site_gate).fanout) {
          if (!is_sequential(nl_->gate(out).type)) enqueue(out);
        }
        add_candidates(site_gate);
      }
    } else if (!is_sequential(nl_->gate(site_gate).type)) {
      // Branch fault: re-evaluate only the faulted gate.
      enqueue(site_gate);
    } else if (nl_->gate(site_gate).type == GateType::kDff &&
               site_pin == 0) {
      // Branch fault on a flop's D pin: handled at capture below. Dedup
      // against the in_state seeds -- when the faulted flop's D net is
      // itself a corrupted flop, its position is already a candidate,
      // and a duplicate would double-count next-frame activation events
      // (and diverge from the compiled engine's counters).
      const uint32_t pos = static_cast<uint32_t>(dff_pos_[site_gate]);
      if (cand_stamp_[pos] != epoch_) {
        cand_stamp_[pos] = epoch_;
        cand_dffs_.push_back(pos);
      }
    }
  }

  // Level-ordered single-fault propagation over the event queue.
  Val64 ins[8];
  cone_.drain([&](GateId g) {
    const Gate& gate = nl_->gate(g);
    const size_t n = gate.fanin.size();
    Val64* iv = ins;
    if (n > 8) {
      scratch_.wide_ins.resize(n);
      iv = scratch_.wide_ins.data();
    }
    for (size_t i = 0; i < n; ++i) iv[i] = faulty_value(gate.fanin[i]);
    // Branch-fault override on this gate's faulted pin.
    if (g == site_gate && site_pin != kOutputPin && inj_mask != 0) {
      Val64& pv = iv[site_pin];
      pv.v = (pv.v & ~inj_mask) | forced_v;
      pv.x = pv.x & ~inj_mask;
    }
    Val64 out = eval_gate_packed(gate.type, {iv, n});
    // A stem fault on this gate keeps its output forced regardless of
    // input corruption (re-evaluation must not wash out the injection).
    if (g == site_gate && site_pin == kOutputPin && inj_mask != 0) {
      out.v = (out.v & ~inj_mask) | forced_v;
      out.x = out.x & ~inj_mask;
    }
    ++work->gate_evals;
    const Val64 prev = faulty_value(g);
    if (out == prev && stamp_[g] == epoch_) return;
    faulty_[g] = out;
    stamp_[g] = epoch_;
    if (hard_diff(out, good_vals[g]) | possible_diff(out, good_vals[g])) {
      for (GateId o : gate.fanout) {
        if (!is_sequential(nl_->gate(o).type)) enqueue(o);
      }
      add_candidates(g);
    }
    // PO strobe observation.
    if (gate.type == GateType::kOutput && cyc.po_strobe) {
      *hard_po |= hard_diff(out, good_vals[g]);
      *poss_po |= possible_diff(out, good_vals[g]);
    }
  });

  // Next-frame corrupted state: pulsed flops capture faulty D values;
  // un-pulsed flops carry their previous corruption forward.
  out_state->clear();
  const auto& dffs = nl_->dffs();
  const auto& next_state = good_.state[cur_frame_ + 1];
  for (const StateDiff& sd : in_state) {
    const Gate& ff = nl_->gate(dffs[sd.dff_pos]);
    if (cyc.pulses & (DomainMask{1} << ff.domain)) continue;  // recaptured
    out_state->push_back(sd);  // un-pulsed: holds corrupted value
  }
  for (uint32_t i : cand_dffs_) {
    const Gate& ff = nl_->gate(dffs[i]);
    if (!(cyc.pulses & (DomainMask{1} << ff.domain))) continue;
    const GateId d = ff.fanin[0];
    Val64 fd = faulty_value(d);
    // Branch fault directly on this flop's D pin.
    if (dffs[i] == site_gate && site_pin == 0 && inj_mask != 0) {
      fd.v = (fd.v & ~inj_mask) | forced_v;
      fd.x = fd.x & ~inj_mask;
    }
    if (hard_diff(fd, next_state[i]) | possible_diff(fd, next_state[i])) {
      out_state->push_back({i, fd});
    }
  }
}

template <class P>
void NcpFaultSim::propagate_frame_compiled(
    GateId site_gate, uint8_t site_pin, uint64_t inj_mask,
    uint64_t forced_v, const std::vector<StateDiff>& in_state,
    std::vector<StateDiff>* out_state, uint64_t* hard_po,
    uint64_t* poss_po, FsimWork* work) {
  const uint32_t ep = ++epoch_;
  const FrameProgram& fp = cur_prog_->frames[cur_frame_];
  ValuePlane<P>& plane = std::get<ValuePlane<P>>(scratch_.planes);
  const P* goodd = plane.good[cur_frame_].data();
  P* vals = plane.arena[cur_frame_].data();
  const std::vector<Val64>& good_frame = good_.frames[cur_frame_];
  const ConeNode* nodes = fp.nodes.data();
  uint64_t* active = scratch_.active.data();
  const auto& dffs = nl_->dffs();
  auto& touched = scratch_.touched;
  cand_dffs_.clear();

  // Every arena write records its node for the restore on the way out
  // (duplicate entries are fine -- restoring twice is idempotent).
  auto write_val = [&](uint32_t node, P v) {
    vals[node] = v;
    touched.push_back(node);
  };

  // A stem injection at an off-cone site still corrupts captured flop
  // state (the carried corruption rides along, observable or not --
  // exactly like the interpreter, which stamps the global overlay).
  // The forced word is kept here for the capture pass's reads.
  P off_cone_site{};
  bool site_stem_off_cone = false;

  // Replay-program equivalents of the interpreted engine's enqueue /
  // add_candidates: fanout and dfeed lists are pre-filtered, so the
  // liveness, sequential and pulse checks are compiled away. The sweep
  // only visits the bitset word range activations actually touched.
  uint32_t wlo = 0xFFFFFFFFu, whi = 0;
  auto activate = [&](uint32_t node) {
    ++work->events_processed;
    const uint32_t word = node >> 6;
    active[word] |= 1ull << (node & 63);
    wlo = std::min(wlo, word);
    whi = std::max(whi, word);
  };
  auto add_cand = [&](uint32_t pos) {
    if (cand_stamp_[pos] != ep) {
      cand_stamp_[pos] = ep;
      cand_dffs_.push_back(pos);
    }
  };
  // A node now differing from good: activate its readers, collect its
  // capturing flops.
  auto spread = [&](uint32_t node) {
    for (uint32_t k = nodes[node].fanout_begin;
         k < nodes[node + 1].fanout_begin; ++k) {
      activate(fp.fanout[k]);
    }
    for (uint32_t k = nodes[node].dfeed_begin;
         k < nodes[node + 1].dfeed_begin; ++k) {
      add_cand(fp.dfeed[k]);
    }
  };
  // Writes a seed value; a difference against good activates its
  // readers (in-cone) or its pulsed capturing flops (off-cone).
  auto seed = [&](GateId g, P v) {
    const bool d = differs(v, from_val64<P>(good_frame[g])) != 0;
    const int32_t dn = fp.dense_of[g];
    if (dn >= 0) {
      write_val(static_cast<uint32_t>(dn), v);
      if (d) spread(static_cast<uint32_t>(dn));
    } else if (d) {
      for (uint32_t pos : d_feeds_[g]) {
        if (fp.dff_pulsed[pos]) add_cand(pos);
      }
    }
    return dn;
  };

  // Seeds: corrupted flop outputs from the previous pulse.
  for (const StateDiff& sd : in_state) {
    seed(dffs[sd.dff_pos], from_val64<P>(sd.faulty));
  }

  // Seed: fault injection site.
  int32_t site_dense = -1;
  if (inj_mask != 0) {
    if (site_pin == kOutputPin) {
      const int32_t dn = fp.dense_of[site_gate];
      const P g = dn >= 0 ? vals[dn]
                          : from_val64<P>(off_cone_value(site_gate, in_state));
      const P forced = force(g, inj_mask, forced_v);
      site_dense = seed(site_gate, forced);
      if (site_dense < 0) {
        off_cone_site = forced;
        site_stem_off_cone = true;
      }
    } else if (!is_sequential(nl_->gate(site_gate).type)) {
      // Branch fault: re-evaluate only the faulted gate (if in-cone).
      site_dense = fp.dense_of[site_gate];
      if (site_dense >= 0) activate(static_cast<uint32_t>(site_dense));
    } else if (nl_->gate(site_gate).type == GateType::kDff &&
               site_pin == 0) {
      // Branch fault on a flop's D pin: the captured value is computed
      // at the capture pass below (forced from the D net's final value).
      add_cand(static_cast<uint32_t>(dff_pos_[site_gate]));
    }
  }

  // Linear sweep: dense ids are level-ordered, and an evaluation only
  // activates strictly higher ids, so one ascending pass over the
  // bitset words visits every event in level order (the inner loop
  // re-reads its word to pick up same-word activations, and the word
  // bound `whi` grows as activations land past it).
  Val64 gens[2];
  for (uint32_t wi = wlo; wi <= whi; ++wi) {
    while (uint64_t w = active[wi]) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_zero(w));
      active[wi] = w & (w - 1);
      const uint32_t node = (wi << 6) | bit;
      ++work->gate_evals;

      const ConeNode rec = nodes[node];
      const bool is_site =
          static_cast<int32_t>(node) == site_dense && inj_mask != 0;
      // Gather: inline operands for the dominant <= 2-input gates (the
      // record itself carries them), pool indirection for the rest.
      P in0{}, in1{};
      if (rec.nf <= 2) {
        in0 = vals[rec.in0];
        in1 = vals[rec.in1];  // unused for nf < 2 (in1 == 0 is safe)
        if (is_site && site_pin != kOutputPin) [[unlikely]] {
          if (site_pin == 0) {
            in0 = force(in0, inj_mask, forced_v);
          } else {
            in1 = force(in1, inj_mask, forced_v);
          }
        }
      }
      // Mask-driven evaluation classes (lowered at compile time): the
      // dominant 2-input cells evaluate branch-free, side-stepping the
      // per-event opcode mispredicts a GateType switch pays. The masks
      // sign-extend from 0x00/0xFF without a branch.
      const uint64_t mo = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int8_t>(rec.inv_out)));
      P out;
      switch (rec.cls) {
        case ConeOpClass::kAnd2: {
          const uint64_t mi = static_cast<uint64_t>(
              static_cast<int64_t>(static_cast<int8_t>(rec.inv_in)));
          out = flip(and2(flip(in0, mi), flip(in1, mi)), mo);
          break;
        }
        case ConeOpClass::kXor2:
          out = flip(xor2(in0, in1), mo);
          break;
        case ConeOpClass::kUnary:
          out = flip(in0, mo);
          break;
        default: {
          // Generic gates (rare: MUX and wide cells off the fast
          // classes) go through the two-word evaluator.
          Val64* iv = gens;
          if (rec.nf <= 2) {
            gens[0] = to_val64(in0);
            gens[1] = to_val64(in1);
          } else {
            scratch_.wide_ins.resize(rec.nf);
            iv = scratch_.wide_ins.data();
            for (uint32_t i = 0; i < rec.nf; ++i) {
              iv[i] = to_val64(vals[fp.fanin_pool[rec.in0 + i]]);
            }
            if (is_site && site_pin != kOutputPin) [[unlikely]] {
              iv[site_pin] = force(iv[site_pin], inj_mask, forced_v);
            }
          }
          out = from_val64<P>(
              eval_gate_packed(static_cast<GateType>(rec.op), {iv, rec.nf}));
          break;
        }
      }
      if (is_site && site_pin == kOutputPin) [[unlikely]] {
        out = force(out, inj_mask, forced_v);
      }
      // Write-through arena: the node holds its previous value (good if
      // untouched), so an unchanged result is exactly the interpreted
      // engine's early return.
      if (out == vals[node]) continue;
      write_val(node, out);
      const P gv = goodd[node];
      if (differs(out, gv)) spread(node);
      if (rec.po_probe) {
        *hard_po |= hard_diff(out, gv);
        *poss_po |= possible_diff(out, gv);
      }
    }
  }

  // Next-frame corrupted state: pulsed flops capture faulty D values
  // (the probe-slot candidates above); un-pulsed flops carry their
  // previous corruption forward. D values are read at end-of-frame like
  // the interpreter (a stem site can be re-evaluated mid-sweep, so a
  // value snapshotted at candidate time could be stale).
  out_state->clear();
  const auto& next_state = good_.state[cur_frame_ + 1];
  for (const StateDiff& sd : in_state) {
    if (!fp.dff_pulsed[sd.dff_pos]) out_state->push_back(sd);
  }
  for (const uint32_t pos : cand_dffs_) {
    // Only the D-pin-branch seed can name an un-pulsed flop; the feed
    // lists are pulse-filtered at compile time.
    if (!fp.dff_pulsed[pos]) continue;
    const GateId d = dff_d_[pos];
    const int32_t dn = fp.dense_of[d];
    P fd;
    if (dn >= 0) {
      fd = vals[dn];
    } else if (site_stem_off_cone && d == site_gate) {
      fd = off_cone_site;
    } else {
      fd = from_val64<P>(off_cone_value(d, in_state));
    }
    // Branch fault directly on this flop's D pin.
    if (dffs[pos] == site_gate && site_pin == 0 && inj_mask != 0) {
      fd = force(fd, inj_mask, forced_v);
    }
    if (differs(fd, from_val64<P>(next_state[pos]))) {
      out_state->push_back({pos, to_val64(fd)});
    }
  }

  // Restore the arena to the frame's good values for the next pass.
  for (const uint32_t node : touched) vals[node] = goodd[node];
  touched.clear();
}

std::pair<NcpFaultSim::ProbeMasks, NcpFaultSim::ProbeMasks>
NcpFaultSim::simulate_sites(const Fault& a, const Fault* b,
                            uint64_t live_mask, FsimWork* work) {
  const size_t frames = cur_ncp_->cycles.size();
  const GateId site = fault_net(*nl_, a);

  // One pass over the good frames computes every frame's launch lanes
  // for the fault and (when paired) its partner. Launch condition for a
  // transition fault in frame k: the fault-free machine drives the site
  // init -> final across the at-speed pulse pair (k-1, k); STR (slow-
  // to-rise) launches on 0->1, STF on 1->0 -- the two partners read the
  // same pair of good words, so both mask sets fall out of one pass.
  auto& inj_a = scratch_.inj_a;
  auto& inj_b = scratch_.inj_b;
  inj_a.assign(frames, 0);
  inj_b.assign(frames, 0);
  uint64_t union_a = 0, union_b = 0;
  if (is_transition(a.type)) {
    const bool a_is_str = !fault_value(a.type);  // STR: slow from 0
    for (size_t k = 1; k < frames; ++k) {
      if (!cur_ncp_->cycles[k].at_speed) continue;
      const Val64 prev = good_.frames[k - 1][site];
      const Val64 now = good_.frames[k][site];
      const uint64_t str = prev.is0() & now.is1() & live_mask;
      const uint64_t stf = prev.is1() & now.is0() & live_mask;
      inj_a[k] = a_is_str ? str : stf;
      inj_b[k] = a_is_str ? stf : str;
      union_a |= inj_a[k];
      union_b |= inj_b[k];
    }
  } else {
    for (size_t k = 0; k < frames; ++k) inj_a[k] = live_mask;
  }

  if (b != nullptr) {
    OCC_DCHECK(b->gate == a.gate && b->pin == a.pin);
    OCC_DCHECK(is_transition(a.type) && is_transition(b->type) &&
               a.type != b->type);
    // Pairing is exact only while the two faults' launch lanes stay
    // disjoint over the whole procedure. A lane can launch at most one
    // transition direction per at-speed pair, but a burst may toggle a
    // site back and forth across *different* pairs; those (rare) faults
    // fall back to two solo passes. A partner with no launch lanes at
    // all also goes solo: its side of the overlay would be pure waste
    // (the solo pass skips every frame at zero cost).
    if ((union_a & union_b) || union_a == 0 || union_b == 0) {
      const ProbeMasks ra = simulate_sites(a, nullptr, live_mask, work).first;
      const ProbeMasks rb =
          simulate_sites(*b, nullptr, live_mask, work).first;
      return {ra, rb};
    }
  }

  ProbeMasks ra, rb;
  bool frozen_a = false;          // fault's verdict is final (detected)
  bool frozen_b = (b == nullptr);
  uint64_t seen_a = 0, seen_b = 0;  // lanes injected so far, per fault

  scratch_.state_a.clear();
  scratch_.state_b.clear();
  std::vector<StateDiff>* cur = &scratch_.state_a;
  std::vector<StateDiff>* nxt = &scratch_.state_b;

  // The 64 lanes are independent, so observation words split exactly
  // by injected-lane ownership into the unfrozen faults' masks.
  const auto absorb = [&](uint64_t hard, uint64_t poss) {
    if (!frozen_a) {
      ra.hard |= hard & seen_a;
      ra.poss |= poss & seen_a;
    }
    if (!frozen_b) {
      rb.hard |= hard & seen_b;
      rb.poss |= poss & seen_b;
    }
  };

  // Clears a frozen fault's lanes from the carried state corruption:
  // its verdict is final, so only the live partner's lanes still need
  // propagating (keeps a pair pass within the cost of two solo passes).
  const auto purge_lanes = [this](std::vector<StateDiff>* state,
                                  uint64_t lanes) {
    const auto& gstate = good_.state[cur_frame_ + 1];
    size_t w = 0;
    for (StateDiff& sd : *state) {
      const Val64 g = gstate[sd.dff_pos];
      sd.faulty.v = (sd.faulty.v & ~lanes) | (g.v & lanes);
      sd.faulty.x = (sd.faulty.x & ~lanes) | (g.x & lanes);
      if (differs(sd.faulty, g)) (*state)[w++] = sd;
    }
    state->resize(w);
  };

  // Hoist the per-frame observability lookup: which mask row it reads
  // depends only on the fault's shape, not the frame.
  const Gate& site_gate_rec = nl_->gate(a.gate);
  const bool dpin_fault =
      site_gate_rec.type == GateType::kDff && a.pin == 0;
  const size_t dpin_pos =
      dpin_fault ? static_cast<size_t>(dff_pos_[a.gate]) : 0;

  for (size_t k = 0; k < frames; ++k) {
    cur_frame_ = k;
    // A frozen fault stops injecting: its masks are final and its lanes
    // cannot influence the partner's.
    const uint64_t ia = frozen_a ? 0 : inj_a[k];
    const uint64_t ib = (b && !frozen_b) ? inj_b[k] : 0;
    const uint64_t inj = ia | ib;
    // Fault dropping at the frame level: an injection whose site cannot
    // reach any observation point in the remaining frames is dead on
    // arrival -- with no carried state corruption either, the whole
    // frame is skipped. A fault whose site is outside every frame's
    // cone thus costs zero gate evaluations.
    const bool effective =
        inj != 0 &&
        (cur_obs_ == nullptr ||
         (dpin_fault ? cur_obs_->capture[k][dpin_pos] != 0
                     : cur_obs_->live[k][a.gate] != 0));
    if (!effective && cur->empty()) {
      // Nothing can change this frame; state diffs unchanged.
      continue;
    }
    seen_a |= ia;
    seen_b |= ib;
    // Both faults force the site to the same word: a stuck-at to its
    // stuck value, transition launches to the complement of the good
    // machine's settled value (the transition's initial value).
    const uint64_t forced_v =
        is_transition(a.type) ? ~good_.frames[k][site].v & inj
                              : (fault_value(a.type) ? inj : 0);
    uint64_t hard_po = 0, poss_po = 0;
    if (compiled_family()) {
      // Word-parallel fast path: the kernel runs on the one-word plane
      // when the whole overlay is provably X-free -- the frame's good
      // machine (full-frame flag from simulate_good) and the carried
      // faulty state. A frame that sees X (power-up state, X fills)
      // runs on the 01X plane; both produce identical results and
      // counters.
      bool xfree = mode_ == FsimMode::kWordParallel &&
                   scratch_.frame_xfree[k] != 0;
      if (xfree) {
        for (const StateDiff& sd : *cur) {
          if (sd.faulty.x != 0) {
            xfree = false;
            break;
          }
        }
      }
      if (xfree) {
        propagate_frame_compiled<uint64_t>(a.gate, a.pin, inj, forced_v,
                                           *cur, nxt, &hard_po, &poss_po,
                                           work);
      } else {
        propagate_frame_compiled<Val64>(a.gate, a.pin, inj, forced_v, *cur,
                                        nxt, &hard_po, &poss_po, work);
      }
    } else {
      propagate_frame(a.gate, a.pin, inj, forced_v, *cur, nxt, &hard_po,
                      &poss_po, work);
    }
    // A detected fault's masks freeze where a solo pass would have
    // returned.
    absorb(hard_po, poss_po);
    bool newly_frozen = false;
    if (!frozen_a && (ra.hard & live_mask)) frozen_a = newly_frozen = true;
    if (!frozen_b && (rb.hard & live_mask)) frozen_b = newly_frozen = true;
    std::swap(cur, nxt);
    if (frozen_a && frozen_b) break;
    if (newly_frozen) purge_lanes(cur, frozen_a ? seen_a : seen_b);
  }

  // Unload: scan-cell final state is fully observable (only for faults
  // that did not already detect at a PO strobe).
  if (!frozen_a || !frozen_b) {
    for (const StateDiff& sd : *cur) {
      if (scan_pos_[sd.dff_pos] < 0) continue;  // non-scan: unobservable
      const Val64 g = good_.final_state[sd.dff_pos];
      absorb(hard_diff(sd.faulty, g), possible_diff(sd.faulty, g));
    }
  }
  ra.hard &= live_mask;
  ra.poss &= live_mask;
  rb.hard &= live_mask;
  rb.poss &= live_mask;
  return {ra, rb};
}

std::pair<NcpFaultSim::ProbeMasks, NcpFaultSim::ProbeMasks>
NcpFaultSim::probe_fault_pair(const Fault& a, const Fault& b,
                              uint64_t live_mask, FsimWork* work) {
  return simulate_sites(a, &b, live_mask, work);
}

const std::vector<uint32_t>& NcpFaultSim::sim_order(const FaultList& fl) {
  const uint64_t h = fault_list_hash(fl);
  if (h != order_hash_ || fl.size() != order_size_) {
    order_ = cone_sim_order(*nl_, fl);
    partners_ = str_stf_partners(fl);
    order_hash_ = h;
    order_size_ = fl.size();
  }
  return order_;
}

const std::vector<uint32_t>& NcpFaultSim::sim_partners(
    const FaultList& fl) {
  sim_order(fl);  // shares the cache
  return partners_;
}

FsimStats merge_fault_probes(
    const std::vector<FaultProbe>& probes, const FsimWork& work,
    FaultList& fl, std::vector<std::pair<size_t, unsigned>>* detections) {
  FsimStats st;
  st.gate_evals = work.gate_evals;
  st.events_processed = work.events_processed;
  for (size_t i = 0; i < fl.size(); ++i) {
    const FaultProbe& p = probes[i];
    if (!p.simulated) continue;
    ++st.faults_simulated;
    const FaultStatus fs = fl.status(i);
    if (p.hard) {
      fl.set_status(i, FaultStatus::kDetected);
      ++st.newly_detected;
      if (detections) {
        detections->emplace_back(
            i, static_cast<unsigned>(std::countr_zero(p.hard)));
      }
    } else if (p.poss && fs == FaultStatus::kUndetected) {
      fl.set_status(i, FaultStatus::kPossiblyDetected);
      ++st.newly_possibly;
    }
  }
  return st;
}

FsimStats detect_window(const PatternSet& ps, size_t first, size_t n,
                        const Netlist& nl, const ClockingScheme& scheme,
                        std::vector<std::pair<size_t, unsigned>>* detections,
                        const BatchDetector& detect_batch) {
  OCC_CHECK(first + n <= ps.size(), "detect_faults: window out of range");
  FsimStats st;
  std::vector<std::pair<size_t, unsigned>> dets;
  size_t i = first;
  const size_t end = first + n;
  while (i < end) {
    // Maximal same-NCP run, swept 64 lanes at a time. Fault dropping
    // carries across the sweeps through the fault list itself.
    const uint32_t ncp = ps[i].ncp_index;
    size_t run_end = i + 1;
    while (run_end < end && ps[run_end].ncp_index == ncp) ++run_end;
    for (size_t b = i; b < run_end; b += 64) {
      const size_t cnt = std::min<size_t>(64, run_end - b);
      const PatternBatch batch =
          pack_batch(ps, b, cnt, nl, scheme.procedures[ncp]);
      if (detections == nullptr) {
        st += detect_batch(batch, nullptr);
        continue;
      }
      dets.clear();
      st += detect_batch(batch, &dets);
      for (const auto& [fault, slot] : dets) {
        detections->emplace_back(
            fault, static_cast<unsigned>(b - first) + slot);
      }
    }
    i = run_end;
  }
  return st;
}

FsimWork NcpFaultSim::probe_faults(const FaultList& fl,
                                   const std::vector<uint32_t>& order,
                                   const std::vector<uint32_t>& partners,
                                   size_t shard, size_t shards,
                                   uint64_t live_mask,
                                   std::vector<FaultProbe>* probes) {
  // Faults are interleaved over the shards for load balance (collapsed
  // fault lists cluster equivalent-cost faults), with an STR/STF pair
  // always co-owned via its lower index so that, in cone modes, it is
  // probed in one overlay pass. Only owned probe slots are written.
  const bool pair_mode = mode_ != FsimMode::kExhaustive;
  std::vector<FaultProbe>& pr = *probes;
  FsimWork work;
  for (const uint32_t i : order) {
    const uint32_t j = partners[i];
    if (shards > 1 &&
        (j == kNoPartner ? i : std::min(i, j)) % shards != shard) {
      continue;
    }
    FaultProbe& p = pr[i];
    if (p.simulated || !fsim_wants_simulation(fl.status(i))) continue;
    if (pair_mode && j != kNoPartner && !pr[j].simulated &&
        fsim_wants_simulation(fl.status(j))) {
      const auto [ma, mb] =
          simulate_sites(fl.fault(i), &fl.fault(j), live_mask, &work);
      p = {ma.hard, ma.poss, true};
      pr[j] = {mb.hard, mb.poss, true};
    } else {
      const ProbeMasks m =
          simulate_sites(fl.fault(i), nullptr, live_mask, &work).first;
      p = {m.hard, m.poss, true};
    }
  }
  return work;
}

FsimStats NcpFaultSim::detect_faults(
    const PatternBatch& batch, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  simulate_good(batch);
  // Probe in cone-locality order (cache warmth), merge in fault-index
  // order: the walk order is invisible in every output. Sequential
  // simulation is the one-shard case of the sharded walk.
  const std::vector<uint32_t>& order = sim_order(fl);
  probes_.assign(fl.size(), FaultProbe{});
  const FsimWork work = probe_faults(fl, order, partners_, 0, 1,
                                     live_mask(batch), &probes_);
  return merge_fault_probes(probes_, work, fl, detections);
}

FsimStats NcpFaultSim::detect_faults(
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  return detect_window(
      ps, first, n, *nl_, *scheme_, detections,
      [&](const PatternBatch& batch,
          std::vector<std::pair<size_t, unsigned>>* dets) {
        return detect_faults(batch, fl, dets);
      });
}

}  // namespace occ
