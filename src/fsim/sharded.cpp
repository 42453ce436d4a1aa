#include "fsim/sharded.h"

#include <thread>

namespace occ {

size_t ShardedFaultSim::resolve_shards(size_t shards) {
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return shards;
}

ShardedFaultSim::ShardedFaultSim(
    const Netlist& nl, const ClockingScheme& scheme, GateId scan_en_pi,
    size_t shards, FsimMode mode,
    std::shared_ptr<const ConeArtifactSource> shared) {
  const size_t n = resolve_shards(shards);
  sims_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    sims_.push_back(
        std::make_unique<NcpFaultSim>(nl, scheme, scan_en_pi, mode, shared));
  }
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

FsimStats ShardedFaultSim::detect_faults(
    const PatternBatch& batch, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  if (sims_.size() == 1) {
    return sims_[0]->detect_faults(batch, fl, detections);
  }

  const size_t n = sims_.size();
  const uint64_t live = NcpFaultSim::live_mask(batch);
  probes_.assign(fl.size(), FaultProbe{});
  work_.assign(n, FsimWork{});

  // Shared cone-locality walk order and STR/STF partner map (computed
  // once, read-only for the workers; shard 0's cache is authoritative).
  const std::vector<uint32_t>& order = sims_[0]->sim_order(fl);
  const std::vector<uint32_t>& partners = sims_[0]->sim_partners(fl);

  // Fan out: every shard runs the sequential fault walk over the faults
  // it owns. Shards only read the fault list and write disjoint probe
  // slots, so the merge below reproduces the sequential detect_faults
  // result exactly.
  pool_->run([&](size_t s) {
    sims_[s]->simulate_good(batch);
    work_[s] = sims_[s]->probe_faults(fl, order, partners, s, n, live,
                                      &probes_);
  });

  FsimWork total;
  for (const FsimWork& w : work_) total += w;
  return merge_fault_probes(probes_, total, fl, detections);
}

FsimStats ShardedFaultSim::detect_faults(
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  return detect_window(
      ps, first, n, netlist(), sims_[0]->scheme(), detections,
      [&](const PatternBatch& batch,
          std::vector<std::pair<size_t, unsigned>>* dets) {
        return detect_faults(batch, fl, dets);
      });
}

}  // namespace occ
