// Report rendering: Table-1 style tables with paper reference values,
// plus the occ-bench-v1 meta blocks the drivers share.
#pragma once

#include <string>
#include <vector>

#include "api/compiled_design.h"
#include "flow/experiment.h"
#include "util/json.h"

namespace occ {
namespace flow {

/// Reference values reconstructed from the paper's prose (the scanned
/// table is illegible in the source; section 5.2 states every delta):
///   TC(a)=98.7; TC(b)=TC(a)-3.7; TC(c)<TC(b)-7; TC(d)=TC(c)+0.6;
///   TC(e)=TC(b)-6.6; P(b)~4.8x P(a); P(c),P(d)~2x P(b); P(e)~0.85 P(d).
struct PaperReference {
  double tc = 0;        // percent
  double patterns = 0;  // relative to stuck-at count
};
PaperReference paper_reference(char experiment_id);

/// Renders the measured Table 1 next to the paper's reference values
/// (fixed-width text table).
std::string render_table1(const Table1Result& r);

/// Renders the shape-check list.
std::string render_checks(const Table1Result& r);

/// Renders a markdown section for EXPERIMENTS.md.
std::string render_markdown(const Table1Result& r);

/// Adds one run's per-stage fault dispositions to an occ-bench-v1 meta
/// object, in run order, as `<prefix>stage.<name>.{detected,
/// possibly_detected, untestable, proven_untestable, aborted,
/// undetected}` (the proven_untestable column leaves the test-coverage
/// denominator). Shared by `occ run --json` and `bench_table1 --json`.
void set_stage_dispositions(Json& meta, const std::string& prefix,
                            const std::vector<StageDisposition>& stages);

/// Adds the design-cache counters to an occ-bench-v1 meta object as
/// `cache.{hits, misses, evictions, resident_bytes}`. Shared by
/// `occ run --json` and `bench_table1 --json`.
void set_cache_stats(Json& meta, const DesignCache::Stats& stats);

}  // namespace flow
}  // namespace occ
