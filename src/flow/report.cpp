#include "flow/report.h"

#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace occ {
namespace flow {

PaperReference paper_reference(char id) {
  switch (id) {
    case 'a': return {98.7, 1.0};
    case 'b': return {95.0, 4.8};
    case 'c': return {87.9, 10.5};
    case 'd': return {88.5, 10.0};
    case 'e': return {88.4, 8.4};
  }
  OCC_CHECK(false, "unknown experiment id");
}

namespace {

/// Stuck-at pattern count used as the denominator of the relative
/// pattern columns; 0 when experiment (a) is absent (partial run).
double stuck_at_baseline(const Table1Result& r) {
  const ExperimentRow* a = r.find_row('a');
  return a ? static_cast<double>(a->result.pattern_count()) : 0.0;
}

std::string rel_or_na(double patterns, double baseline) {
  if (baseline <= 0.0) return "n/a";
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << patterns / baseline;
  return os.str();
}

}  // namespace

std::string render_table1(const Table1Result& r) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  const double pa = stuck_at_baseline(r);

  os << "Table 1: test coverage and pattern count per experiment\n";
  os << "(paper values reconstructed from section 5.2 prose; pattern\n";
  os << " columns are relative to the stuck-at count)\n\n";
  os << std::left << std::setw(5) << "exp" << std::setw(44) << "setup"
     << std::right << std::setw(9) << "TC%" << std::setw(10) << "paperTC%"
     << std::setw(10) << "patterns" << std::setw(8) << "rel" << std::setw(10)
     << "paperRel" << std::setw(12) << "ATEcycles" << "\n";
  os << std::string(108, '-') << "\n";
  for (const auto& row : r.rows) {
    OCC_CHECK(row.id.size() >= 2, "malformed experiment id '", row.id,
              "'");
    const PaperReference ref = paper_reference(row.id[1]);
    os << std::left << std::setw(5) << row.id << std::setw(44) << row.desc
       << std::right << std::setw(9) << row.result.fault_coverage() * 100.0
       << std::setw(10) << ref.tc << std::setw(10)
       << row.result.pattern_count() << std::setw(8)
       << rel_or_na(static_cast<double>(row.result.pattern_count()), pa)
       << std::setw(10) << ref.patterns << std::setw(12)
       << row.tester_cycles << "\n";
  }
  return os.str();
}

std::string render_checks(const Table1Result& r) {
  std::ostringstream os;
  os << "Shape checks (paper section 5.2 claims):\n";
  for (const auto& c : r.checks) {
    os << "  [" << (c.pass ? "PASS" : "FAIL") << "] " << c.name << " -- "
       << c.detail << "\n";
  }
  os << (r.all_shapes_hold() ? "All shape checks hold.\n"
                             : "SOME SHAPE CHECKS FAILED.\n");
  return os.str();
}

std::string render_markdown(const Table1Result& r) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  const double pa = stuck_at_baseline(r);
  os << "| exp | setup | TC% (ours) | TC% (paper) | patterns | rel "
        "(ours) | rel (paper) |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& row : r.rows) {
    OCC_CHECK(row.id.size() >= 2, "malformed experiment id '", row.id,
              "'");
    const PaperReference ref = paper_reference(row.id[1]);
    os << "| " << row.id << " | " << row.desc << " | "
       << row.result.fault_coverage() * 100.0 << " | " << ref.tc << " | "
       << row.result.pattern_count() << " | "
       << rel_or_na(static_cast<double>(row.result.pattern_count()), pa)
       << "x | " << ref.patterns << "x |\n";
  }
  os << "\nShape checks:\n\n";
  for (const auto& c : r.checks) {
    os << "- " << (c.pass ? "**PASS**" : "**FAIL**") << " " << c.name
       << " (" << c.detail << ")\n";
  }
  return os.str();
}

void set_stage_dispositions(Json& meta, const std::string& prefix,
                            const std::vector<StageDisposition>& stages) {
  for (const StageDisposition& d : stages) {
    const std::string p = prefix + "stage." + d.stage + ".";
    meta.set(p + "detected", d.detected);
    meta.set(p + "possibly_detected", d.possibly_detected);
    meta.set(p + "untestable", d.untestable);
    meta.set(p + "proven_untestable", d.proven_untestable);
    meta.set(p + "aborted", d.aborted);
    meta.set(p + "undetected", d.undetected);
  }
}

void set_cache_stats(Json& meta, const DesignCache::Stats& stats) {
  meta.set("cache.hits", stats.hits);
  meta.set("cache.misses", stats.misses);
  meta.set("cache.evictions", stats.evictions);
  meta.set("cache.resident_bytes", stats.resident_bytes);
}

}  // namespace flow
}  // namespace occ
