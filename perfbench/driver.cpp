// occ_perfbench: one run of one benchmark workload, in its own process
// (peak RSS never resets, so every run needs a fresh one).
//
// A run is a closed loop with one client: sessions execute back to back,
// and the only threads are the worker shards of the warm-up pass. Each
// workload generates a set of two-domain SOCs with gen::generate_soc,
// serializes them as `.bench` text, and hands the program only that text
// (design_bench + scan insertion), so parse and scan are part of every
// session, as in `occ run --design`; --seed drives the ATPG seeds. The
// driver times calls into public functions from outside
// (Session::prepare, Session::run) and the stage begin/end events a
// Session emits to its ProgressObserver, rescales the end-to-end times by
// a host speed probe, and reads the work counters SessionResult already
// carries.
//
// Output: human-readable lines, then one JSON object on the last line
// with "correct", "attempted", "failed", "digest", "end_to_end" and, in a
// traced run, "per_layer" (raw values by name; perfbench/run.py attaches
// units from BENCHMARK.json and checks that every declared metric is
// present).
//
//   occ_perfbench --workload basic-cpf --seed 1 --seconds 10 --trace 0
//                 [--smoke] [--trace-out PATH]
//                 [--corrupt drop-pattern|threaded-digest]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_design.h"
#include "api/session.h"
#include "core/clock_scheme.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"

namespace {

using occ::FaultStatus;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---- host speed ------------------------------------------------------------

// The benchmark runs on a few cores of a shared host whose speed drifts by
// 20-40% over minutes on the same inputs (perfbench/FINDINGS.md). The
// probe is fixed work that calls no library code: dependent loads, about
// a fifth of its time from a 4 MiB table and the rest from a 256 KiB one.
// That blend slowed with the host about as much as a session did; more
// 4 MiB loads overreacted to cache pressure, and pure arithmetic hardly
// moved. The normalized time metrics rescale each timed pass by
// kReferenceProbeS over the median probe of that pass, so a library change
// moves them exactly as it moves the wall time.
constexpr double kReferenceProbeS = 0.035;  // a quiet 2.1 GHz Xeon vCPU

double host_probe_s() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(size_t{1} << 20);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<uint32_t>(splitmix(i));
    }
    return t;
  }();
  const auto t0 = Clock::now();
  uint64_t acc = 0;
  for (const auto [mask, loads] :
       {std::pair{table.size() - 1, 200000u},
        std::pair{(table.size() >> 4) - 1, 4000000u}}) {
    uint32_t x = 1;
    for (uint32_t k = 0; k < loads; ++k) {
      x = table[(x ^ k) & mask];
      acc += x % 7 == 3 ? x >> 3 : x & 0xff;
    }
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

// ---- workloads -------------------------------------------------------------

// Paper Table 1 experiments (c) and (d). The SOC sizes are chosen so one
// session takes 0.1-4 s on one core and a pass over all designs about
// 10 s; every run aggregates several designs so that the effect of the
// ATPG seed on any one of them averages out (see perfbench/FINDINGS.md).
struct Workload {
  std::string name;
  bool enhanced = false;  // scheme (d) instead of (c)
  size_t designs = 0;     // generated SOCs per run
  size_t chains = 0;
  occ::gen::SocParams soc;
};

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "basic-cpf") {
    w.designs = 6;
    w.chains = 4;
    w.soc.flops = 40;
    w.soc.gates = 400;
    w.soc.pis = 16;
    w.soc.pos = 16;
  } else if (name == "enhanced-cpf") {
    w.enhanced = true;
    w.designs = 12;
    w.chains = 2;
    w.soc.flops = 10;
    w.soc.gates = 55;
    w.soc.pis = 8;
    w.soc.pos = 8;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  if (smoke) {
    w.designs = 2;
    w.chains = 2;
    w.soc.flops = w.enhanced ? 8 : 12;
    w.soc.gates = w.enhanced ? 30 : 60;
    w.soc.pis = 6;
    w.soc.pos = 6;
  }
  return w;
}

constexpr uint64_t kCorpusSeed = 1000;

struct Design {
  std::string name;
  std::string bench_text;
  uint64_t atpg_seed = 0;
};

// The SOCs of a workload come from a pinned corpus of generator seeds;
// --seed drives each session's ATPG seed (random fill, and with it which
// faults fall out by fault simulation and which reach PODEM and the SAT
// probes). Generating the SOCs themselves from --seed makes the wall time
// of a run depend on how many hard-to-abort faults the draw happens to
// contain: 2.5-7.0 s per 900-gate SOC across generator seeds, far beyond
// any bound a regression check could use (perfbench/FINDINGS.md).
std::vector<Design> generate_designs(const Workload& w, uint64_t seed) {
  std::vector<Design> out;
  for (size_t i = 0; i < w.designs; ++i) {
    occ::gen::SocParams p = w.soc;
    p.seed = kCorpusSeed + i;
    std::ostringstream os;
    occ::write_bench(occ::gen::generate_soc(p), os);
    out.push_back({"soc" + std::to_string(i), os.str(),
                   splitmix(seed * 0x100 + i)});
  }
  return out;
}

// ---- spans -----------------------------------------------------------------

// In-memory span recorder: one span per layer call and per stage event,
// with its parent and the run id, written at exit as Chrome trace-event
// JSON (opens in Perfetto / chrome://tracing).
struct Span {
  std::string name;
  double t0 = 0, t1 = 0;  // seconds since the recorder's epoch
  int parent = -1;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(uint64_t run_id) : run_id_(run_id), epoch_(Clock::now()) {}

  int begin(const std::string& name) {
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end() {
    spans_[stack_.back()].t1 = now();
    stack_.pop_back();
  }
  void arg(int span, const std::string& key, double v) {
    spans_[span].args.emplace_back(key, v);
  }
  const std::vector<Span>& spans() const { return spans_; }
  size_t depth() const { return stack_.size(); }
  /// Ends open spans down to `depth` (after a session threw mid-span).
  void close_to(size_t depth) {
    while (stack_.size() > depth) end();
  }

  /// Stage events of one Session, mapped to layer-named spans.
  occ::ProgressObserver observer() {
    return [this](const occ::ProgressEvent& ev) {
      if (ev.kind == occ::ProgressEvent::Kind::kStageBegin) {
        begin(layer_of(ev.stage));
      } else if (ev.kind == occ::ProgressEvent::Kind::kStageEnd) {
        end();
      }
    };
  }

  /// Self time per span name: duration minus the children's durations
  /// (children of one span never overlap: stage events come from the
  /// session's calling thread).
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    return out;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"span\":%zu,\"parent\":%d,"
                    "\"run_id\":\"%016llx\"",
                    s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent,
                    static_cast<unsigned long long>(run_id_));
      os << buf;
      for (const auto& [k, v] : s.args) os << ",\"" << k << "\":" << v;
      os << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    if (!os.flush()) throw std::runtime_error("write failed: " + path);
  }

  static std::string layer_of(const std::string& stage) {
    static const std::map<std::string, std::string> kMap = {
        {"build", "netlist.parse"},   {"scan", "dft.scan"},
        {"compile", "api.compile"},   {"faults", "fault.list"},
        {"source:random", "atpg.random"}, {"source:podem", "atpg.det"},
        {"compact", "fsim.compact"},  {"cost", "dft.cost"}};
    const auto it = kMap.find(stage);
    return it != kMap.end() ? it->second : "api." + stage;
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  uint64_t run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- one session -----------------------------------------------------------

struct SessionOut {
  occ::SessionResult res;
  double prepare_s = 0.0;  // cold Session::prepare() (parse, scan, compile)
  double run_s = 0.0;      // Session::run() after prepare
  double compiled_mb = 0.0;
  uint64_t digest = 0;
};

// FNV-1a over the final patterns and every fault's final status.
uint64_t result_digest(const occ::SessionResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.atpg.patterns.size());
  for (const occ::TestPattern& p : r.atpg.patterns) {
    mix(p.ncp_index);
    for (const auto& frame : p.pi_frames) {
      for (const occ::V3 v : frame) mix(static_cast<uint64_t>(v));
    }
    for (const occ::V3 v : p.load) mix(static_cast<uint64_t>(v));
  }
  mix(r.atpg.faults.size());
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    mix(static_cast<uint64_t>(r.atpg.faults.status(i)));
  }
  return h;
}

// The session `occ run --design` would run: .bench text in, scan
// insertion, a cold DesignCache, the default engine.
occ::SessionConfig session_config(const Design& d, const Workload& w,
                                  size_t shards) {
  occ::SessionConfig cfg;
  std::istringstream is(d.bench_text);
  occ::EngineOptions engine;
  engine.fsim.shards = shards;
  cfg.design_bench(is, d.name)
      .design_cache(std::make_shared<occ::DesignCache>())
      .scan({.num_chains = w.chains})
      .scheme(w.enhanced ? occ::scheme_cpf_enhanced(2, 4)
                         : occ::scheme_cpf_basic(2))
      .on_chip_clocking(true)
      .seed(d.atpg_seed)
      .engine(engine);
  return cfg;
}

// One cold Session::prepare() (parse, scan insertion, frozen per-NCP
// artifacts) with a fresh DesignCache.
double setup_seconds(const Design& d, const Workload& w) {
  occ::Session session(session_config(d, w, 1));
  const auto t0 = Clock::now();
  session.prepare();
  return seconds_between(t0, Clock::now());
}

SessionOut run_session(const Design& d, const Workload& w, size_t shards,
                       Tracer* tr) {
  occ::SessionConfig cfg = session_config(d, w, shards);
  if (tr) cfg.observer(tr->observer());

  SessionOut out;
  occ::Session session(std::move(cfg));
  const int root = tr ? tr->begin("api.session") : -1;
  if (tr) tr->begin("api.prepare");
  const auto t0 = Clock::now();
  const auto cd = session.prepare();
  const auto t1 = Clock::now();
  if (tr) {
    tr->end();
    tr->begin("api.run");
  }
  out.res = session.run();
  const auto t2 = Clock::now();
  out.prepare_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.compiled_mb = static_cast<double>(cd->approx_bytes()) / 1e6;
  out.digest = result_digest(out.res);
  if (tr) {
    tr->end();
    const occ::AtpgRunResult& a = out.res.atpg;
    // Layers without their own boundary inside source:podem (sat) are
    // recorded as counters on the session span.
    tr->arg(root, "fault.count", static_cast<double>(a.faults.size()));
    tr->arg(root, "atpg.podem.runs", static_cast<double>(a.podem.runs));
    tr->arg(root, "atpg.escalations", static_cast<double>(a.escalations));
    tr->arg(root, "sat.solves", static_cast<double>(a.sat.solves));
    tr->arg(root, "sat.conflicts", static_cast<double>(a.sat.conflicts));
    tr->arg(root, "sat.decisions", static_cast<double>(a.sat.decisions));
    tr->arg(root, "fsim.gate_evals", static_cast<double>(a.fsim.gate_evals));
    tr->end();
  }
  return out;
}

// ---- output check ----------------------------------------------------------

struct Grade {
  size_t lost = 0;     // session-detected faults the oracle does not detect
  size_t unsound = 0;  // oracle-detected faults marked (proven-)untestable
};

// Re-grades the final pattern set on a fresh fault list through the
// exhaustive reference fault simulator.
Grade regrade(const occ::SessionResult& r, const occ::PatternSet& patterns) {
  const occ::Netlist& nl = *r.netlist;
  occ::FaultList fl = occ::FaultList::build(nl, r.scheme.model);
  occ::ShardedFaultSim oracle(nl, r.scheme, r.scan_en, 1,
                              occ::FsimMode::kExhaustive);
  if (!patterns.empty()) oracle.detect_faults(patterns, 0, patterns.size(), fl);
  Grade g;
  const occ::FaultList& got = r.atpg.faults;
  if (got.size() != fl.size()) {
    g.lost = got.size();
    return g;
  }
  for (size_t i = 0; i < fl.size(); ++i) {
    const bool oracle_det = fl.status(i) == FaultStatus::kDetected;
    if (got.status(i) == FaultStatus::kDetected && !oracle_det) ++g.lost;
    if (oracle_det && (got.status(i) == FaultStatus::kUntestable ||
                       got.status(i) == FaultStatus::kProvenUntestable)) {
      ++g.unsound;
    }
  }
  return g;
}

// ---- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string corrupt;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--corrupt") a.corrupt = val();
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!a.corrupt.empty() && a.corrupt != "drop-pattern" &&
      a.corrupt != "threaded-digest") {
    throw std::runtime_error("unknown --corrupt mode " + a.corrupt);
  }
  return a;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Per-design samples of the timed sessions.
struct DesignRuns {
  std::vector<double> run_s, wall_s;
  std::vector<size_t> pass;  // the timed pass of each run_s/wall_s sample
  std::vector<std::map<std::string, double>> stage_s;  // traced only
  std::vector<double> traced_wall_s;
  std::unique_ptr<SessionOut> first;     // first result (tracing changes none)
  std::unique_ptr<SessionOut> threaded;  // the warm-up session
};

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.smoke);
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  const std::vector<Design> designs = generate_designs(w, a.seed);
  Tracer tracer(splitmix(a.seed ^ 0x7ace));

  size_t attempted = 0, failed = 0;
  std::vector<DesignRuns> runs(designs.size());
  std::vector<std::string> errors;

  // setup_s: per design, the median of kSetupRepeats cold prepares taken
  // round-robin over the designs after one unmeasured warm-up round (the
  // first allocations of a fresh process are not what a prepare costs).
  // Each round is rescaled by a host probe taken just before it.
  constexpr size_t kSetupRepeats = 25;
  std::vector<std::vector<double>> setup_samples(designs.size()),
      raw_setup_samples(designs.size());
  try {
    for (size_t r = 0; r <= kSetupRepeats; ++r) {
      const double scale = kReferenceProbeS / host_probe_s();
      for (size_t i = 0; i < designs.size(); ++i) {
        const double t = setup_seconds(designs[i], w);
        if (r == 0) continue;
        setup_samples[i].push_back(t * scale);
        raw_setup_samples[i].push_back(t);
      }
    }
  } catch (const std::exception& e) {
    ++attempted;
    ++failed;
    errors.push_back(std::string("setup: ") + e.what());
  }
  std::vector<double> setup, raw_setup;
  for (size_t i = 0; i < designs.size(); ++i) {
    setup.push_back(median(setup_samples[i]));
    raw_setup.push_back(median(raw_setup_samples[i]));
  }

  // The untimed warm-up pass runs every design once on `threads` fsim and
  // PODEM shards: it fills the allocator and caches before timing, and it
  // is the run's only use of atpg/parallel speculation, fsim/sharded and
  // util/thread_pool. Its result must equal the single-thread result bit
  // for bit (the shard-count determinism contract, checked below). Timing
  // threads on a few shared cores would measure the scheduler, so every
  // timed session runs on one thread.
  const auto t_start = Clock::now();
  for (size_t i = 0; i < designs.size(); ++i) {
    ++attempted;
    const size_t depth = tracer.depth();
    try {
      const int span = a.trace ? tracer.begin("atpg.parallel") : -1;
      auto s = std::make_unique<SessionOut>(
          run_session(designs[i], w, threads, nullptr));
      if (a.trace) {
        tracer.arg(span, "atpg.speculative_runs",
                   static_cast<double>(s->res.atpg.speculative_runs));
        tracer.arg(span, "atpg.discarded_cubes",
                   static_cast<double>(s->res.atpg.discarded_cubes));
        tracer.arg(span, "util.shards", static_cast<double>(threads));
        tracer.end();
      }
      if (a.corrupt == "threaded-digest") s->digest ^= 1;
      runs[i].threaded = std::move(s);
    } catch (const std::exception& e) {
      tracer.close_to(depth);
      ++failed;
      errors.push_back(designs[i].name + " (" + std::to_string(threads) +
                       " threads): " + e.what());
    }
  }

  // One timed pass runs every design once. Passes repeat while the next
  // one still fits in --seconds (which the warm-up counts against), two
  // at least, so every digest is checked across a repeat. A traced run
  // traces every other session, alternating per design and per pass, so
  // the tracing overhead compares the same inputs. The host probe runs
  // before every timed session.
  const size_t min_passes = 2;
  std::vector<double> probes, pass_scale;
  auto pass_start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    const size_t pass_probes = probes.size();
    for (size_t i = 0; i < designs.size(); ++i) {
      const bool traced = a.trace && (pass + i) % 2 == 1;
      probes.push_back(host_probe_s());
      ++attempted;
      const size_t depth = tracer.depth();
      try {
        const size_t span_begin = tracer.spans().size();
        SessionOut s =
            run_session(designs[i], w, 1, traced ? &tracer : nullptr);
        DesignRuns& dr = runs[i];
        if (dr.first && s.digest != dr.first->digest) {
          ++failed;
          errors.push_back(designs[i].name + ": digest changed on repeat");
          continue;
        }
        if (traced) {
          std::map<std::string, double> st;
          for (size_t k = span_begin; k < tracer.spans().size(); ++k) {
            const Span& sp = tracer.spans()[k];
            st[sp.name] += sp.t1 - sp.t0;
          }
          dr.stage_s.push_back(std::move(st));
          dr.traced_wall_s.push_back(s.prepare_s + s.run_s);
        } else {
          dr.run_s.push_back(s.run_s);
          dr.wall_s.push_back(s.prepare_s + s.run_s);
          dr.pass.push_back(pass);
        }
        if (!dr.first) dr.first = std::make_unique<SessionOut>(std::move(s));
      } catch (const std::exception& e) {
        tracer.close_to(depth);
        ++failed;
        errors.push_back(designs[i].name + ": " + e.what());
      }
    }
    pass_scale.push_back(
        kReferenceProbeS /
        median({probes.begin() + static_cast<std::ptrdiff_t>(pass_probes),
                probes.end()}));
    const auto now = Clock::now();
    const double last = seconds_between(pass_start, now);
    pass_start = now;
    if (pass + 1 >= min_passes &&
        seconds_between(t_start, now) + last > a.seconds) {
      break;
    }
  }

  // ---- checks outside the timed region ----------------------------------
  size_t unsound = 0;
  for (size_t i = 0; i < designs.size(); ++i) {
    DesignRuns& dr = runs[i];
    if (!dr.first) continue;
    const size_t sessions =
        dr.wall_s.size() + dr.traced_wall_s.size() + (dr.threaded ? 1 : 0);
    occ::PatternSet graded = dr.first->res.atpg.patterns;
    if (a.corrupt == "drop-pattern" && !graded.empty()) {
      occ::PatternSet dropped(graded.scheme_name());
      for (size_t p = 1; p < graded.size(); ++p) dropped.add(graded[p]);
      graded = std::move(dropped);
    }
    const Grade g = regrade(dr.first->res, graded);
    unsound += g.unsound;
    if (g.lost > 0) {
      failed += sessions;
      errors.push_back(designs[i].name + ": " + std::to_string(g.lost) +
                       " reported detections not reproduced by the"
                       " exhaustive re-grade");
      dr.first.reset();
      continue;
    }
    if (dr.threaded && dr.threaded->digest != dr.first->digest) {
      failed += sessions;
      errors.push_back(designs[i].name + ": result on " +
                       std::to_string(threads) +
                       " threads differs from 1 thread");
      dr.first.reset();
    }
  }

  // ---- metrics -----------------------------------------------------------
  uint64_t digest = 0xcbf29ce484222325ull;
  size_t ok_designs = 0;
  double wall = 0, raw_wall = 0, setup_sum = 0, raw_setup_sum = 0,
         run_sum = 0, raw_run_sum = 0, faults = 0, detected = 0, testable = 0,
         resolved = 0, aborted = 0, patterns = 0, cycles = 0;
  occ::Podem::Stats podem;
  occ::SatStats sat;
  double escalations = 0, wins = 0, spec = 0, discarded = 0,
         spec_base = 0, parallel_wall = 0, det_patterns = 0, gate_evals = 0,
         events = 0, pre_compact = 0, compiled_mb = 0;
  for (size_t i = 0; i < designs.size(); ++i) {
    const DesignRuns& dr = runs[i];
    if (!dr.first) continue;
    ++ok_designs;
    const occ::SessionResult& r = dr.first->res;
    const occ::FaultList& fl = r.atpg.faults;
    digest = splitmix(digest ^ dr.first->digest);
    std::vector<double> norm_wall, norm_run;
    for (size_t k = 0; k < dr.wall_s.size(); ++k) {
      norm_wall.push_back(dr.wall_s[k] * pass_scale[dr.pass[k]]);
      norm_run.push_back(dr.run_s[k] * pass_scale[dr.pass[k]]);
    }
    wall += median(norm_wall);
    raw_wall += median(dr.wall_s);
    setup_sum += setup[i];
    raw_setup_sum += raw_setup[i];
    run_sum += median(norm_run);
    raw_run_sum += median(dr.run_s);
    faults += static_cast<double>(fl.size());
    detected += static_cast<double>(fl.count(FaultStatus::kDetected));
    testable += static_cast<double>(fl.size() -
                                    fl.count(FaultStatus::kUntestable) -
                                    fl.count(FaultStatus::kProvenUntestable));
    aborted += static_cast<double>(fl.count(FaultStatus::kAborted));
    resolved += static_cast<double>(fl.count(FaultStatus::kDetected) +
                                    fl.count(FaultStatus::kUntestable) +
                                    fl.count(FaultStatus::kProvenUntestable));
    patterns += static_cast<double>(r.pattern_count());
    cycles += static_cast<double>(r.tester_cycles);
    podem += r.atpg.podem;
    sat.solves += r.atpg.sat.solves;
    sat.conflicts += r.atpg.sat.conflicts;
    sat.decisions += r.atpg.sat.decisions;
    sat.propagations += r.atpg.sat.propagations;
    sat.learned_kept += r.atpg.sat.learned_kept;
    sat.learned_reused += r.atpg.sat.learned_reused;
    escalations += static_cast<double>(r.atpg.escalations);
    wins += static_cast<double>(r.atpg.sat_probe_wins);
    if (dr.threaded) {
      const occ::AtpgRunResult& t = dr.threaded->res.atpg;
      spec += static_cast<double>(t.speculative_runs);
      discarded += static_cast<double>(t.discarded_cubes);
      spec_base += static_cast<double>(t.podem.runs);
      parallel_wall += dr.threaded->prepare_s + dr.threaded->run_s;
    }
    det_patterns += static_cast<double>(r.atpg.deterministic_patterns);
    pre_compact += static_cast<double>(r.atpg.random_patterns +
                                       r.atpg.deterministic_patterns +
                                       r.atpg.external_patterns);
    gate_evals += static_cast<double>(r.atpg.fsim.gate_evals);
    events += static_cast<double>(r.atpg.fsim.events_processed);
    compiled_mb += dr.first->compiled_mb;
    std::cout << "design " << designs[i].name << ": nodes=" << r.netlist->size()
              << " faults=" << fl.size() << " patterns=" << r.pattern_count()
              << " FC=" << fl.fault_coverage() * 100 << "% aborted="
              << fl.count(FaultStatus::kAborted) << " sessions="
              << dr.wall_s.size() + dr.traced_wall_s.size()
              << " wall_med=" << median(dr.wall_s) << "s digest=" << std::hex
              << dr.first->digest << std::dec << "\n";
  }
  const double n = static_cast<double>(std::max<size_t>(ok_designs, 1));
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  // End-to-end metrics come from the untraced sessions only.
  const Metrics end_to_end = {
      {"norm_wall_s", wall / n},
      {"setup_s", setup_sum / n},
      {"norm_faults_per_s", ratio(faults, run_sum)},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"fault_coverage_pct", 100.0 * ratio(detected, faults)},
      {"test_coverage_pct", 100.0 * ratio(detected, testable)},
      {"patterns", patterns / n},
      {"tester_cycles", cycles / n},
      {"atpg_effectiveness_pct", 100.0 * ratio(resolved, faults)}};
  Metrics per_layer;
  if (a.trace) {
    // Per-layer times: mean over designs of the per-design median of the
    // traced sessions' span durations.
    const auto layer = [&](const std::string& name) {
      double sum = 0;
      for (const DesignRuns& dr : runs) {
        if (!dr.first) continue;
        std::vector<double> v;
        for (const auto& st : dr.stage_s) {
          const auto it = st.find(name);
          v.push_back(it == st.end() ? 0.0 : it->second);
        }
        sum += median(v);
      }
      return sum / n;
    };
    double traced = 0, untraced = 0;
    for (const DesignRuns& dr : runs) {
      if (!dr.first) continue;
      traced += median(dr.traced_wall_s);
      untraced += median(dr.wall_s);
    }
    size_t traced_sessions = 0;
    for (const DesignRuns& dr : runs) traced_sessions += dr.stage_s.size();
    const double per_session =
        1.0 / static_cast<double>(std::max<size_t>(traced_sessions, 1));
    const std::map<std::string, double> self = tracer.self_times();
    const auto self_of = [&](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second * per_session;
    };
    std::cout << "self time per span (mean per session, s):\n";
    for (const auto& [name, total] : self) {
      std::cout << "  " << name << " " << total * per_session << "\n";
    }
    per_layer = {
        {"netlist.parse_s", layer("netlist.parse")},
        {"dft.scan_s", layer("dft.scan")},
        {"api.compile_s", layer("api.compile")},
        {"api.compiled_mb", compiled_mb / n},
        {"api.prepare_self_s", self_of("api.prepare")},
        {"api.run_self_s", self_of("api.run")},
        {"fault.list_s", layer("fault.list")},
        {"fault.count", faults},
        {"atpg.det_s", layer("atpg.det")},
        {"atpg.podem.runs", static_cast<double>(podem.runs)},
        {"atpg.podem.decisions", static_cast<double>(podem.decisions)},
        {"atpg.podem.backtracks", static_cast<double>(podem.backtracks)},
        {"atpg.podem.implication_hits",
         static_cast<double>(podem.implication_hits)},
        {"atpg.podem.dominator_prunes",
         static_cast<double>(podem.dominator_prunes)},
        {"atpg.cube_cache_hit_ratio",
         ratio(static_cast<double>(podem.cache_hits),
               static_cast<double>(podem.cache_tries))},
        {"atpg.det_patterns", det_patterns},
        {"atpg.aborted_pct", 100.0 * ratio(aborted, faults)},
        {"atpg.escalations", escalations},
        {"atpg.probe_win_ratio", ratio(wins, escalations)},
        {"atpg.unsound_untestable", static_cast<double>(unsound)},
        {"sat.solves", static_cast<double>(sat.solves)},
        {"sat.conflicts", static_cast<double>(sat.conflicts)},
        {"sat.decisions", static_cast<double>(sat.decisions)},
        {"sat.propagations", static_cast<double>(sat.propagations)},
        {"sat.learned_kept", static_cast<double>(sat.learned_kept)},
        {"sat.learned_reused", static_cast<double>(sat.learned_reused)},
        {"sat.decisions_per_solve",
         ratio(static_cast<double>(sat.decisions),
               static_cast<double>(sat.solves))},
        {"sat.conflicts_per_solve",
         ratio(static_cast<double>(sat.conflicts),
               static_cast<double>(sat.solves))},
        {"atpg.speculative_runs", spec},
        {"atpg.discarded_cubes", discarded},
        {"atpg.speculation_waste_ratio", ratio(spec, spec_base)},
        {"atpg.parallel_wall_s", parallel_wall / n},
        {"fsim.gate_evals", gate_evals},
        {"fsim.events_processed", events},
        {"fsim.compact_s", layer("fsim.compact")},
        {"fsim.compact_keep_ratio", ratio(patterns, pre_compact)},
        {"dft.cost_s", layer("dft.cost")},
        {"host.probe_s", median(probes)},
        {"host.wall_s", raw_wall / n},
        {"host.setup_s", raw_setup_sum / n},
        {"trace.overhead_s", (traced - untraced) / n}};
    if (!a.trace_out.empty()) {
      tracer.write_chrome_json(a.trace_out);
      std::cout << "trace: " << tracer.spans().size() << " spans -> "
                << a.trace_out << "\n";
    }
  }

  for (const std::string& e : errors) std::cout << "FAILED " << e << "\n";
  std::cout << "host: probe_med=" << median(probes)
            << "s raw wall_s=" << raw_wall / n
            << " raw faults_per_s=" << ratio(faults, raw_run_sum)
            << " raw setup_s=" << raw_setup_sum / n
            << " norm_wall_s=" << wall / n << "\n";
  std::cout << "sessions: attempted=" << attempted << " failed=" << failed
            << " failed_sessions_pct="
            << 100.0 * static_cast<double>(failed) /
                   static_cast<double>(std::max<size_t>(attempted, 1))
            << " threads=" << threads << "\n";
  std::cout << "digest " << a.workload << " seed=" << a.seed << " "
            << std::hex << digest << std::dec << "\n";

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"digest\": \"" << std::hex << digest << std::dec
     << "\", \"threads\": " << threads;
  for (const auto& [key, metrics] :
       {std::pair{"end_to_end", &end_to_end}, {"per_layer", &per_layer}}) {
    js << ", \"" << key << "\": {";
    for (size_t i = 0; i < metrics->size(); ++i) {
      js << (i ? ", " : "") << "\"" << (*metrics)[i].first
         << "\": " << (*metrics)[i].second;
    }
    js << "}";
  }
  js << "}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "occ_perfbench: " << e.what() << "\n";
    return 2;
  }
}
