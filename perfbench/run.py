#!/usr/bin/env python3
"""The repo benchmark: builds occ_perfbench from source, runs one workload
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload basic-cpf --seed 1 --trace 0

Run from the root of a checkout. The first run configures and builds into
.bench_build/ (a CMake package of its own, perfbench/CMakeLists.txt, that
compiles the library from src/). Workloads, metrics and units are declared
in BENCHMARK.json; this script fails loudly when the driver omits a
declared metric or reports an undeclared one.

Every metric is printed on a line of its own, by name with its unit. The
last line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (the end-to-end lines
of a traced run come from its untraced sessions); a traced run also
writes a Chrome trace-event file under .bench_trace/.

    python3 perfbench/run.py --smoke --workload basic-cpf   tiny SOCs
    python3 perfbench/run.py --self-test                    checks the checks
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
DRIVER = os.path.join(BUILD_DIR, "occ_perfbench")
# Every run must end within 180 s; the first one may build for longer.
RUN_TIMEOUT_S = 170
# Layers the span file of a traced run must cover: span-name prefixes, and
# the counters recorded as span arguments for layers that have no boundary
# of their own inside the deterministic ATPG stage.
TRACE_SPAN_LAYERS = ("netlist.", "dft.", "api.", "fault.", "atpg.", "fsim.")
TRACE_ARG_LAYERS = ("sat.", "atpg.speculative_runs", "util.")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        raise BenchError("no occ sources under %s/src" % ROOT)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def run_driver(args, deadline):
    """Runs occ_perfbench; returns (human-readable lines, final JSON)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([DRIVER] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("driver did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d: %s" %
                         (proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return lines[:-1], json.loads(lines[-1])


def check_metrics(raw, declared):
    """Attaches units; raises when a declared metric is missing, an
    undeclared one appears, or a value is not a finite number."""
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in raw]
    extra = [n for n in raw if n not in names]
    if missing or extra:
        raise BenchError("metric mismatch: missing %s, undeclared %s" %
                         (missing, extra))
    out = {}
    for m in declared:
        v = raw[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError("metric %s is not a finite number: %r" %
                             (m["name"], v))
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def check_trace_file(path):
    """Raises unless the span file covers every layer of the benchmark."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events}
    args = {k for e in events for k in e["args"]}
    run_ids = {e["args"]["run_id"] for e in events}
    for layer in TRACE_SPAN_LAYERS:
        if not any(n.startswith(layer) for n in names):
            raise BenchError("trace has no %s span" % layer)
    for layer in TRACE_ARG_LAYERS:
        if not any(a.startswith(layer) for a in args):
            raise BenchError("trace has no %s counter" % layer)
    if len(run_ids) != 1:
        raise BenchError("trace spans carry %d run ids" % len(run_ids))


def run_workload(spec, workload, seed, seconds, trace, smoke=False,
                 corrupt=None):
    """One benchmark run: returns (lines, result dict, digest)."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % workload)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, "%s-seed%d%s.json" % (workload, seed,
                                             "-smoke" if smoke else ""))
        args += ["--trace-out", trace_path]
    if smoke:
        args.append("--smoke")
    if corrupt:
        args += ["--corrupt", corrupt]
    lines, raw = run_driver(args, deadline)
    end_to_end = check_metrics(raw["end_to_end"], spec["end_to_end"])
    per_layer = check_metrics(raw["per_layer"], spec["per_layer"]) \
        if trace else {}
    for title, metrics in (("end-to-end", end_to_end),
                           ("per-layer", per_layer)):
        for name, m in metrics.items():
            lines.append("%s %-30s %.6g %s" % (title, name, m["value"],
                                               m["unit"]))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": per_layer if trace else end_to_end,
    }
    if result["attempted"] < 1:
        raise BenchError("no session attempted")
    if trace_path:
        check_trace_file(trace_path)
        lines.append("trace file: %s" % os.path.relpath(trace_path, ROOT))
    return lines, result, raw["digest"]


def self_test(spec):
    """Smoke-size checks of the benchmark's own checks."""
    seed = 3
    digests = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            _, res, digest = run_workload(spec, w, seed, 0, trace, smoke=True)
            if not res["correct"] or res["failed"]:
                raise BenchError("smoke %s trace=%d failed" % (w, trace))
            digests.setdefault(w, digest)
            if digests[w] != digest:
                raise BenchError("smoke %s digest differs across runs" % w)
            print("self-test: smoke %-20s trace=%d ok" % (w, trace))

    for corrupt, what in (("drop-pattern", "a dropped pattern"),
                          ("threaded-digest",
                           "a threaded result unlike the 1-thread one")):
        _, res, _ = run_workload(spec, "basic-cpf", seed, 0, False,
                                 smoke=True, corrupt=corrupt)
        if res["correct"] or res["failed"] == 0:
            raise BenchError("%s was not caught" % what)
        print("self-test: %s caught (%d of %d sessions failed)" %
              (what, res["failed"], res["attempted"]))

    raw = {m["name"]: 1.0 for m in spec["end_to_end"]}
    del raw[spec["end_to_end"][-1]["name"]]
    try:
        check_metrics(raw, spec["end_to_end"])
    except BenchError as e:
        print("self-test: missing metric fails loudly (%s)" % e)
    else:
        raise BenchError("a missing metric went unnoticed")
    print("self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny SOCs; runs in seconds")
    ap.add_argument("--self-test", action="store_true",
                    help="check that corrupted results and missing metrics"
                         " are caught")
    a = ap.parse_args()
    try:
        spec = load_spec()
        build()
        if a.self_test:
            self_test(spec)
            return 0
        if not a.workload:
            raise BenchError("--workload is required")
        seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
        lines, result, _ = run_workload(spec, a.workload, a.seed, seconds,
                                        a.trace == 1, smoke=a.smoke)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
