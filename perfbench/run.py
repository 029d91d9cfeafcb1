#!/usr/bin/env python3
"""Seed-fixed benchmark of the soqm query engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload repeat_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20
    python3 perfbench/run.py --aa 5 --workload fresh_mix --seconds 20

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Lines before it, each starting with '#', are the header and the
human-readable summary.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI_EXE = os.path.join(ROOT, "_build", "default", "bin", "soqm_cli.exe")

# repeat_mix and fresh_mix run on request but are not in BENCHMARK.json: see README.md
WORKLOADS = ["repeat_mix", "fresh_mix", "serve_rw", "serve_w"]
# An untraced run splits its time over this many fresh processes, each
# asking its own stream of the sequence: the speed of a process varies
# with where its memory lands, so a run pools many of them.
PROCESSES = 16
RUN_LIMIT_S = 170  # a run must end within 180 s once built


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a soqm source tree: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/perfbench.exe", "bin/soqm_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed")


# ----------------------------------------------------------------------
# Host state over a run
# ----------------------------------------------------------------------

def host_sample():
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    steal = 0
    with open("/proc/stat") as f:
        fields = f.readline().split()
        if fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    return {"loadavg": load, "steal": steal, "time": time.time()}


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

class Deadline:
    def __init__(self, seconds):
        self.end = time.time() + seconds

    def left(self):
        left = self.end - time.time()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def last_json(text, what):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("%s printed no result" % what)


def run_bench(args, deadline):
    proc = subprocess.run([BENCH_EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise BenchError("perfbench %s exited with %d" % (args[0], proc.returncode))
    return last_json(proc.stdout, "perfbench " + args[0])


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Server:
    """`soqm serve --db DIR --sessions 2` as its own process."""

    def __init__(self, db_dir):
        self.proc = subprocess.Popen(
            [CLI_EXE, "serve", "--db", db_dir, "--sessions", "2", "--port", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", line)
        if not m:
            self.stop()
            raise BenchError("server did not start: %r" % line)
        self.port = int(m.group(1))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile."""
    a = sorted(values)
    return a[max(0, min(len(a) - 1, math.ceil(p * len(a)) - 1))]


def pool(parts, setups, rss):
    """End-to-end metrics from the raw samples of several processes."""
    reads = [x for p in parts for x in p["read_ms"]]
    writes = [x for p in parts for x in p["write_ms"]]
    spans = [x for p in parts for x in p["spans_s"]]
    res = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "processes": len(parts), "reads": len(reads), "writes": len(writes),
        "spans": len(spans), "span_ops": parts[0]["span_ops"],
        # the rate of the median span: robust to a slow stretch of the host
        "ops_per_s": parts[0]["span_ops"] / statistics.median(spans),
        "read_p50_ms": percentile(reads, 0.5), "read_p90_ms": percentile(reads, 0.9),
        "setup_s": statistics.median(setups), "setup_reps": len(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    if writes:
        res["write_p50_ms"] = percentile(writes, 0.5)
        res["write_p90_ms"] = percentile(writes, 0.9)
    return res


def trace_path(workload, seed):
    return os.path.join(WORK, "trace-%s-seed%d.jsonl" % (workload, seed))


def run_inproc(workload, seed, seconds, trace, deadline):
    args = ["inproc", "--workload", workload, "--seed", str(seed)]
    if trace:
        res = run_bench(args + ["--seconds", str(seconds),
                                "--trace-out", trace_path(workload, seed)], deadline)
        res["layers"] = {k: v for k, v in res.items() if "." in k}
        return res
    parts = [run_bench(args + ["--seconds", str(seconds / PROCESSES), "--stream", str(k)],
                       deadline)
             for k in range(PROCESSES)]
    return pool(parts, [x for p in parts for x in p["setups_s"]],
                [p["peak_rss_mb"] for p in parts])


def run_serve(workload, seed, seconds, trace, deadline):
    tmp = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    server = None
    try:
        parts, setups, rss, prepared = [], [], [], []
        ops_log = os.path.join(tmp, "ops.log")
        # traced: one live run of half the time, then the replay
        live = 1 if trace else PROCESSES
        for k in range(live):
            db_dir = os.path.join(tmp, "db%d" % k)
            os.makedirs(db_dir)
            t0 = time.time()
            prepared.append(run_bench(["prepare", "--dir", db_dir], deadline))
            server = Server(db_dir)
            setups.append(time.time() - t0)
            parts.append(run_bench(
                ["load", "--workload", workload, "--port", str(server.port),
                 "--seed", str(seed), "--stream", str(k),
                 "--seconds", str(seconds / (2 if trace else live)), "--log", ops_log],
                deadline))
            rss.append(vm_hwm_mb(server.proc.pid))
            server.stop()
            server = None
        res = pool(parts, setups, rss)
        if trace:
            pristine = os.path.join(tmp, "pristine")
            os.makedirs(pristine)
            prepared.append(run_bench(["prepare", "--dir", pristine], deadline))
            layers = run_bench(["replay", "--workload", workload, "--seed", str(seed),
                                "--dir", pristine, "--log", ops_log,
                                "--seconds", str(seconds),
                                "--trace-out", trace_path(workload, seed)], deadline)
            layers["core.db_create_ms"] = statistics.median(p["create_ms"] for p in prepared)
            layers["core.db_save_ms"] = statistics.median(p["save_ms"] for p in prepared)
            res["layers"] = layers
        return res
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(workload, seed, seconds, trace):
    deadline = Deadline(RUN_LIMIT_S)
    if workload.startswith("serve"):
        return run_serve(workload, seed, seconds, trace, deadline)
    return run_inproc(workload, seed, seconds, trace, deadline)


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------

SAMPLES = {
    "ops_per_s": lambda r: "median of %d spans of %d operations, %d processes" % (
        r["spans"], r["span_ops"], r["processes"]),
    "read_p50_ms": lambda r: "%d reads" % r["reads"],
    "read_p90_ms": lambda r: "%d reads" % r["reads"],
    "write_p50_ms": lambda r: "%d writes" % r["writes"],
    "write_p90_ms": lambda r: "%d writes" % r["writes"],
    "setup_s": lambda r: "median of %d set-ups" % r["setup_reps"],
    "peak_rss_mb": lambda r: "median of %d processes" % r["processes"],
}


def result_line(sp, res, trace):
    wanted = sp["per_layer"] if trace else sp["end_to_end"]
    source = res["layers"] if trace else res
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            if not trace:
                raise BenchError("metric %s was not measured" % m["name"])
            # a layer this workload does not exercise, e.g. the WAL in memory
            source[m["name"]] = 0.0
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    failed = int(res["failed"])
    return {"correct": failed == 0, "attempted": int(res["attempted"]),
            "failed": failed, "metrics": metrics}


def print_header(workload, seed, seconds, trace, before, after, res, sp):
    print("# soqm perfbench: workload=%s seed=%d seconds=%s trace=%d cores=%d"
          % (workload, seed, seconds, trace, cores()))
    print("# host: loadavg %s -> %s, steal ticks over the run %d, wall %.1f s"
          % ("/".join("%.2f" % x for x in before["loadavg"]),
             "/".join("%.2f" % x for x in after["loadavg"]),
             after["steal"] - before["steal"], after["time"] - before["time"]))
    print("# detail %s" % json.dumps(
        {k: v for k, v in res.items() if k != "layers" and not isinstance(v, list)}))
    attempted = max(1, int(res["attempted"]))
    print("# failed_frac %.6f (%d of %d operations)"
          % (int(res["failed"]) / attempted, int(res["failed"]), attempted))
    if trace:
        layers = res["layers"]
        print("# traced reads %s, misses %s; tracing overhead %.4f ms per read"
              % (layers.get("trace.reads"), layers.get("trace.misses"),
                 layers.get("trace.overhead_ms", 0.0)))
        for m in sp["per_layer"]:
            print("#   %-44s %14.6g %s" % (m["name"], layers[m["name"]], m["unit"]))
        return
    # the write percentiles are printed, not gated: see README.md
    units = {m["name"]: m["unit"] for m in sp["end_to_end"]}
    units.update({"write_p50_ms": "ms", "write_p90_ms": "ms"})
    for name, unit in units.items():
        if name in res:
            print("#   %-16s %12.4f %-6s (%s)" % (name, res[name], unit, SAMPLES[name](res)))


def one(workload, seed, seconds, trace, sp):
    before = host_sample()
    res = run_workload(workload, seed, seconds, trace)
    after = host_sample()
    line = result_line(sp, res, trace)
    print_header(workload, seed, seconds, trace, before, after, res, sp)
    return line


# ----------------------------------------------------------------------
# A/A mode: two interleaved sets of runs of the same code
# ----------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aa(workloads, runs, seconds, first_seed, sp):
    me = [sys.executable, os.path.abspath(__file__)]
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = first_seed + i + (runs if s == "B" else 0)
                proc = subprocess.run(
                    me + ["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
                if proc.returncode != 0:
                    raise BenchError("run %s seed %d of %s failed" % (s, seed, w))
                metrics = last_json(proc.stdout, "run")["metrics"]
                host = [l[2:] for l in proc.stdout.splitlines() if l.startswith("# host")]
                print("# %s set %s seed %d: %s; %s" % (
                    w, s, seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in metrics.items()),
                    host[0] if host else ""), flush=True)
                sets[s].append(metrics)
        print("# A/A %s: %d runs per set, seeds %d..%d (A) and %d..%d (B)"
              % (w, runs, first_seed, first_seed + runs - 1, first_seed + runs,
                 first_seed + 2 * runs - 1))
        print("# %-12s %11s %23s %11s %23s %8s %8s %8s %8s %6s"
              % ("metric", "A median", "A q1..q3", "B median", "B q1..q3",
                 "spread", "all runs", "B worse", "bound", "ok"))
        for m in sp["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name]["value"] for r in sets["A"]]
            b = [r[name]["value"] for r in sets["B"]]
            aq, bq, allq = quartiles(a), quartiles(b), quartiles(a + b)
            spread = max((aq[2] - aq[0]) / aq[1], (bq[2] - bq[0]) / bq[1])
            spread_all = (allq[2] - allq[0]) / allq[1]
            worse = (bq[1] - aq[1]) / aq[1]
            if m["better"] == "higher":
                worse = -worse
            good = abs(worse) <= bound and max(spread, spread_all) <= bound
            ok = ok and good
            print("# %-12s %11.4f %11.4f..%-11.4f %11.4f %11.4f..%-11.4f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %6s"
                  % (name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2], 100 * spread,
                     100 * spread_all, 100 * worse, 100 * bound, "yes" if good else "NO"))
    return ok


# ----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--aa", type=int, default=0, metavar="RUNS",
                    help="A/A mode: RUNS interleaved runs per set")
    opts = ap.parse_args()
    try:
        sp = spec()
        seconds = opts.seconds if opts.seconds is not None else sp["run_seconds"]
        build()
        os.makedirs(WORK, exist_ok=True)
        workloads = ([w["name"] for w in sp["workloads"]] if opts.workload == "all"
                     else [opts.workload])
        if opts.aa:
            return 0 if aa(workloads, opts.aa, seconds, opts.seed, sp) else 1
        if len(workloads) == 1:
            print(json.dumps(one(workloads[0], opts.seed, seconds, opts.trace, sp)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in workloads:
            r = one(w, opts.seed, seconds, opts.trace, sp)
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                combined["metrics"]["%s/%s" % (w, k)] = v
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
