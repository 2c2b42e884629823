"""rtesim benchmark: CLI studies timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; rtesim is imported from ``src``.
The workloads, their run documents and the predictions of which layer
moves which end-to-end metric are in ``workloads.json``.

``--trace 0`` runs the workload's CLI invocations (``rtesim.cli.main`` in a
fresh interpreter, ``--threads`` = nproc, ``--no-timestamp``) again and
again, each repetition on the same inputs, for as many repetitions as fit
in S seconds, and reports medians over repetitions of

  wall_s       spawn to exit of the workload's invocations
  cpu_s        user + system CPU of those processes and their pool workers
  setup_s      fresh interpreter to first replication, per invocation
  peak_rss_mb  largest peak RSS of any process of a repetition

``--trace 1`` runs the workload once untraced at nproc and at one thread,
once traced at one thread (``tracer.py``), and once as a pool probe, and
reports the per-layer metrics computed from the written spans.

Every invocation's outputs are checked against the digests in
``golden.json`` and against the first repetition byte for byte; an
invocation that exits non-zero or fails a check counts as failed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run record (host, versions, source hash,
calibration-loop timings, raw samples) is written under
``.perfbench_work/records``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from datetime import datetime, timezone

import numpy

import outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
STARTED = time.monotonic()
DEADLINE_S = 170  # a run must end within 180 s; a hung child is killed
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def variant_labels(spec):
    """Solver variant labels (theta and rule, as rtesim writes them) in use."""
    labels = set()
    for w in spec["workloads"].values():
        for entry in w["document"].get("solver", []):
            labels.add(f"theta{entry['theta']:g}-{entry['quadrature']}")
    return sorted(labels)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.pop("RTE_SIM_SEED", None)  # --seed is passed explicitly
    env["PYTHONPATH"] = SRC
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    return env


def calibrate():
    """Median time of a fixed pure-Python loop: host speed, not rtesim's."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_hash():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rtesim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(mode, aux_path, cli_args, log_path, deadline):
    """Run child.py once; wall, CPU and peak RSS of it and its descendants.

    The child's process group is killed at the monotonic instant
    ``deadline``, unless that is None.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, aux_path,
           "--"] + cli_args
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(1.0, deadline - t0), os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
        try:
            # wait4 folds in the CPU and peak RSS of the pool workers,
            # which the child reaps before it exits
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}


class Workload:
    """One workload at one seed and size, with its work directory."""

    def __init__(self, spec, name, seed, size, tag, deadline=None):
        self.name = name
        self.deadline = deadline
        self.w = spec["workloads"][name]
        self.doc_seed = seed % spec["doc_seeds"]
        self.size = size
        self.dir = os.path.join(WORK, f"{name}-s{seed}-{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def run_pass(self, tag, mode, threads):
        """Every invocation of the workload once, in order."""
        results = []
        for i, inv in enumerate(self.w["invocations"]):
            d = os.path.join(self.dir, tag, f"{i}-{inv['experiment']}")
            os.makedirs(d)
            outdir = os.path.join(d, "out")
            doc_path = os.path.join(d, "doc.json")
            with open(doc_path, "w") as f:
                json.dump(dict(self.w["document"], M=inv["M"][self.size],
                               output=outdir), f)
            args = [inv["experiment"], "--config", doc_path,
                    "--seed", str(self.doc_seed), "--no-timestamp",
                    "--threads", str(threads)]
            aux = os.path.join(d, mode)
            r = spawn(mode, aux, args, os.path.join(d, "log.txt"),
                      self.deadline)
            r.update(outdir=outdir, aux=aux, log=os.path.join(d, "log.txt"))
            if mode == "plain" and r["code"] == 0:
                with open(aux) as f:
                    r["setup"] = float(f.read()) - r["t0"]
            results.append(r)
        return results


def check_pass(results, golden, reference):
    """Failed invocations of one pass; fills ``reference`` on first use."""
    failed = 0
    for i, (r, want) in enumerate(zip(results, golden)):
        if r["code"] != 0:
            problems = [f"exit code {r['code']}"]
        else:
            problems = outputs.compare(outputs.digest(r["outdir"]), want)
            blobs = outputs.tree_bytes(r["outdir"])
            if reference.setdefault(i, blobs) != blobs:
                problems.append("outputs not byte-identical to the first pass")
            r["bytes"] = sum(len(b) for b in blobs.values())
        if problems:
            failed += 1
            print(f"check failed: {r['outdir']}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
            with open(r["log"]) as f:
                sys.stderr.write(f.read()[-2000:])
        shutil.rmtree(r["outdir"], ignore_errors=True)
    return failed


def end_to_end(passes):
    def per_pass(key, reduce):
        return statistics.median(reduce(r[key] for r in p) for p in passes)
    return {
        "wall_s": per_pass("wall", sum),
        "cpu_s": per_pass("cpu", sum),
        "setup_s": statistics.median(r["setup"] for p in passes for r in p),
        "peak_rss_mb": per_pass("rss_mb", max),
    }


def _fold_spans(path, acc):
    spans = []
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            if d.pop("summary", False):
                for k, v in d.items():
                    acc[k] += v
            else:
                spans.append(d)
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        c, a, name = s["counts"], s["attrs"], s["name"]
        for k, v in c.items():
            acc[k] += v
        if s["layer"] == "process":
            continue
        dur = s["end"] - s["start"]
        acc[s["layer"] + ".self_s"] += (dur - child_s[s["id"]]
                                        - c.get("poisson.s", 0.0)
                                        - c.get("model.s", 0.0))
        acc[s["layer"] + ".span_s"] += dur
        if name == "solve_trajectory":
            v = a["variant"]
            acc["stepper.steps"] += a["steps"]
            acc["steps." + v] += a["steps"]
            acc["span_s." + v] += dur
            acc["drift_calls." + v] += c.get("model.drift_calls", 0)
        elif name == "exact_trajectory":
            acc["exact.jumps"] += a["jumps"]
        elif name == "integrate_along_path":
            acc["analysis.path_segments"] += a["segments"]
            acc["analysis.path_integral_s"] += dur
        elif name == "local_errors":
            acc["analysis.local_error_calls"] += 1
            acc["local_error_s"] += dur


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(variants, parallel, serial, traced, probe):
    """Per-layer metrics (name -> (value, unit)) from the traced pass."""
    acc = defaultdict(float)
    for r in traced:
        _fold_spans(r["aux"], acc)
    queries = int(acc["poisson.queries"])
    steps = int(acc["stepper.steps"])
    jumps = int(acc["exact.jumps"])
    segments = int(acc["analysis.path_segments"])
    le_calls = int(acc["analysis.local_error_calls"])
    written = sum(r["bytes"] for r in traced)
    serial_wall = sum(r["wall"] for r in serial)
    m = {
        "poisson.queries": (queries, "count"),
        "poisson.epochs": (int(acc["poisson.epochs"]), "count"),
        "poisson.epochs_used_frac": (_ratio(acc["poisson.epochs_used"],
                                            acc["poisson.epochs"]), "frac"),
        "poisson.self_s": (acc["poisson.s"], "s"),
        "poisson.ns_per_query": (_ratio(acc["poisson.s"], queries, 1e9), "ns"),
        "model.drift_calls": (int(acc["model.drift_calls"]), "count"),
        "model.rate_calls": (int(acc["model.rate_calls"]), "count"),
        "model.hook_calls": (int(acc["model.hook_calls"]), "count"),
        "model.self_s": (acc["model.s"], "s"),
        "model.rate_clamps": (int(acc["model.rate_clamps"]), "count"),
        "stepper.steps": (steps, "count"),
        "stepper.self_s": (acc["stepper.self_s"], "s"),
        "stepper.us_per_step": (_ratio(acc["stepper.span_s"], steps, 1e6), "us"),
    }
    for v in variants:
        n = acc["steps." + v]
        m["stepper.us_per_step." + v] = (_ratio(acc["span_s." + v], n, 1e6), "us")
        m["stepper.drift_calls_per_step." + v] = (
            _ratio(acc["drift_calls." + v], n), "count")
    m.update({
        "exact.jumps": (jumps, "count"),
        "exact.self_s": (acc["exact.self_s"], "s"),
        "exact.us_per_jump": (_ratio(acc["exact.span_s"], jumps, 1e6), "us"),
        "analysis.self_s": (acc["analysis.self_s"], "s"),
        "analysis.path_integral_s": (acc["analysis.path_integral_s"], "s"),
        "analysis.path_segments": (segments, "count"),
        "analysis.us_per_segment": (
            _ratio(acc["analysis.path_integral_s"], segments, 1e6), "us"),
        "analysis.local_error_calls": (le_calls, "count"),
        "analysis.us_per_local_error": (
            _ratio(acc["local_error_s"], le_calls, 1e6), "us"),
        "analysis.pool_overhead_s": (sum(probe), "s"),
        "analysis.parallel_speedup": (
            _ratio(serial_wall, sum(r["wall"] for r in parallel)), "ratio"),
        "cli.self_s": (acc["cli.self_s"], "s"),
        "cli.bytes_written": (written, "bytes"),
        "cli.write_MBps": (_ratio(written, acc["cli.self_s"], 1e-6), "MB/s"),
        "trace.serial_wall_s": (serial_wall, "s"),
        "trace.overhead_frac": (
            _ratio(sum(r["wall"] for r in traced), serial_wall) - 1.0, "frac"),
    })
    return m


def measure(spec, golden, args):
    """Run the workload; returns (attempted, failed, metrics, record)."""
    wl = Workload(spec, args.workload, args.seed, args.size,
                  f"t{args.trace}", deadline=STARTED + DEADLINE_S)
    want = golden[args.size][args.workload][str(wl.doc_seed)]
    reference = {}
    attempted = failed = 0
    record = {"passes": {}}
    if args.trace == 0:
        passes = []
        start = time.monotonic()
        rep_s = []
        # stop before a repetition that would end after --seconds
        while (not passes or time.monotonic() - start
               + statistics.median(rep_s) <= args.seconds):
            t0 = time.monotonic()
            res = wl.run_pass(f"rep{len(passes)}", "plain", nproc())
            attempted += len(res)
            failed += check_pass(res, want, reference)
            passes.append(res)
            rep_s.append(time.monotonic() - t0)
        record["passes"]["repetitions"] = passes
        if failed:
            metrics = {}
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(passes).items()}
    else:
        parallel = wl.run_pass("parallel", "plain", nproc())
        serial = wl.run_pass("serial", "plain", 1)
        traced = wl.run_pass("traced", "traced", 1)
        probe = wl.run_pass("probe", "probe", nproc())
        for res in (parallel, serial, traced):
            attempted += len(res)
            failed += check_pass(res, want, reference)
        attempted += len(probe)
        failed += sum(r["code"] != 0 for r in probe)
        record["passes"].update(parallel=parallel, serial=serial,
                                traced=traced, probe=probe)
        metrics = {}
        if not failed:
            probe_s = []
            for r in probe:
                with open(r["aux"]) as f:
                    probe_s.append(float(f.read()))
            metrics = per_layer(variant_labels(spec), parallel, serial,
                                traced, probe_s)
    shutil.rmtree(wl.dir, ignore_errors=True)
    record["doc_seed"] = wl.doc_seed
    return attempted, failed, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest M per invocation, for smoke tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rtesim", "cli.py")):
        print(f"error: no rtesim sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    spec = load_workloads()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    with open(GOLDEN) as f:
        golden = json.load(f)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "source_sha256": source_hash(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "calibration_before_s": calibrate(),
    }
    attempted, failed, metrics, detail = measure(spec, golden, args)
    record.update(detail, calibration_after_s=calibrate())
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    record_path = os.path.join(
        WORK, "records",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, default=str)

    print(f"workload={args.workload} seed={args.seed} doc_seed="
          f"{record['doc_seed']} trace={args.trace} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"calibration_s={record['calibration_before_s']:.4f}/"
          f"{record['calibration_after_s']:.4f} record={record_path}")
    print(f"error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
