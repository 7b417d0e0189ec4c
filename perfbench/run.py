"""Run one gdskit benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy. The workload's fixed task list is
run in passes, one task at a time, until --seconds is spent; every pass
must produce the same output digest. With --trace 1, untraced and
traced passes alternate and the per-layer metrics come from the traced
ones. Set-up time is measured in separate fresh processes
(--setup-only), which import gdskit, build the inputs and exit. The
script re-executes itself once to fix PYTHONHASHSEED and keep numeric
libraries single-threaded.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metrics named there, with their
units, are the ones BENCHMARK.json declares for the mode. Lines before
it give every metric (also wall_s, cpu_s, the latency percentiles and
fail_ratio, which are not declared), the environment and the digest; a full record
goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_RUNS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# one process, one thread: numeric libraries read these at import
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# stats.prohorov's networkx max-flow adds capacities in hash order, so its
# last bits, and the digest, change with Python's string hash seed
HASH_SEED = "0"
# results that must repeat exactly from pass to pass and run to run
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".members", "_ratio", "over16_share", "unknown_share", "support_mean")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("bracket", "concentration", "measurements"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--started", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import platform

    import networkx
    import numpy
    import scipy

    caches = {}
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for label, key in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            caches[label] = os.sysconf(key)
        except (OSError, ValueError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _jsonable(x):
    """Exact, type-independent encoding of numpy scalars for the digest."""
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"cannot digest {type(x).__name__}")


def run_pass(tasks) -> dict:
    from workloads import Broken

    state: dict = {}
    digest = hashlib.sha256()
    latencies, gaps, failed = [], [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            outputs, widths = task.run(state)
        except Broken as exc:
            failed, outputs, widths = failed + 1, [f"broken: {exc}"], []
            print(f"invariant broken in {task.label}: {exc}", file=sys.stderr)
        except Exception as exc:  # a raising task is counted as failed; the run goes on
            failed, outputs, widths = failed + 1, [f"raised {type(exc).__name__}"], []
            print(f"task {task.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        digest.update(json.dumps([task.label, outputs], default=_jsonable).encode())
        gaps += [float(w) for w in widths]
    return {
        "wall": time.perf_counter() - wall0,
        "cpu": time.process_time() - cpu0,
        "latencies": latencies,
        "gaps": gaps,
        "failed": failed,
        "digest": digest.hexdigest(),
    }


def measure_setup(args) -> list[float]:
    """Set-up seconds of SETUP_RUNS fresh processes, one at a time."""
    samples = []
    for _ in range(SETUP_RUNS):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only",
            "--started", repr(time.perf_counter()),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten values beyond it.

    Returns (value, percentile, values beyond); with fewer than eleven
    values the maximum is returned with none beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(untraced, per_task, setup_samples, failed, attempted) -> dict:
    """name -> (value, unit, note) for every end-to-end metric.

    BENCHMARK.json declares the ones steady enough to gate on; the times
    of passes and tasks and fail_ratio are reported here only.
    """
    tail_value, tail_pct, beyond = tail(per_task)
    gaps = untraced[0]["gaps"]
    return {
        "setup_s": (statistics.median(setup_samples), "s", f"median of {len(setup_samples)} fresh processes"),
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s", f"median of {len(untraced)} passes"),
        "cpu_s": (statistics.median(p["cpu"] for p in untraced), "s", "user + system, median of passes"),
        "task_p50_ms": (
            1e3 * statistics.median(per_task), "ms", f"median over {len(per_task)} tasks of each task's median"
        ),
        "task_tail_ms": (1e3 * tail_value, "ms", f"p{tail_pct:.1f} of {len(per_task)} tasks, {beyond} beyond it"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss of this process"
        ),
        "gap_mean": (statistics.fmean(gaps), "1", f"mean upper - lower over {len(gaps)} intervals"),
        "fail_ratio": (failed / attempted, "1", f"{failed} of {attempted} tasks"),
    }


def per_layer(traced, untraced, traced_spans) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    runs = [layer_metrics(spans, sum(p["latencies"])) for spans, p in zip(traced_spans, traced)]
    problems = []
    metrics = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if key.endswith(COUNT_SUFFIXES):
            if any(v != values[0] for v in values):
                problems.append(f"{key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in untraced)
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gdskit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a gdskit source checkout; {src / 'gdskit'} is missing", file=sys.stderr)
        return 2
    wanted = {"PYTHONHASHSEED": HASH_SEED, **{v: os.environ.get(v, "1") for v in SINGLE_THREAD}}
    if any(os.environ.get(k) != v for k, v in wanted.items()):
        os.environ.update(wanted)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - args.started}))
            return 0
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir) -> int:
    from tracing import Tracer, write_spans

    setup_samples = measure_setup(args)
    tasks = workloads.build(args.workload, args.seed, workdir)
    tracer = Tracer()
    passes, traced_spans = [], []
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_pass(tasks)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        passes.append(result)
        if traced:
            traced_spans.append(tracer.take())
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - begin + result["wall"] > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = {p["digest"] for p in passes}
    problems = [] if len(digests) == 1 else [f"output digest differs between passes: {sorted(digests)}"]
    attempted = len(tasks) * len(passes)
    failed = sum(p["failed"] for p in passes)
    # each task's latency is its median over the untraced passes
    per_task = [statistics.median(col) for col in zip(*(p["latencies"] for p in untraced))]
    e2e = end_to_end(untraced, per_task, setup_samples, failed, attempted)
    layers = {}
    if traced:
        layers, layer_problems = per_layer(traced, untraced, traced_spans)
        problems += layer_problems

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = layers if args.trace else {k: v[0] for k, v in e2e.items()}
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {missing}")

    env = environment()
    digest = passes[0]["digest"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f" ({len(untraced)} untraced)  tasks/pass {len(tasks)}")
    print(f"set-up of {len(setup_samples)} fresh processes: {[round(s, 4) for s in setup_samples]} s")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        for m in declared["per_layer"]:
            print(f"  {m['name']:<48} {layers[m['name']]:>14.6g} {m['unit']}")
    print(f"digest sha256:{digest}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "digest": digest, "end_to_end": {k: v[0] for k, v in e2e.items()},
        "notes": {k: v[2] for k, v in e2e.items()}, "per_layer": layers, "attempted": attempted, "failed": failed,
        "setup_samples": setup_samples, "problems": problems,
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced", "failed", "digest")} for p in passes],
        "task_ms": {t.label: 1e3 * v for t, v in zip(tasks, per_task)},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if traced_spans:
        write_spans(traced_spans[-1], RESULTS / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
