"""Cost and effect of the law lower bound and of stopping bracket searches
once they close, for a parent revision and the working tree.

    python tools/bench_law.py --parent REV [--seed 1] [--repeats 5] [--out BENCH_law.json]

REV's `src/` is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh `python -c` process with PYTHONPATH
set to one side's `src/` and to the working tree's `perfbench/`, whose
`workloads.build` makes the inputs from the seed. The sides alternate,
the parent first on even repeats.

Jobs:
- `pass bracket`, `pass measurements`: one untimed pass of the
  workload's tasks, then three timed ones; `wall_s` is the median pass.
  The untimed pass counts the brackets built in `distances` (pairwise
  box brackets of the staircase included), the closed ones (lower at or
  above upper), and the searches that stopped scoring candidate
  couplings before the last one because the bracket had closed.
- `law bracket` (working tree only): for each data set pair of the
  `bracket` workload, the best of 3 timings of `lower_bound` in both
  forms, less the od transfer bound alone; the law bound's seconds per
  pair, by family.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np

CHILD = r"""
import json, sys, tempfile, time
import numpy as np
import workloads
from gdskit import distances

job, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
if job == "pass":
    tasks = workloads.build(name, seed, tempfile.mkdtemp())
    brackets, searches = [], []
    real = {k: getattr(distances, k) for k in ("Bracket", "_candidate_couplings", "dconc_pi", "box_objective")}

    def bracket(*args, **kw):
        br = real["Bracket"](*args, **kw)
        brackets.append(br.lower >= br.upper)
        return br

    def candidates(*args):
        out = real["_candidate_couplings"](*args)
        searches.append([len(out), 0])
        return out

    def scoring(key):
        def run(*args):
            searches[-1][1] += 1
            return real[key](*args)
        return run

    patched = {"Bracket": bracket, "_candidate_couplings": candidates,
               "dconc_pi": scoring("dconc_pi"), "box_objective": scoring("box_objective")}
    for key, fn in patched.items():
        setattr(distances, key, fn)
    state = {}
    for task in tasks:
        task.run(state)
    for key, fn in real.items():
        setattr(distances, key, fn)
    walls = []
    for _ in range(3):
        state = {}
        t = time.perf_counter()
        for task in tasks:
            task.run(state)
        walls.append(time.perf_counter() - t)
    out = {"wall_s": sorted(walls)[1], "brackets": len(brackets), "closed": sum(brackets),
           "stopped": sum(scored < total for total, scored in searches)}
else:
    rng = np.random.default_rng(seed)
    out = {}
    for family, (nx, gx), (ny, gy) in workloads.BRACKET_PAIRS:
        span = workloads.SPAN.get(family, 4)
        X = workloads.dyadic_gds(rng, nx, gx, family, span)
        Y = workloads.dyadic_gds(rng, ny, gy, family, span)

        def best_of(fn):
            times = []
            for _ in range(3):
                t = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t)
            return min(times)

        od = best_of(lambda: distances.dconc_lower_via_od(X, Y))
        both = best_of(lambda: (distances.lower_bound(X, Y), distances.lower_bound(X, Y, box=True)))
        out.setdefault(family, []).append(max(0.0, both - 2 * od))
print(json.dumps(out))
"""


def run_child(src: str, perfbench: str, job: str, name: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", CHILD, job, name, str(seed)], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_law.json")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    perfbench = os.path.join(root, "perfbench")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", root, "archive", args.parent, "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"parent": os.path.join(tmp, "src"), "change": os.path.join(root, "src")}
        for workload in ("bracket", "measurements"):
            runs = {name: [] for name in sides}
            for rep in range(args.repeats):
                for name in list(sides) if rep % 2 == 0 else list(sides)[::-1]:
                    runs[name].append(run_child(sides[name], perfbench, "pass", workload, args.seed))
            results[f"pass {workload}"] = {
                name: {
                    "wall_s_median": statistics.median(r["wall_s"] for r in rs),
                    "wall_s": [round(r["wall_s"], 4) for r in rs],
                    "brackets": rs[0]["brackets"],
                    "closed": rs[0]["closed"],
                    "stopped": rs[0]["stopped"],
                }
                for name, rs in runs.items()
            }
            print(f"pass {workload}: {json.dumps(results[f'pass {workload}'])}")
    per_pair = run_child(sides["change"], perfbench, "law", "bracket", args.seed)
    results["law bracket"] = {
        family: {"pairs": len(s), "s_mean": statistics.mean(s), "s_max": max(s)} for family, s in per_pair.items()
    }
    print(f"law bracket: {json.dumps(results['law bracket'])}")
    report = {
        "what": "Lower bound first: the certified lower bound is the larger of the od transfer bound "
        "and an exact law bound over each orbit, and coupling searches stop once the bracket closes.",
        "harness": __doc__.split("\n\n", 1)[1].strip(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "sides": {"parent": args.parent, "change": "working tree"},
        "seed": args.seed,
        "repeats": args.repeats,
        "units": {"wall_s": "s per pass", "s_mean": "s per pair, both forms", "s_max": "s per pair, both forms"},
        "results": results,
    }
    with open(os.path.join(root, args.out), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
