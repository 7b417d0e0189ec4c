"""Effect and cost of scoring box supports under their max-flow couplings,
for a parent revision and the working tree.

    python tools/bench_box.py --parent REV [--seeds 10] [--repeats 5] [--out BENCH_box.json]

REV's `src/` is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh `python -c` process with PYTHONPATH
set to one side's `src/` and to the working tree's `perfbench/`, whose
`workloads.build` makes the inputs from the seed.

Jobs:
- `uppers` (once per side): the box brackets of the `bracket` workload
  at seeds 1 to --seeds, under the default search budget and under a
  doubled one (16 candidate couplings, 80 local-search steps: the
  module constants `COUPLING_CANDIDATES` and `LOCAL_SEARCH_STEPS`, set
  in the child process, or in a tree that predates them the
  `SearchConfig` fields of those names). Per bracket it keeps the lower
  and upper bound, and under the default budget it counts the supports
  scored (`distances._box_value` calls), the distinct ones among them,
  the repeats (scorings of a support already scored in the same
  bracket, plus, in a tree with `distances._Search`, the supports
  proposed to `_Search.score` again, which it skips) and the moves of
  the support local search (counted only in a tree with `_Search`).
- `pass bracket`, `pass measurements`: one untimed pass of the
  workload's tasks at seed 1, then three timed ones; `wall_s` is the
  median pass and `peak_rss_mb` the process's `ru_maxrss` after them.
  The untimed pass counts the box brackets and the closed ones (lower
  at or above upper), the staircase's level brackets included. The
  sides alternate, the parent first on even repeats.
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
import json, resource, sys, tempfile, time
import workloads
from gdskit import distances, staircase

job, arg = sys.argv[1], sys.argv[2]
real = distances.box_bracket
config = [None]
brackets, depth = [], [0]

def box(X, Y, cfg=None):
    depth[0] += 1
    if depth[0] == 1:
        brackets.append({"scored": [], "repeats": 0, "moves": 0})
    try:
        br = real(X, Y, config[0] or cfg)
    finally:
        depth[0] -= 1
    if depth[0] == 0:
        brackets[-1].update(lower=br.lower, upper=br.upper)
    return br

distances.box_bracket = staircase.box_bracket = box

def run(tasks):
    state = {}
    for task in tasks:
        task.run(state)

if job == "uppers":
    value = distances._box_value

    def scoring(X, Y, pi, S, cutoff):
        S = tuple(S)
        brackets[-1]["repeats"] += S in brackets[-1]["scored"]
        brackets[-1]["scored"].append(S)
        return value(X, Y, pi, S, cutoff)

    distances._box_value = scoring
    search = getattr(distances, "_Search", None)
    if search is not None:
        score, descend, descending = search.score, search.descend, [False]

        def counted_score(self, key, obj, *args):
            brackets[-1]["repeats"] += key in self.scored
            value = score(self, key, obj, *args)
            brackets[-1]["moves"] += descending[0] and self.best is obj
            return value

        def counted_descend(self, *args):
            descending[0] = True
            try:
                descend(self, *args)
            finally:
                descending[0] = False

        search.score, search.descend = counted_score, counted_descend

    def budget(scale):
        # the search budget `scale` times the default: the module
        # constants, or a SearchConfig in a tree that predates them
        if not hasattr(distances, "COUPLING_CANDIDATES"):
            return distances.SearchConfig(coupling_candidates=8 * scale, local_search_steps=40 * scale)
        distances.COUPLING_CANDIDATES, distances.LOCAL_SEARCH_STEPS = 8 * scale, 40 * scale
        return None

    out = {}
    for seed in range(1, int(arg) + 1):
        tasks = [t for t in workloads.build("bracket", seed, tempfile.mkdtemp()) if t.label.startswith("box")]
        for name, scale in (("default", 1), ("doubled", 2)):
            config[0] = budget(scale)
            brackets.clear()
            run(tasks)
            out.setdefault(name, []).extend(
                {"seed": seed, "label": t.label, **b, "distinct": len(set(b["scored"])), "scored": len(b["scored"])}
                for t, b in zip(tasks, brackets)
            )
else:
    tasks = workloads.build(arg, 1, tempfile.mkdtemp())
    run(tasks)
    counted = list(brackets)
    distances.box_bracket = staircase.box_bracket = real
    walls = []
    for _ in range(3):
        t = time.perf_counter()
        run(tasks)
        walls.append(time.perf_counter() - t)
    out = {"wall_s": sorted(walls)[1], "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "box_brackets": len(counted), "closed": sum(b["lower"] >= b["upper"] for b in counted)}
print(json.dumps(out))
"""


def run_child(src: str, perfbench: str, job: str, arg: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run([sys.executable, "-c", CHILD, job, arg], env=env, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{job} {arg} failed under {src}:\n{out.stderr}")
    return json.loads(out.stdout)


def upper_summary(parent: list, change: list) -> dict:
    """Per-bracket moves of the box bounds from parent to change."""
    pairs = list(zip(parent, change))
    return {
        "brackets": len(pairs),
        "upper_fell": sum(c["upper"] < p["upper"] for p, c in pairs),
        "upper_rose": sum(c["upper"] > p["upper"] for p, c in pairs),
        "lower_moved": sum(c["lower"] != p["lower"] for p, c in pairs),
        "gap_sum": {"parent": sum(p["upper"] - p["lower"] for p in parent),
                    "change": sum(c["upper"] - c["lower"] for c in change)},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_box.json")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    perfbench = os.path.join(root, "perfbench")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", root, "archive", args.parent, "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"parent": os.path.join(tmp, "src"), "change": os.path.join(root, "src")}
        uppers = {name: run_child(src, perfbench, "uppers", str(args.seeds)) for name, src in sides.items()}
        default = {name: u["default"] for name, u in uppers.items()}
        results["uppers bracket"] = {
            "parent to change": upper_summary(default["parent"], default["change"]),
            "search": {
                name: {key: sum(b[key] for b in brs) for key in ("scored", "distinct", "repeats", "moves")}
                for name, brs in default.items()
            },
            "raised by the doubled budget": {
                name: sum(d["upper"] > b["upper"] for b, d in zip(u["default"], u["doubled"]))
                for name, u in uppers.items()
            },
            "per pair": [
                {"seed": p["seed"], "label": p["label"], "lower": p["lower"],
                 "upper": {"parent": p["upper"], "change": c["upper"]}}
                for p, c in zip(default["parent"], default["change"])
            ],
        }
        summary = {k: v for k, v in results["uppers bracket"].items() if k != "per pair"}
        print(f"uppers bracket: {json.dumps(summary)}")
        for workload in ("bracket", "measurements"):
            runs = {name: [] for name in sides}
            for rep in range(args.repeats):
                for name in list(sides) if rep % 2 == 0 else list(sides)[::-1]:
                    runs[name].append(run_child(sides[name], perfbench, "pass", workload))
            results[f"pass {workload}"] = {
                name: {
                    "wall_s_median": statistics.median(r["wall_s"] for r in rs),
                    "wall_s": [round(r["wall_s"], 4) for r in rs],
                    "peak_rss_mb_median": statistics.median(r["peak_rss_mb"] for r in rs),
                    "box_brackets": rs[0]["box_brackets"],
                    "closed": rs[0]["closed"],
                }
                for name, rs in runs.items()
            }
            print(f"pass {workload}: {json.dumps(results[f'pass {workload}'])}")
    report = {
        "what": "Box upper bounds searched over supports: each distinct support is scored once, under a "
        "coupling that puts the most mass any coupling can on it (a bipartite max-flow), and a first-"
        "improvement add/remove-one-pair local search runs from the best support.",
        "harness": __doc__.split("\n\n", 1)[1].strip(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "sides": {"parent": args.parent, "change": "working tree"},
        "seeds": args.seeds,
        "repeats": args.repeats,
        "units": {"wall_s": "s per pass", "peak_rss_mb": "MB, ru_maxrss of the child process"},
        "results": results,
    }
    with open(os.path.join(root, args.out), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
