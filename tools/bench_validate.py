"""Wall time and peak RSS of separation checking, `gds odiam` and
`quotient`, for a parent revision and the working tree.

    python tools/bench_validate.py --parent REV [--repeats 5] [--out BENCH_validate.json]

REV's `src/` is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh `python -c` process with PYTHONPATH
set to one side's `src/`: the child builds its input, times the call
with time.perf_counter and reports resource.getrusage ru_maxrss, the
peak resident set of the whole process (interpreter and numpy
included). The sides alternate, the parent first on even repeats.

Jobs:
- `validate grid:N`: validate_gds on every point of an N-point grid of
  3 features with values k/4.
- `validate hamming_cube:12`: validate_gds on the rows of the 4 096-point
  Hamming cube distance matrix, best of 3 calls in one process.
- `odiam FILE`: `gds odiam FILE` through gdskit.cli.main, on grid
  feature files and on the file `gds gen hamming_cube:10 --out` writes.
- `quotient N`: seconds per quotient call on N points by 2 small-integer
  rows with ties, best of 5 timing loops.
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
import io, json, resource, sys, time
from contextlib import redirect_stdout
import numpy as np
import gdskit as gk
from gdskit.spaces import hamming_cube_matrix
from gdskit.transforms import quotient

def grid(n):
    side = {4096: (16, 16, 16), 16384: (32, 32, 16)}[n]
    return np.indices(side).reshape(3, -1) / 4.0

job, arg = sys.argv[1], sys.argv[2]
if job == "validate":
    gens = hamming_cube_matrix(12, False) if arg == "hamming_cube:12" else grid(int(arg[5:]))
    n = gens.shape[1]
    times = []
    for _ in range(3 if arg == "hamming_cube:12" else 1):
        t = time.perf_counter()
        gk.validate_gds(range(n), gens, gk.TB_FAMILY, np.full(n, 1.0 / n))
        times.append(time.perf_counter() - t)
    s = min(times)
elif job == "odiam":
    from gdskit.cli import main
    with redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        assert main(["odiam", arg]) == 0
        s = time.perf_counter() - t
else:
    n = int(arg)
    rng = np.random.default_rng(n)
    X = gk.FiniteGDS(range(n), np.arange(n, dtype=float)[None, :], gk.TB_FAMILY, gk.ProbVector.uniform(n))
    G = rng.integers(0, max(2, round(n ** 0.5)), size=(2, n)).astype(float)
    t = time.perf_counter()
    quotient(X, G)
    number = max(1, int(0.05 / (time.perf_counter() - t)))
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(number):
            quotient(X, G)
        best = min(best, (time.perf_counter() - t) / number)
    s = best
print(json.dumps({"s": s, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_child(src: str, job: str, arg: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, job, arg], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def write_grid_file(path: str, n: int) -> None:
    side = {4096: (16, 16, 16), 16384: (32, 32, 16)}[n]
    gens = np.indices(side).reshape(3, -1) / 4.0
    obj = {
        "points": list(range(n)),
        "weights": [1.0 / n] * n,
        "family": "TB",
        "features": {"generators": gens.tolist()},
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def summary(runs: list[dict]) -> dict:
    s = [r["s"] for r in runs]
    rss = [r["rss_mb"] for r in runs]
    return {
        "s_min": min(s),
        "s_median": statistics.median(s),
        "rss_mb_max": max(rss),
        "runs": [[round(r["s"], 6), round(r["rss_mb"], 1)] for r in runs],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_validate.json")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = os.path.join(tmp, "parent")
        os.mkdir(parent_dir)
        archive = subprocess.run(["git", "-C", root, "archive", args.parent, "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive.stdout, check=True)
        sides = {"parent": os.path.join(parent_dir, "src"), "change": os.path.join(root, "src")}
        files = {}
        for n in (4096, 16384):
            files[f"grid:{n}"] = os.path.join(tmp, f"grid{n}.json")
            write_grid_file(files[f"grid:{n}"], n)
        files["hamming_cube:10"] = os.path.join(tmp, "cube10.json")
        subprocess.run(
            [sys.executable, "-m", "gdskit.cli", "gen", "hamming_cube:10", "--out", files["hamming_cube:10"]],
            env=dict(os.environ, PYTHONPATH=sides["change"]),
            check=True,
        )
        jobs = [
            ("validate", "grid:4096", ("parent", "change")),
            ("validate", "hamming_cube:12", ("parent", "change")),
            ("odiam", "grid:4096", ("parent", "change")),
            # the parent builds the 16 384-point induced metric, about 4 GiB
            ("odiam", "grid:16384", ("change",)),
            ("odiam", "hamming_cube:10", ("parent", "change")),
            ("quotient", "6", ("parent", "change")),
            ("quotient", "20", ("parent", "change")),
            ("quotient", "4096", ("parent", "change")),
        ]
        results = {}
        for job, arg, names in jobs:
            runs = {name: [] for name in names}
            for rep in range(args.repeats):
                for name in names if rep % 2 == 0 else names[::-1]:
                    target = files[arg] if job == "odiam" else arg
                    runs[name].append(run_child(sides[name], job, target))
            results[f"{job} {arg}"] = {name: summary(r) for name, r in runs.items()}
            print(f"{job} {arg}: {json.dumps({k: v['s_min'] for k, v in results[f'{job} {arg}'].items()})}")
    report = {
        "what": "Separation checking without the n-by-n induced metric: validate_gds and quotient "
        "group points by their feature columns with one exact column sort.",
        "harness": __doc__.split("\n\n", 1)[1].strip(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "sides": {"parent": args.parent, "change": "working tree"},
        "repeats": args.repeats,
        "units": {"s_min": "s", "s_median": "s", "rss_mb_max": "MB (ru_maxrss / 1024)", "runs": "[s, MB]"},
        "results": results,
    }
    with open(os.path.join(root, args.out), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
