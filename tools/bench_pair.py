"""Paired runs of one command on a parent revision and on the working tree.

    python3 tools/bench_pair.py --parent REV [--out BENCH_x.json] -- CMD...

Run it from inside the checkout. REV's whole tree is exported with `git
archive` into a temporary directory. CMD runs PAIRS (10) times on each
side, each time in a fresh process whose working directory is the side's root and
whose PYTHONPATH is the side's src/; the parent runs first on even pairs,
the change on odd ones. So

    python3 tools/bench_pair.py --parent HEAD -- python3 perfbench/run.py --workload bracket --seed 1 --seconds 36

pairs the benchmark, each side with its own harness, and

    python3 tools/bench_pair.py --parent HEAD -- python3 -m gdskit.cli odiam /abs/path/cube10.json

times one `gds` call (a relative path would resolve in each side's root).

Each run records wall_s; cpu_s, user plus system time, and maxrss_mb, the
largest resident set, both from os.wait4 and so of the child and the
descendants it waited for; if the child's last stdout line is a JSON
object, every number in its `metrics` object, named by its dotted key
path (`setup_s.value`); and the hex of a `digest sha256:` line, if the
child prints one. For each metric the report gives both sides' runs and
medians, the parent's quartile spread and the pairs the change won, ties
counting for neither side. A name that BENCHMARK.json declares takes its
direction (`better`) and, for an end-to-end metric, its relative bound
from there; wall_s, cpu_s and maxrss_mb are lower-is-better, without a
bound. Each metric gets a verdict:

- gain: the change won at least 9 in 10 pairs and the medians differ, in
  its favour, by more than the parent's quartile spread;
- worse: with a bound, the change's median is worse than the parent's by
  more than the bound; without one, the change lost at least 9 in 10
  pairs and the medians differ by more than the parent's spread;
- unresolved: the parent's spread is wider than the bound, and not every
  change run beats every parent run;
- within bound, or no gain where there is no bound.

A child that exits nonzero or prints "correct": false stops the driver
with exit 1. The report is printed as one line per metric; --out adds it
to a JSON object of reports, keeping those the file holds. A report is
keyed by its command line, and a repeat of a command by the command line
and ` #2`, ` #3` and so on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10
DIGEST = re.compile(r"^digest sha256:([0-9a-f]{64})$", re.MULTILINE)
STDERR_TAIL = 20


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True, text=True).stdout


def flatten(obj: dict, prefix: str = "") -> dict[str, float]:
    """Every number in a JSON object, named by its dotted key path."""
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = float(value)
    return out


class ChildFailed(Exception):
    pass


def run_once(cmd: list[str], root: Path) -> dict:
    """One fresh process of cmd in root, measured."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    lines = stdout.splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    last = last if isinstance(last, dict) else {}
    metrics = last.get("metrics")
    if proc.returncode != 0 or last.get("correct") is False:
        why = f"exit {proc.returncode}" if proc.returncode != 0 else '"correct": false'
        tail = "\n".join(stderr.splitlines()[-STDERR_TAIL:])
        raise ChildFailed(f"{shlex.join(cmd)} in {root}: {why}\n{tail}")
    digest = DIGEST.search(stdout)
    return {
        "metrics": {
            **(flatten(metrics) if isinstance(metrics, dict) else {}),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        },
        "digest": digest.group(1) if digest else None,
    }


def declared(root: Path) -> dict[str, dict]:
    """name -> BENCHMARK.json entry, for every metric it declares."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for section in ("end_to_end", "per_layer") for m in spec.get(section, [])}


def verdict(parent: list[float], change: list[float], higher: bool, bound: float | None) -> dict:
    """Medians, the parent's quartile spread, the change's wins and the
    verdict of one metric, from paired runs (parent[i] beside change[i])."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else (p_med,) * 3
    spread = q3 - q1
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    every_run_better = min(change) > max(parent) if higher else max(change) < min(parent)
    if wins >= 0.9 * len(parent) and gain > spread:
        word = "gain"
    elif bound is None:
        word = "worse" if losses >= 0.9 * len(parent) and -gain > spread else "no gain"
    elif -gain > bound * abs(p_med):
        word = "worse"
    elif spread > bound * abs(p_med) and not every_run_better:
        word = "unresolved"
    else:
        word = "within bound"
    return {
        "better": "higher" if higher else "lower",
        "bound": bound,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_spread": spread,
        "change_wins": wins,
        "verdict": word,
    }


def summarize(runs: dict[str, list[dict]], names: dict[str, dict]) -> dict:
    """The report's metrics and digests from each side's runs."""
    keys = [k for k in runs["parent"][0]["metrics"] if all(k in r["metrics"] for rs in runs.values() for r in rs)]
    metrics = {}
    for key in keys:
        entry = names.get(key.removesuffix(".value"), {})
        metrics[key] = verdict(
            [r["metrics"][key] for r in runs["parent"]],
            [r["metrics"][key] for r in runs["change"]],
            entry.get("better") == "higher",
            entry.get("bound"),
        )
    digests = {side: sorted({r["digest"] for r in rs if r["digest"]}) for side, rs in runs.items()}
    printed = any(digests.values())
    equal = len(digests["parent"]) == 1 and digests["parent"] == digests["change"] if printed else None
    return {"metrics": metrics, "digests": {**digests, "equal": equal}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    p.add_argument("--out", help="JSON file to add the report to")
    p.add_argument("cmd", nargs=argparse.REMAINDER, help="-- then the command to run on each side")
    args = p.parse_args(argv)
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        p.error("give a command after --")
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    parent_commit = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        archive = subprocess.run(["git", "-C", str(root), "archive", parent_commit], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"parent": Path(tmp), "change": root}
        for i in range(PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                try:
                    run = run_once(cmd, sides[side])
                except ChildFailed as exc:
                    print(f"error: pair {i}, {side}: {exc}", file=sys.stderr)
                    return 1
                runs[side].append(run)
                print(f"pair {i} {side}: wall {run['metrics']['wall_s']:.3f} s", file=sys.stderr)
    report = {
        "command": cmd,
        "parent": parent_commit,
        "change": git(root, "rev-parse", "HEAD").strip(),
        "working_tree_dirty": bool(git(root, "status", "--porcelain")),
        "pairs": PAIRS,
        "machine": {"python": platform.python_version(), "machine": platform.machine(), "nproc": os.cpu_count()},
        **summarize(runs, declared(root)),
    }
    print(f"{shlex.join(cmd)}: {PAIRS} pairs, digests equal: {report['digests']['equal']}"
          + ("  (working tree dirty)" if report["working_tree_dirty"] else ""))
    for key, m in report["metrics"].items():
        print(f"  {key:<28} parent {m['parent_median']:>12.6g}  change {m['change_median']:>12.6g}"
              f"  spread {m['parent_spread']:>10.4g}  wins {m['change_wins']}/{PAIRS}  {m['verdict']}")
    if args.out:
        out = Path(args.out)
        reports = json.loads(out.read_text()) if out.is_file() else {}
        out.write_text(json.dumps(add_report(reports, shlex.join(cmd), report), indent=1) + "\n")
    return 0


def add_report(reports: dict, line: str, report: dict) -> dict:
    """reports with report added under line, or under `line #k` for the
    least k >= 2 not yet taken: no report is replaced."""
    key, k = line, 1
    while key in reports:
        k += 1
        key = f"{line} #{k}"
    return {**reports, key: report}


if __name__ == "__main__":
    sys.exit(main())
