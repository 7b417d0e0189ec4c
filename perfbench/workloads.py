"""Seeded inputs and fixed task lists of the three workloads.

`build(name, seed, workdir)` makes every input from the seed and
returns the workload's task list. A task is one closed-loop step: it
calls the library, checks the invariants any correct build must meet
(raising `Broken` when one fails) and returns its numeric outputs, for
the digest, and the widths of the intervals it produced, for gap_mean.

Tasks reach the library through module attributes (`distances.box_bracket`,
not a local name), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gdskit import cli, core, distances, families, obsdiam, serialize, spaces, staircase, stats, transforms
from gdskit.errors import ValidationError

VERDICTS = ("Dominates", "NotDominated", "Unknown")

# bracket: (family, (points, generators) of X, (points, generators) of Y),
# each pair run through dconc_bracket and box_bracket. Shapes are fixed
# and the seed draws values and masses, so every seed costs about the
# same. A product coupling of more than 16 points skips the target-frame
# pass of the shift-clip orbit search.
BRACKET_OPS = ("dconc_bracket", "box_bracket")
BRACKET_PAIRS = (
    ("TB", (2, 1), (2, 1)),
    ("TB", (2, 1), (3, 1)),
    ("TB", (2, 2), (3, 1)),
    ("TB", (3, 1), (2, 2)),
    ("TB", (3, 1), (3, 2)),
    ("TB", (3, 1), (4, 1)),
    ("TB", (3, 2), (4, 1)),
    ("TB", (4, 1), (2, 2)),
    ("TB", (4, 1), (3, 1)),
    ("TB", (4, 1), (4, 2)),
    ("TB", (4, 2), (5, 1)),
    ("TB", (5, 1), (3, 1)),
    ("TB", (5, 1), (4, 2)),
    ("TB", (3, 1), (6, 1)),
    ("TB", (5, 1), (5, 1)),
    ("TB", (6, 1), (3, 2)),
    ("B", (2, 1), (2, 1)),
    ("B", (2, 1), (3, 1)),
    ("B", (3, 1), (3, 1)),
    ("T", (5, 2), (6, 1)),
    ("T", (6, 3), (6, 2)),
    ("lip1:8", (3, 1), (3, 2)),
    ("lip1:8", (4, 1), (3, 1)),
)
# Feature values are multiples of 1/64 in [-SPAN, SPAN]. Without
# translations a B box upper bound grows with the value range, so B pairs
# use a span of 1 to keep their widths on the scale of the other
# families; otherwise three pairs would decide gap_mean.
SPAN = {"B": 1}
# embedded metric spaces: every distance row is a generator
BRACKET_SPACES = (
    ("path:5:1", "path:6:1", ("dconc_bracket",)),
    ("random_cloud:5:2:l2:{}", "random_cloud:5:2:linf:{}", ("box_bracket",)),
)

# measurements
# fixed recipes: the series interval then does not depend on the seed,
# which keeps gap_mean steady on this workload (four intervals per pass)
STAIRCASE_PAIRS = (
    ("path:2:1", "path:3:1"),
    ("path:4:1", "path:2:0.5"),
    ("path:2:1", "random_cloud:3:2:l2:5"),
    ("random_cloud:2:2:l2:1", "random_cloud:4:2:linf:2"),
)
# (family, points): X has one sorted feature g and Y is its quotient by a
# family member applied to g (shift-then-clip for TB, a symmetric clip
# for B), so X dominates Y and the true quotient map is the first one
# enumerated. An Unknown verdict therefore means the orbit search missed
# an exact member, which TB searches can do above 16 points.
DOMINATION_SETS = tuple(("TB", n) for n in (6, 8, 10, 12, 14, 16, 17, 18, 20)) + (("B", 8), ("B", 12))
DOMINATION_BUDGET = 200
# (family, generators, points) for covering_number and capacity
COVER_SETS = tuple((family, m, 5) for family in ("B", "TB") for m in (6, 9, 12))
COVER_EPS = 0.25

# concentration
KAPPAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
LOWER_KAPPAS = (0.05, 0.1, 0.2, 0.3, 0.4)
# short name -> recipe. The 320-point cloud makes the (g, n, n) embedding
# tensor the peak of resident memory.
CONCENTRATION_SPACES = {
    "cube5": "hamming_cube:5:by_k",
    "cube6": "hamming_cube:6:by_k",
    "cube7": "hamming_cube:7:by_k",
    "path64": "path:64:0.0625",
    "path100": "path:100:0.01",
    "c64": "random_cloud:64:4:linf:{}",
    "c80": "random_cloud:80:3:linf:{}",
    "c96": "random_cloud:96:3:linf:{}",
    "c128": "random_cloud:128:3:l2:{}",
    "c320": "random_cloud:320:4:l2:{}",
}
LOWER_PAIRS = (("c128", "c96"), ("c64", "cube6"), ("path100", "cube7"), ("c80", "cube5"))
# (space, feature index, feature index) for prohorov and ky_fan
FEATURE_PAIRS = (("c128", 0, 1), ("c96", 2, 3), ("c80", 4, 5), ("path64", 0, 63), ("cube7", 0, 5))


class Broken(Exception):
    """An output broke an invariant that every correct build meets."""


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[dict], tuple[list, list]]  # pass state -> (outputs, gaps)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise Broken(message)


def dyadic_masses(rng, n: int, denom_pow: int = 10) -> np.ndarray:
    """n positive masses, multiples of 2**-denom_pow, summing to 1."""
    total = 1 << denom_pow
    cuts = np.sort(rng.choice(np.arange(1, total), size=n - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])) / total


def dyadic_gds(rng, n: int, g: int, family: str, span: int = 4, denom: int = 64):
    """Data set with dyadic feature values and masses, points kept distinct."""
    while True:
        gens = rng.integers(-span * denom, span * denom + 1, size=(g, n)) / denom
        d = np.max(np.abs(gens[:, :, None] - gens[:, None, :]), axis=0)
        if np.all(d[np.triu_indices(n, k=1)] > 0):
            break
    return core.validate_gds(range(n), gens, core.FamilyTag.parse(family), dyadic_masses(rng, n))


def _fill(text: str, rng) -> str:
    """Fill a random_cloud seed slot from the workload's generator."""
    return text.format(int(rng.integers(0, 2**31))) if "{}" in text else text


def _space(text: str, rng):
    """(recipe, data set); redraws a cloud seed whose points coincide."""
    while True:
        filled = _fill(text, rng)
        try:
            return filled, spaces.generate_space(spaces.SpaceRecipe.parse(filled))
        except ValidationError:
            continue


def _bracket_task(op, X, Y, label):
    def run(state):
        br = getattr(distances, op)(X, Y)
        _check(br.lower <= br.upper, f"bracket lower {br.lower!r} > upper {br.upper!r}")
        return [br.lower, br.upper], [br.upper - br.lower]

    return Task(label, run)


def bracket(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for family, (nx, gx), (ny, gy) in BRACKET_PAIRS:
        X = dyadic_gds(rng, nx, gx, family, SPAN.get(family, 4))
        Y = dyadic_gds(rng, ny, gy, family, SPAN.get(family, 4))
        for op in BRACKET_OPS:
            tasks.append(_bracket_task(op, X, Y, f"{op} {family} {nx}x{gx}/{ny}x{gy}"))
    for a, b, ops in BRACKET_SPACES:
        (a, X), (b, Y) = _space(a, rng), _space(b, rng)
        for op in ops:
            tasks.append(_bracket_task(op, X, Y, f"{op} {a}/{b}"))
    return tasks


def _staircase_task(X, Y, label):
    def run(state):
        sb = staircase.staircase_distance(X, Y, 2)
        lo, hi = sb.interval
        _check(lo <= hi, f"series interval [{lo!r}, {hi!r}] is not ordered")
        return [sb.partial, sb.tail_bound, sb.lower_partial], [hi - lo]

    return Task(label, run)


def _domination_task(X, row, label):
    def run(state):
        Y, _ = transforms.quotient(X, row[None, :])
        verdict = transforms.check_domination(X, Y, budget=DOMINATION_BUDGET)
        _check(verdict.status in VERDICTS, f"unknown verdict {verdict.status!r}")
        return [verdict.status, verdict.witness_map], []

    return Task(label, run)


def _cover_task(kind, X, label):
    m = X.n_generators

    def run(state):
        if kind == "covering_number":
            res = families.covering_number(X, COVER_EPS)
        else:
            res = families.capacity(X.generators, COVER_EPS, X.family, X.mu)
        _check(1 <= res.value <= m, f"{kind} {res.value} outside [1, {m}]")
        return [res.value, res.exact], []

    return Task(label, run)


def measurements(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for a, b in STAIRCASE_PAIRS:
        tasks.append(_staircase_task(_space(a, rng)[1], _space(b, rng)[1], f"staircase_distance {a}/{b}"))
    for family, n in DOMINATION_SETS:
        while True:
            g = np.sort(rng.integers(-256, 257, size=n) / 64)
            if np.all(np.diff(g) > 0):
                break
        X = core.validate_gds(range(n), g[None, :], core.FamilyTag(family), np.full(n, 1.0 / n))
        if family == "TB":
            c = float(rng.integers(-16, 17)) / 8
            member = families.ClipMap(c, float(g[n // 5]) + c, float(g[-1 - n // 5]) + c)
        else:
            member = families.ClipMap.bound(float(np.abs(g)[np.argsort(np.abs(g))[-1 - n // 4]]))
        tasks.append(_domination_task(X, member.apply(g), f"check_domination {family} {n} points"))
    for family, m, n in COVER_SETS:
        X = dyadic_gds(rng, n, m, family)
        for kind in ("covering_number", "capacity"):
            tasks.append(_cover_task(kind, X, f"{kind} {family} {m} generators"))
    return tasks


def _generate_task(key, text):
    def run(state):
        X = spaces.generate_space(spaces.SpaceRecipe.parse(text))
        _check(X.n_points == X.n_generators, f"{text}: embedding is not square")
        state[key] = X
        return [X.n_points, float(X.metric.max())], []

    return Task(f"generate_space {text}", run)


def _od_task(key, kappas):
    def run(state):
        X = state[key]
        prof = obsdiam.od_profile(X, kappas)
        # generate_space embeds the rows of its distance matrix, so the
        # generators are that matrix
        fast = [obsdiam.observable_diameter_hss(X.generators, X.mu, k) for k in kappas]
        values = prof.values
        _check(all(b <= a for a, b in zip(values, values[1:])), f"{key}: od profile increases")
        _check(values == fast, f"{key}: od_profile and observable_diameter_hss differ")
        return values, []

    return Task(f"od_profile+hss {key}", run)


def _lower_task(kx, ky):
    def run(state):
        lb = distances.dconc_lower_via_od(state[kx], state[ky], LOWER_KAPPAS)
        _check(0.0 <= lb <= 1.0, f"lower bound {lb!r} outside [0, 1]")
        # the observable distance never exceeds 1 (a Ky Fan distance is
        # at most 1), so 1 is a witnessed upper bound for every pair
        return [lb], [1.0 - lb]

    return Task(f"dconc_lower_via_od {kx}/{ky}", run)


def _feature_task(key, i, j):
    def run(state):
        X = state[key]
        mu = core.pushforward(X.generators[i], X.mu)
        nu = core.pushforward(X.generators[j], X.mu)
        p = stats.prohorov(mu, nu)
        k = stats.ky_fan(X.generators[i], X.generators[j], X.mu)
        _check(0.0 <= p <= 1.0, f"prohorov {p!r} outside [0, 1]")
        _check(0.0 <= k <= 1.0, f"ky_fan {k!r} outside [0, 1]")
        return [p, k], []

    return Task(f"prohorov+ky_fan {key} {i}/{j}", run)


def _cli_task(label, argv, out_file=None, drop_last_column=False):
    def run(state):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        _check(code == 0, f"gds {argv[0]} exited {code}, expected 0")
        text = buf.getvalue()
        if drop_last_column:  # sweep's runtime_ms column is not reproducible
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        if out_file:
            with open(out_file) as fh:
                text += fh.read()
        return [text], []

    return Task(f"gds {label}", run)


def concentration(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    # cloud seeds are checked here, except the 320-point one: generating it
    # would put the embedding in set-up, and in 4 dimensions its 1025**4
    # grid makes coincident points (a failed task) a 5e-8 event
    recipes = {
        key: _fill(text, rng) if key == "c320" else _space(text, rng)[0]
        for key, text in CONCENTRATION_SPACES.items()
    }
    tasks = [_generate_task(key, text) for key, text in recipes.items()]
    # od_profile on the big cloud costs little; each hss call re-validates
    # the metric in O(n^3), so that space gets a short grid
    tasks += [_od_task(key, KAPPAS[::4] if key == "c320" else KAPPAS) for key in recipes]
    tasks += [_lower_task(kx, ky) for kx, ky in LOWER_PAIRS]
    tasks += [_feature_task(*pair) for pair in FEATURE_PAIRS]
    cloud = os.path.join(workdir, "cloud.json")
    serialize.serialize_gds(_space("random_cloud:64:3:linf:{}", rng)[1], cloud)
    gen_out = os.path.join(workdir, "gen.json")
    sweep_cloud = _space("random_cloud:64:2:l2:{}", rng)[0]
    sweep = ["sweep", "--recipe", "hamming_cube:5:by_k", "--recipe", sweep_cloud, "--kappa-grid", "0.1:0.4:0.1"]
    tasks += [
        _cli_task("gen hamming_cube:6:by_k", ["gen", "hamming_cube:6:by_k", "--out", gen_out], out_file=gen_out),
        _cli_task("odiam cloud", ["odiam", cloud, "--kappa-grid", "0.05:0.45:0.05"]),
        _cli_task(f"sweep hamming_cube:5:by_k {sweep_cloud}", sweep, drop_last_column=True),
        _cli_task("prohorov cloud", ["prohorov", cloud, "--f", "0", "--g", "1"]),
    ]
    return tasks


WORKLOADS = {"bracket": bracket, "concentration": concentration, "measurements": measurements}


def build(name: str, seed: int, workdir: str) -> list[Task]:
    return WORKLOADS[name](seed, workdir)
