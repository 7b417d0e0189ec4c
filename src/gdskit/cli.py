"""Command line interface.

Exit codes: 0 success, 2 schema or validation error, 3 computational
error (bad metric and friends), 4 search budget exhausted with an
Unknown verdict. All outputs are reproducible for identical inputs and
seeds; runtime columns are the only exception.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .core import FamilyTag
from .distances import SearchConfig, box_bracket, dconc_bracket
from .errors import ComputationError, GdsError, ValidationError
from .obsdiam import _hss_evaluator, od_profile
from .serialize import parse_gds, serialize_gds
from .spaces import SpaceRecipe, generate_space
from .staircase import rho_estimate, staircase_distance
from .stats import ky_fan, partial_diameter, prohorov
from .transforms import MeasurementSpec, check_domination, measurement, quotient, rounded
from .core import pushforward


def _family(text: str) -> FamilyTag:
    return FamilyTag.parse(text)


def _number(text: str) -> float:
    """A float option: infinities pass, NaN does not.

    Option types raise ArgumentTypeError, so argparse names the option
    and exits with status 2.
    """
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _kappa_grid(text: str):
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kappa grid {text!r}, expected a:b:step") from exc
    if step <= 0 or not a < b:
        raise argparse.ArgumentTypeError("kappa grid needs a < b and positive step")
    grid = np.arange(a, b + step / 2, step)
    return tuple(float(k) for k in grid if 0.0 < k < 1.0)


def _load(path: str, args):
    X = parse_gds(path)
    if getattr(args, "round_values", None) is not None:
        X, _ = rounded(X, args.round_values)
    return X


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tol(args) -> float:
    """--tol as given, 0 included; the SearchConfig default when absent."""
    return args.tol if args.tol is not None else SearchConfig.tol


def _search_config(args) -> SearchConfig:
    kwargs = {"tol": _tol(args)}
    if getattr(args, "kappa_grid", None):
        kwargs["kappa_grid"] = args.kappa_grid
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        kwargs["level_budget"] = args.budget
    return SearchConfig(**kwargs)


def _indices(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad index list {text!r}") from exc


def cmd_validate(args) -> int:
    X = _load(args.file, args)
    print(f"ok: {X.n_points} points, {X.n_generators} generators, family {X.family}")
    return 0


def cmd_gen(args) -> int:
    recipe = SpaceRecipe.parse(args.recipe, family=_family(args.family))
    X = generate_space(recipe)
    if args.out:
        serialize_gds(X, args.out)
    else:
        print(json.dumps({"points": X.n_points, "generators": X.n_generators}))
    return 0


def cmd_odiam(args) -> int:
    X = _load(args.file, args)
    kappas = args.kappa_grid if args.kappa_grid else (args.kappa,)
    profile = od_profile(X, sorted(kappas))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kappa", "od"])
    for k, v in profile.entries:
        writer.writerow([repr(k), repr(v)])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_pdiam(args) -> int:
    X = _load(args.file, args)
    mu = pushforward(X.generators[args.feature], X.mu)
    print(repr(partial_diameter(mu, args.alpha)))
    return 0


def cmd_kyfan(args) -> int:
    X = _load(args.file, args)
    print(repr(ky_fan(X.generators[args.f], X.generators[args.g], X.mu)))
    return 0


def cmd_prohorov(args) -> int:
    X = _load(args.file, args)
    mu = pushforward(X.generators[args.f], X.mu)
    nu = pushforward(X.generators[args.g], X.mu)
    print(repr(prohorov(mu, nu)))
    return 0


def cmd_quotient(args) -> int:
    X = _load(args.file, args)
    rows = X.generators[list(_indices(args.features))]
    Y, _ = quotient(X, rows)
    serialize_gds(Y, args.out)
    print(f"quotient: {X.n_points} -> {Y.n_points} points")
    return 0


def cmd_measure(args) -> int:
    X = _load(args.file, args)
    spec = MeasurementSpec(_indices(args.features), args.R)
    Y = measurement(X, spec)
    serialize_gds(Y, args.out)
    print(f"measurement: {Y.n_generators} features in [-{args.R:g}, {args.R:g}]")
    return 0


def cmd_covnum(args) -> int:
    from .families import covering_number

    X = _load(args.file, args)
    family = _family(args.family) if args.family else None
    res = covering_number(X, args.eps, family, tol=_tol(args))
    print(json.dumps({"value": res.value, "exact": res.exact}))
    return 0


def cmd_dconc(args) -> int:
    X = _load(args.file1, args)
    Y = _load(args.file2, args)
    br = dconc_bracket(X, Y, _search_config(args))
    _emit(json.dumps(br.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_box(args) -> int:
    X = _load(args.file1, args)
    Y = _load(args.file2, args)
    br = box_bracket(X, Y, _search_config(args))
    _emit(json.dumps(br.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_staircase(args) -> int:
    X = _load(args.file1, args)
    Y = _load(args.file2, args)
    sb = staircase_distance(X, Y, args.levels, _search_config(args))
    _emit(json.dumps(sb.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_rho(args) -> int:
    X = _load(args.file1, args)
    Y = _load(args.file2, args)
    sb = rho_estimate(X, Y, args.levels, _search_config(args))
    _emit(json.dumps(sb.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_domination(args) -> int:
    X = _load(args.file1, args)
    Y = _load(args.file2, args)
    budget = args.budget if args.budget is not None else 5000
    verdict = check_domination(X, Y, tol=_tol(args), budget=budget)
    print(
        json.dumps(
            {
                "status": verdict.status,
                "witness_map": list(verdict.witness_map) if verdict.witness_map else None,
                "certificate": verdict.certificate,
                "note": verdict.note,
            },
            indent=2,
        )
    )
    return 4 if verdict.status == "Unknown" else 0


def sweep(recipes, kappas, out=None, family: FamilyTag | None = None):
    """Observable-diameter sweep over recipes and a kappa grid.

    Returns CSV text with columns (recipe, param, kappa, od,
    runtime_ms), sorted by (recipe, param, kappa). Deterministic apart
    from the runtime column. Each recipe's matrix is validated once, and
    runtime_ms times only the row evaluation at one kappa.
    """
    if not recipes:
        raise ValidationError("at least one recipe is required")
    if not kappas:
        raise ValidationError("at least one kappa is required")
    rows = []
    for rec in recipes:
        recipe = rec if isinstance(rec, SpaceRecipe) else SpaceRecipe.parse(
            rec, family=family or FamilyTag.parse("TB")
        )
        X = generate_space(recipe)
        # X.metric exists for every recipe kind, including feature-form
        # files. For an embedded space it equals the distance matrix in
        # exact arithmetic; in floats it can differ in the last bits.
        od_at = _hss_evaluator(X.metric, X.mu)
        for kappa in sorted(kappas):
            t0 = time.perf_counter()
            od = od_at(kappa)
            ms = (time.perf_counter() - t0) * 1e3
            rows.append((recipe.label(), recipe.param, float(kappa), od, ms))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["recipe", "param", "kappa", "od", "runtime_ms"])
    for label, param, kappa, od, ms in rows:
        writer.writerow([label, repr(param), repr(kappa), repr(od), f"{ms:.3f}"])
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return text


def cmd_sweep(args) -> int:
    kappas = args.kappa_grid if args.kappa_grid else (args.kappa,)
    text = sweep(args.recipe, kappas, out=args.out, family=_family(args.family))
    if not args.out:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gds",
        description="Concentration-of-measure analytics on finite geometric data sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files=1, out_required=False):
        if files == 1:
            p.add_argument("file")
        else:
            p.add_argument("file1")
            p.add_argument("file2")
        p.add_argument("--tol", type=_tolerance, default=None, help="tolerance fed to every comparison (default 1e-9)")
        p.add_argument("--round-values", type=int, default=None, metavar="D", help="pre-round feature values to D decimals")
        p.add_argument("--out", default=None, required=out_required)

    p = sub.add_parser("validate", help="validate a data set file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a standard space")
    p.add_argument("recipe", help="two_point:<d> | hamming_cube:<k>[:by_k] | path:<n>:<step> | random_cloud:<n>:<dim>:<metric>:<seed>")
    p.add_argument("--family", default="TB", help="id | T | B | TB | lip1:<budget>")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("odiam", help="observable diameter profile (CSV)")
    common(p)
    p.add_argument("--kappa", type=_number, default=0.1)
    p.add_argument("--kappa-grid", type=_kappa_grid, default=None, metavar="A:B:STEP")
    p.set_defaults(func=cmd_odiam)

    p = sub.add_parser("pdiam", help="partial diameter of a feature pushforward")
    common(p)
    p.add_argument("--feature", type=int, default=0)
    p.add_argument("--alpha", type=_number, required=True)
    p.set_defaults(func=cmd_pdiam)

    p = sub.add_parser("kyfan", help="Ky Fan distance between two features")
    common(p)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_kyfan)

    p = sub.add_parser("prohorov", help="Prohorov distance between two feature pushforwards")
    common(p)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_prohorov)

    p = sub.add_parser("quotient", help="quotient by selected features")
    common(p, out_required=True)
    p.add_argument("--features", required=True, help="comma-separated generator indices")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("measure", help="bounded feature measurement")
    common(p, out_required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--R", type=_number, required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("covnum", help="covering number of the generators")
    common(p)
    p.add_argument("--eps", type=_number, required=True)
    p.add_argument("--family", default=None)
    p.set_defaults(func=cmd_covnum)

    for name, fn in (("dconc", cmd_dconc), ("box", cmd_box)):
        p = sub.add_parser(name, help=f"{name} bracket between two data sets")
        common(p, files=2)
        p.add_argument("--kappa-grid", type=_kappa_grid, default=None, metavar="A:B:STEP")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.set_defaults(func=fn)

    for name, fn in (("staircase", cmd_staircase), ("rho", cmd_rho)):
        p = sub.add_parser(name, help=f"{name} series bracket")
        common(p, files=2)
        p.add_argument("--levels", type=int, default=2)
        p.add_argument("--kappa-grid", type=_kappa_grid, default=None, metavar="A:B:STEP")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("domination", help="does the first data set dominate the second?")
    common(p, files=2)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_domination)

    p = sub.add_parser("sweep", help="observable diameter sweep to CSV")
    p.add_argument("--recipe", action="append", required=True)
    p.add_argument("--kappa", type=_number, default=0.1)
    p.add_argument("--kappa-grid", type=_kappa_grid, default=None, metavar="A:B:STEP")
    p.add_argument("--family", default="TB")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GdsError as exc:  # pragma: no cover - catch-all for new error kinds
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
