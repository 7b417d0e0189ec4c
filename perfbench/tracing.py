"""Span tracing of gdskit layers, installed from outside the library.

Each traced function is replaced, in every gdskit module that binds it,
by a wrapper that records one span: name, start, end, parent span and a
few attributes read off the arguments or the result. Spans stay in a
list in memory; `layer_metrics` folds one pass's spans into the
per-layer metrics, and `write_spans` dumps them at the end of a run.

Patches are installed only around traced passes, so untraced passes
run the library exactly as shipped.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _rows(arr) -> int:
    shape = np.shape(arr)
    return shape[0] if len(shape) == 2 else 1


def _row_kernel(args, result):
    # computed, not measured: the (rows, n) float64 input read once plus
    # one float64 result per row written
    size = int(np.size(args[0]))
    rows = _rows(args[0])
    return {"rows": rows, "bytes": 8 * (size + rows)}


def _orbit(args, result):
    f = np.asarray(args[0], dtype=float)
    g = np.asarray(args[1], dtype=float)
    return {
        "support": f.size,
        "over16": f.size > 16,
        "key": (f.tobytes(), g.tobytes(), str(args[2]), args[3].weights.tobytes()),
        "certified": bool(result.certified),
    }


def _orbit_sup(args, result):
    f = np.asarray(args[0], dtype=float)
    g = np.asarray(args[1], dtype=float)
    return {"support": f.size, "key": (f.tobytes(), g.tobytes(), str(args[2]))}


def _induced_metric(args, result):
    g, n = args[0].generators.shape
    # computed: the (g, n, n) float64 difference tensor the embedding builds
    return {"bytes": 8 * g * n * n}


# (defining module, function, probe) for every traced function; the span
# name is "<module>.<function>"
TRACED = [
    ("_kernels", "kf_rows", _row_kernel),
    ("_kernels", "window_tradeoff_values", lambda a, r: {"rows": _rows(a[0])}),
    ("_kernels", "window_tradeoff_min", None),
    ("_kernels", "pd_rows", _row_kernel),
    ("families", "dist_to_orbit", _orbit),
    ("families", "dist_to_orbit_sup", _orbit_sup),
    ("families", "covering_number", None),
    ("families", "capacity", None),
    ("distances", "dconc_pi", None),
    ("distances", "box_objective", None),
    ("distances", "dconc_bracket", None),
    ("distances", "box_bracket", None),
    ("distances", "dconc_lower_via_od", None),
    ("staircase", "staircase_distance", None),
    ("staircase", "level_hausdorff", None),
    ("transforms", "enumerate_measurements", lambda a, r: {"members": len(r.members)}),
    ("transforms", "quotient", None),
    ("transforms", "check_domination", lambda a, r: {"unknown": r.status == "Unknown"}),
    ("obsdiam", "od_profile", None),
    ("obsdiam", "observable_diameter_hss", None),
    ("core", "induced_metric", _induced_metric),
    ("core", "check_metric", None),
    ("spaces", "generate_space", None),
    ("serialize", "parse_gds", None),
    ("stats", "prohorov", None),
    ("stats", "ky_fan", None),
]

CLI_COMMANDS = ("gen", "odiam", "sweep", "prohorov")
# span attributes reported as per-pass totals
SUMMED = {
    "_kernels.kf_rows": ("rows", "bytes"),
    "_kernels.pd_rows": ("rows", "bytes"),
    "_kernels.window_tradeoff_values": ("rows",),
    "transforms.enumerate_measurements": ("members",),
    "core.induced_metric": ("bytes",),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each gdskit module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "gdskit" or k.startswith("gdskit.")]
        targets = [(f"{mod}.{fn}", sys.modules[f"gdskit.{mod}"], fn, probe) for mod, fn, probe in TRACED]
        targets += [(f"cli.{c}", sys.modules["gdskit.cli"], f"cmd_{c}", None) for c in CLI_COMMANDS]
        for name, home, attr, probe in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[list], task_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `calls` and inclusive `s` count only outermost spans of a name (a
    bracket that re-enters itself with swapped arguments is one call);
    `self_s` is span time minus the time covered by child spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    sums: dict[str, Counter] = defaultdict(Counter)
    keys: dict[str, set] = defaultdict(set)
    orbit_s = 0.0
    for idx, (name, t0, t1, parent, attrs) in enumerate(spans):
        dur = t1 - t0
        self_s[name] += dur - child[idx]
        outer, p = True, parent
        in_orbit = False
        while p >= 0:
            pname = spans[p][0]
            outer = outer and pname != name
            in_orbit = in_orbit or pname.startswith("families.dist_to_orbit")
            p = spans[p][3]
        if outer:
            calls[name] += 1
            incl[name] += dur
        if name.startswith("families.dist_to_orbit") and not in_orbit:
            orbit_s += dur
        if attrs:
            for k, v in attrs.items():
                if k == "key":
                    keys[name].add(v)
                else:
                    sums[name][k] += v

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    names = [f"{mod}.{fn}" for mod, fn, _ in TRACED] + [f"cli.{c}" for c in CLI_COMMANDS]
    for name in names:
        n = calls[name]
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]
        for k in SUMMED.get(name, ()):
            out[f"{name}.{k}"] = sums[name][k]
    for name in ("families.dist_to_orbit", "families.dist_to_orbit_sup"):
        n = calls[name]
        out[f"{name}.distinct_ratio"] = ratio(len(keys[name]), n)
        out[f"{name}.support_mean"] = ratio(sums[name]["support"], n)
    out["families.dist_to_orbit.certified_ratio"] = ratio(
        sums["families.dist_to_orbit"]["certified"], calls["families.dist_to_orbit"]
    )
    out["families.dist_to_orbit.over16_share"] = ratio(
        sums["families.dist_to_orbit"]["over16"], calls["families.dist_to_orbit"]
    )
    out["transforms.check_domination.unknown_share"] = ratio(
        sums["transforms.check_domination"]["unknown"], calls["transforms.check_domination"]
    )
    out["families.orbit_share"] = ratio(orbit_s, task_seconds)
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span: name, start, end (seconds), parent index."""
    with open(path, "w") as fh:
        for name, t0, t1, parent, _ in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent}) + "\n")
