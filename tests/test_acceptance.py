"""Acceptance suite.

One test per criterion, each printing a PASS line with its headline
numbers. Stated runtime budgets are asserted inside the tests.
"""
import time

import numpy as np
import pytest

import gdskit as gk
from gdskit.cli import sweep
from gdskit.distances import SearchConfig, box_bracket, dconc_bracket
from gdskit.spaces import SpaceRecipe, generate_space, hamming_cube_matrix
from gdskit.staircase import series_tail, series_weight, staircase_distance
from gdskit.stats import levy_mean, partial_diameter, prohorov
from gdskit.transforms import MeasurementSpec, enumerate_measurements, measurement
from oracles import (
    binomial_profile,
    canonical_form,
    dyadic_gds,
    dyadic_masses,
    dyadic_measure,
    dyadic_metric,
    dyadic_values,
    exact_capacity_oracle,
    exact_cover_oracle,
    pd_oracle,
    random_clip,
)

CFG = SearchConfig()


def test_criterion_1_two_point_observable_diameter():
    start = time.perf_counter()
    for n in (1.0, 2.0, 8.0):
        X = generate_space(SpaceRecipe.parse(f"two_point:{n:g}"))
        for kappa in (0.1, 0.25, 0.4):
            assert gk.observable_diameter(X, kappa) == n
        for kappa in (0.5, 0.7):
            assert gk.observable_diameter(X, kappa) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: two-point od exact for n in (1,2,8), {elapsed:.3f}s")


def test_criterion_2_hss_path_agreement_and_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    # bit-exact agreement on 100 random metric instances
    for _ in range(100):
        n = int(rng.integers(2, 33))
        D = dyadic_metric(rng, n)
        mu = gk.ProbVector(dyadic_masses(rng, n))
        kappa = float(rng.uniform(0.05, 0.9))
        fast = gk.observable_diameter_hss(D, mu, kappa)
        slow = gk.observable_diameter(gk.embed_mm_space(D, mu), kappa)
        assert fast == slow

    # Hamming cube anchor, checked against the rational window oracle
    D8 = hamming_cube_matrix(8, True)
    mu8 = gk.ProbVector.uniform(256)
    vals, masses = binomial_profile(8)
    oracle = pd_oracle(vals, masses, 0.9)
    assert oracle == 0.5
    fast = gk.observable_diameter_hss(D8, mu8, 0.1)
    slow = gk.observable_diameter(gk.embed_mm_space(D8, mu8), 0.1)
    assert fast == slow == oracle

    # cubic-order scaling between n = 128 and n = 256: the two sizes are
    # timed in turn, best of 7 each, so a drift in machine load hits both
    def timed(D, m):
        t0 = time.perf_counter()
        gk.observable_diameter_hss(D, m, 0.1)
        return time.perf_counter() - t0

    sizes = [(D, gk.ProbVector.uniform(D.shape[0])) for D in (dyadic_metric(rng, 128), dyadic_metric(rng, 256))]
    for _ in range(2):  # warmup
        for D, m in sizes:
            timed(D, m)
    best = [np.inf, np.inf]
    for _ in range(7):
        for k, (D, m) in enumerate(sizes):
            best[k] = min(best[k], timed(D, m))
    ratio = best[1] / best[0]
    assert 4.0 <= ratio <= 16.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2 PASS: 100 instances bit-exact, cube od 0.5, "
        f"scaling ratio {ratio:.2f} in [4,16], {elapsed:.1f}s"
    )


def test_criterion_3_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(333)
    kappas = (0.05, 0.15, 0.3, 0.45)
    violations = 0
    for _ in range(200):
        X = dyadic_gds(rng, max_n=8, max_gens=2)
        Y = dyadic_gds(rng, max_n=8, max_gens=2)

        # (a) Ky Fan triangle inequality and 1-Lipschitz pullback, exact
        n = X.n_points
        f, g, h = (dyadic_values(rng, n) for _ in range(3))
        pv = X.mu
        if gk.ky_fan(f, h, pv) > gk.ky_fan(f, g, pv) + gk.ky_fan(g, h, pv):
            violations += 1
        p = random_clip(rng)
        if gk.ky_fan(p.apply(f), p.apply(g), pv) > gk.ky_fan(f, g, pv):
            violations += 1

        # (b) Prohorov bridge between two feature pushforwards
        mu = gk.pushforward(X.generators[0], X.mu)
        nu = gk.pushforward(X.generators[-1], X.mu)
        dp = prohorov(mu, nu)
        for eps in (dp + 0.02, dp + 0.15):
            for kappa in kappas:
                if kappa + eps >= 1.0:
                    continue
                lhs = partial_diameter(mu, 1 - (kappa + eps))
                if lhs > partial_diameter(nu, 1 - kappa) + 2 * eps + 1e-12:
                    violations += 1

        # (c) truncation at the Levy mean for kappa below 1/2
        centered_vals = mu.values - levy_mean(mu)
        centered = gk.DiscreteMeasureR(centered_vals, mu.masses)
        for kappa in (0.1, 0.25, 0.4):
            for R in (0.5, 1.0, 2.0, 4.0):
                clipped = gk.pushforward(
                    np.clip(centered.values, -R, R), gk.ProbVector(centered.masses)
                )
                clipped_pd = partial_diameter(clipped, 1 - kappa)
                if clipped_pd < R:
                    if partial_diameter(centered, 1 - kappa) != clipped_pd:
                        violations += 1

        # (d) od transfer at delta just above the certified upper bound
        delta = dconc_bracket(X, Y, CFG).upper + 1e-9
        for kappa in kappas:
            if kappa + delta >= 1.0:
                continue
            if gk.observable_diameter(X, kappa + delta) > gk.observable_diameter(Y, kappa) + 2 * delta:
                violations += 1
            if gk.observable_diameter(Y, kappa + delta) > gk.observable_diameter(X, kappa) + 2 * delta:
                violations += 1

    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 PASS: 200 pairs, zero violations in (a)-(d), {elapsed:.1f}s")


def test_criterion_4_bracket_certification():
    cfg = SearchConfig()
    X1 = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.5, 0.5])
    X2 = gk.validate_gds([0, 1], [[0.0, 2.0]], gk.TB_FAMILY, [0.5, 0.5])
    dc = dconc_bracket(X1, X2, cfg)
    assert dc.lower == pytest.approx(0.5, abs=1e-12)
    assert dc.upper == pytest.approx(0.5, abs=1e-12)
    bx = box_bracket(X1, X2, cfg)
    assert bx.lower == pytest.approx(0.5, abs=1e-12)
    assert bx.upper == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(44)
    for _ in range(100):
        A = dyadic_gds(rng, max_n=5, max_gens=2)
        B = dyadic_gds(rng, max_n=5, max_gens=2)
        d = dconc_bracket(A, B, CFG)
        b = box_bracket(A, B, CFG)
        assert d.lower <= d.upper + 1e-9
        assert b.lower <= b.upper + 1e-9

    for _ in range(40):
        Z = dyadic_gds(rng, max_n=4, max_gens=3)
        A = measurement(Z, MeasurementSpec((0,), 2.0))
        B = measurement(Z, MeasurementSpec(tuple(range(Z.n_generators)), 3.0))
        N, M = A.n_generators, B.n_generators
        b = box_bracket(A, B, CFG)
        d = dconc_bracket(A, B, CFG)
        assert b.lower <= (N + M) * d.upper + 1e-9

    print("ACCEPTANCE 4 PASS: brackets [0.5, 0.5] pinned; 100 pairs consistent; measurement bound holds")


def test_criterion_5_covering_and_capacity():
    constants = gk.validate_gds(["p"], [[3.0], [5.0], [-2.0]], gk.T_FAMILY, [1.0])
    for eps in (0.01, 0.1, 1.0):
        res = gk.covering_number(constants, eps)
        assert res.value == 1 and res.exact

    from gdskit.families import directed_orbit_matrix, symmetric_orbit_matrix

    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(30):
        X = dyadic_gds(rng, max_n=5, max_gens=4)
        eps = float(rng.choice([0.13, 0.23, 0.37, 0.53]))
        cov = gk.covering_number(X, eps)
        capa = gk.capacity(X.generators, eps, X.family, X.mu)
        assert cov.exact and capa.exact
        assert cov.value <= capa.value
        d = directed_orbit_matrix(X.generators, X.family, X.mu)
        s = symmetric_orbit_matrix(X.generators, X.family, X.mu)
        assert cov.value == exact_cover_oracle(d < eps)
        assert capa.value == exact_capacity_oracle(s, eps)
        checked += 1
    print(f"ACCEPTANCE 5 PASS: constants space cov=1; cov<=capa on {checked} exhaustive instances")


def test_criterion_6_extractor_guarantee():
    rng = np.random.default_rng(66)
    for _ in range(500):
        mu = dyadic_measure(rng)
        kappa = float(rng.uniform(0.01, 0.47))
        eps = float(rng.uniform(0.01, 0.49 - kappa))
        r = float(rng.uniform(0.2, 12.0))
        g, achieved = gk.extract_bounded(mu, kappa, eps, r)
        target = min(r, partial_diameter(mu, 1 - (kappa + eps)))
        assert target <= achieved + 2 * eps + 1e-12
        assert np.all(np.abs(g.apply(mu.values)) <= r)
    print("ACCEPTANCE 6 PASS: extractor guarantee on 500 measures; values within [-r, r]")


def test_criterion_7_staircase_series():
    # series weights and tail against the closed form
    for N in (1, 2, 3, 7):
        assert series_weight(N) == 1.0 / (2 * N * 2**N)
    for L in (1, 2, 5, 12):
        direct = sum(series_weight(N) for N in range(L + 1, L + 420))
        assert series_tail(L) == pytest.approx(direct, abs=1e-15)

    cfg = SearchConfig(level_budget=8)
    X = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.5, 0.5])
    sb = staircase_distance(X, X, 2, cfg)
    lo, hi = sb.interval
    assert lo <= 0.0 <= hi
    assert hi - lo <= sb.tail_bound + 1e-15

    rng = np.random.default_rng(77)
    for _ in range(50):
        A = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
        B = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
        sb = staircase_distance(A, B, 2, cfg)
        dc = dconc_bracket(A, B, cfg)
        assert sb.partial + sb.tail_bound <= dc.upper + sb.tail_bound + 1e-9

    # measurement coherence on 3-generator instances, exhaustively
    for seed in (1, 2, 3):
        rng2 = np.random.default_rng(seed)
        while True:
            Z = dyadic_gds(rng2, max_n=4, max_gens=3, span=2)
            if Z.n_generators == 3:
                break
        for M, N in ((1, 2), (1, 3), (2, 3)):
            direct = {
                canonical_form(m)
                for m in enumerate_measurements(Z, M, float(M), 1000).members
            }
            via = set()
            for member in enumerate_measurements(Z, N, float(N), 1000).members:
                for m2 in enumerate_measurements(member, M, float(M), 1000).members:
                    via.add(canonical_form(m2))
            assert direct == via
    print("ACCEPTANCE 7 PASS: series exact to 1e-15; self interval; transfer on 50 pairs; coherence")


def test_criterion_8_concentration_sweep():
    recipes = [f"hamming_cube:{k}:by_k" for k in (2, 4, 6, 8)]
    text_a = sweep(recipes, [0.1])
    text_b = sweep(recipes, [0.1])

    def parse(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        header, body = rows[0], rows[1:]
        return header, body

    _, body = parse(text_a)
    ods = {float(r[1]): float(r[3]) for r in body}
    ks = sorted(ods)
    assert ks == [2.0, 4.0, 6.0, 8.0]
    series = [ods[k] for k in ks]
    assert all(a >= b for a, b in zip(series, series[1:]))
    assert ods[2.0] == 1.0
    assert ods[8.0] == 0.5
    for k in (2.0, 8.0):
        vals, masses = binomial_profile(int(k))
        assert ods[k] == pd_oracle(vals, masses, 0.9)
    assert ods[8.0] < ods[2.0]

    strip = lambda text: [",".join(r[:-1]) for r in (line.split(",") for line in text.strip().splitlines())]
    assert strip(text_a) == strip(text_b)
    print(f"ACCEPTANCE 8 PASS: cube sweep od {series} nonincreasing; CSV reproducible")
