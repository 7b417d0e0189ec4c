import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import gdskit as gk
from gdskit import _kernels, distances, laws
from gdskit._kernels import linear_assignment
from gdskit.distances import (
    Bracket,
    CouplingMatrix,
    SearchConfig,
    _assignment_cost,
    _candidate_couplings,
    _delta_stars,
    _hausdorff,
    _jump_kappas,
    _nw_corner,
    OdLowerBound,
    box_bracket,
    box_objective,
    dconc_bracket,
    dconc_lower_via_od,
    dconc_pi,
    lower_bound,
)
from gdskit.errors import ComputationError, EmptySupport, MarginalMismatch, ValidationError
from gdskit.laws import LawLowerBound, SearchLowerBound, orbit_law_distance
from gdskit.stats import _support_flow
from gdskit.transforms import MeasurementSpec, measurement
from oracles import (
    _hall_flow,
    box_objective_full_scan,
    dconc_pi_full_scan,
    dyadic_gds,
    delta_star_exact,
    delta_star_loop,
    exact_box_oracle,
    hausdorff_full_scan,
    jump_kappas_exact,
    law_bound_oracle,
    lip1_link_sets_oracle,
    od_exact,
    od_lower_exact,
    od_steps_exact,
    od_steps_loop,
    pairwise_bound_oracle,
    rational_gds,
)

GRID = tuple([0.01] + [round(0.05 * i, 2) for i in range(1, 10)])
CFG = SearchConfig()


def two_point(n, family=gk.TB_FAMILY):
    return gk.validate_gds([0, 1], [[0.0, float(n)]], family, [0.5, 0.5])


class TestCouplingMatrix:
    def test_marginal_check(self):
        pi = CouplingMatrix(np.diag([0.5, 0.5]))
        pi.check_marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(MarginalMismatch):
            pi.check_marginals(np.array([0.25, 0.75]), np.array([0.5, 0.5]))

    def test_negative_rejected(self):
        with pytest.raises(MarginalMismatch):
            CouplingMatrix(np.array([[-0.1, 0.6], [0.5, 0.0]]))


class TestDconcPi:
    def test_identity_coupling_zero(self):
        rng = np.random.default_rng(3)
        X = dyadic_gds(rng)
        assert dconc_pi(X, X, np.diag(X.masses)) == 0.0

    def test_two_point_product_self(self):
        X = two_point(1.0)
        pi = np.outer(X.masses, X.masses)
        assert dconc_pi(X, X, pi) == 0.5

    def test_inactive_clip_diagonal_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = dyadic_gds(rng)
            R = float(np.abs(X.generators).max()) + 1.0
            Y = measurement(X, MeasurementSpec(tuple(range(X.n_generators)), R))
            assert dconc_pi(X, Y, np.diag(X.masses)) == 0.0

    def test_value_translation_isometry_zero(self):
        # shifting all generator values is invisible under the diagonal
        # coupling when the family contains translations
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = dyadic_gds(rng, family=gk.T_FAMILY)
            p = gk.ClipMap.translation(1.25)
            Y = gk.compose_family(X, p)
            assert dconc_pi(X, Y, np.diag(X.masses)) == 0.0

    def test_marginal_mismatch(self):
        X, Y = two_point(1.0), two_point(2.0)
        with pytest.raises(MarginalMismatch):
            dconc_pi(X, Y, np.full((2, 2), 0.3))


class TestDconcLowerViaOd:
    def test_identical_spaces(self):
        X = two_point(1.0)
        assert dconc_lower_via_od(X, X, GRID) == 0.0

    def test_separated_two_points(self):
        assert dconc_lower_via_od(two_point(1.0), two_point(2.0), GRID) == pytest.approx(
            0.49, abs=1e-12
        )

    def test_equal_od_profiles_give_zero(self):
        # same od profile, different feature geometry: bound is not tight
        gens_a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.5, 1.0]])
        gens_b = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 1.0]])
        A = gk.validate_gds(range(3), gens_a, gk.ID_FAMILY, [1 / 4, 1 / 4, 1 / 2])
        B = gk.validate_gds(range(3), gens_b, gk.ID_FAMILY, [1 / 4, 1 / 4, 1 / 2])
        for kappa in GRID:
            assert gk.observable_diameter(A, kappa) == gk.observable_diameter(B, kappa)
        assert dconc_lower_via_od(A, B, GRID) == 0.0


class TestWindowBreakpoints:
    """The od step function equals the reference loop's bytes and
    observable_diameter at every jump."""

    def assert_loop(self, X):
        steps = X.od_steps
        for fast, loop in zip((steps.masses, steps.values, steps.near), od_steps_loop(X)):
            assert fast.dtype == loop.dtype and fast.tobytes() == loop.tobytes()
        assert_od_at_jumps(X)

    def test_non_dyadic_masses(self):
        rng = np.random.default_rng(61)
        for trial in range(40):
            if trial % 2:  # masses k / 11
                n = int(rng.integers(1, 12))
                w = (rng.multinomial(11 - n, np.full(n, 1.0 / n)) + 1) / 11
            else:
                n = int(rng.integers(1, 40))
                w = rng.dirichlet(np.ones(n))
            gens = rng.integers(0, 6, size=(int(rng.integers(1, 4)), n)).astype(float)
            gens[0] = np.arange(n)  # points stay distinct
            self.assert_loop(gk.validate_gds(range(n), gens, gk.ID_FAMILY, w))

    def test_merges_across_blocks(self, monkeypatch):
        # small blocks fold many partial step lists into one
        for block in (1, 7, 64):
            monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", block)
            self.test_non_dyadic_masses()

    def test_benchmark_spaces(self):
        for text in (
            "hamming_cube:5:by_k", "hamming_cube:6:by_k", "hamming_cube:7:by_k",
            "path:64:0.0625", "path:100:0.01", "random_cloud:64:4:linf:5",
            "random_cloud:80:3:linf:6", "random_cloud:96:3:linf:7", "random_cloud:128:3:l2:8",
        ):
            self.assert_loop(gk.generate_space(gk.SpaceRecipe.parse(text)))

    def test_scratch_is_one_block(self):
        # one 1000-point feature: 500k windows; masses 1/1000 are not
        # dyadic, so the pass that finds `near` runs too
        n = 1000
        X = gk.validate_gds(range(n), [np.arange(n, dtype=float)], gk.ID_FAMILY, np.full(n, 1.0 / n))
        tracemalloc.start()
        steps = X.od_steps
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert steps.values.tolist() == list(range(n))
        assert peak < 0.1 * 8 * n * n, peak


def assert_od_at_jumps(X):
    """OdSteps equals observable_diameter bit for bit at every jump
    kappa and on a grid."""
    steps = X.od_steps
    kappas = [k for k in (1.0 - steps.masses).tolist() if 0.0 < k < 1.0] + list(GRID)
    for kappa in kappas:
        assert float(steps(kappa)) == gk.observable_diameter(X, kappa), kappa


class TestDeltaScan:
    """The vectorized scan equals the one-candidate-at-a-time loop bit
    for bit, on spaces whose window masses repeat with different last
    bits (masses 1/n for n not a power of 2)."""

    @pytest.mark.parametrize("a, b", [
        ("path:12:0.1", "random_cloud:10:2:linf:3"),
        ("random_cloud:14:3:l2:5", "random_cloud:12:2:linf:6"),
        ("hamming_cube:3:by_k", "path:7:0.5"),
    ])
    def test_matches_loop(self, a, b):
        X, Y = (gk.generate_space(gk.SpaceRecipe.parse(t)) for t in (a, b))
        kappas = np.concatenate([_jump_kappas(X.od_steps, Y.od_steps)[1:], GRID])
        for kappa, delta in zip(kappas, _delta_stars(X.od_steps, Y.od_steps, kappas)):
            assert delta == delta_star_loop(X, Y, float(kappa)), kappa

    def test_benchmark_pair_on_grid(self):
        # two benchmark spaces, masses 1/96 and 1/100
        X, Y = (gk.generate_space(gk.SpaceRecipe.parse(t)) for t in ("random_cloud:96:3:linf:7", "path:100:0.01"))
        for kappa, delta in zip(GRID, _delta_stars(X.od_steps, Y.od_steps, np.array(GRID))):
            assert delta == delta_star_loop(X, Y, kappa), kappa


class TestExactLowerBound:
    """dconc_lower_via_od(X, Y) against the exact supremum over kappa."""

    def pairs(self):
        rng = np.random.default_rng(67)
        for trial in range(60):
            denoms = (7, 13) if trial % 2 else (13, 7)
            yield rational_gds(rng, denoms[0]), rational_gds(rng, denoms[1])

    def test_matches_oracle(self):
        for (X, mx), (Y, my) in self.pairs():
            sx, sy = od_steps_exact(X, mx), od_steps_exact(Y, my)
            exact = od_lower_exact(sx, sy)
            bound = dconc_lower_via_od(X, Y)
            assert abs(bound - exact) <= 1e-12, (bound, exact)
            # the bound names a kappa whose exact value it attains
            named = min(jump_kappas_exact(sx, sy), key=lambda k: abs(k - bound.kappa))
            assert abs(float(delta_star_exact(sx, sy, named)) - bound) <= 1e-12

    def test_every_evaluated_kappa_is_valid(self):
        for (X, mx), (Y, my) in self.pairs():
            sx, sy = od_steps_exact(X, mx), od_steps_exact(Y, my)
            exact_kappas = jump_kappas_exact(sx, sy)
            kappas = _jump_kappas(X.od_steps, Y.od_steps)
            for kappa, delta in zip(kappas, _delta_stars(X.od_steps, Y.od_steps, kappas)):
                # each float kappa stands for the exact jump nearest to it
                exact_kappa = min(exact_kappas, key=lambda k: abs(k - kappa))
                assert abs(exact_kappa - Fraction(kappa)) <= 1e-15
                assert abs(delta - delta_star_exact(sx, sy, exact_kappa)) <= 1e-12
            grid = np.array(GRID)
            for kappa, delta in zip(GRID, _delta_stars(X.od_steps, Y.od_steps, grid)):
                assert abs(delta - delta_star_exact(sx, sy, Fraction(kappa))) <= 1e-12
            assert dconc_lower_via_od(X, Y, GRID) <= dconc_lower_via_od(X, Y) + 1e-12

    def test_no_kappa_beats_the_jumps(self):
        # the exact supremum over a dense rational grid and the midpoints
        # between jumps stays at the value taken over the jumps
        for (X, mx), (Y, my) in self.pairs():
            sx, sy = od_steps_exact(X, mx), od_steps_exact(Y, my)
            best = od_lower_exact(sx, sy)
            jumps = jump_kappas_exact(sx, sy) + [Fraction(1)]
            probes = [(a + b) / 2 for a, b in zip(jumps, jumps[1:])]
            probes += [Fraction(i, 97) for i in range(1, 97)]
            assert all(delta_star_exact(sx, sy, k) <= best for k in probes)

    def test_steps_match_oracle(self):
        for (X, mx), _ in self.pairs():
            exact = od_steps_exact(X, mx)
            kappas = [1 - m for m, _ in exact if 0 < 1 - m < 1] + [Fraction(1, 97), Fraction(50, 97)]
            for kappa in kappas:
                assert float(X.od_steps(float(kappa))) == od_exact(exact, kappa)

    def test_roadmap_pairs(self):
        # the default 10-point grid gave 0.10111, 0.15667 and 0.025
        for a, b, want in (
            ("path:8:1", "path:9:1", 0.11111),
            ("path:5:1", "path:6:1", 0.16667),
            ("random_cloud:16:2:linf:1", "random_cloud:16:2:linf:2", 0.02832),
        ):
            X, Y = (gk.generate_space(gk.SpaceRecipe.parse(t)) for t in (a, b))
            grid = dconc_lower_via_od(X, Y, GRID)
            assert dconc_lower_via_od(X, Y) == pytest.approx(want, abs=5e-6)
            assert grid < want - 1e-3

    def test_zero_bound_names_no_kappa(self):
        X = two_point(1.0)
        bound = dconc_lower_via_od(X, X)
        assert bound == 0.0 and bound.describe() == "od transfer: no kappa rules out a positive delta"


class TestDconcBracket:
    def test_self_bracket_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = dyadic_gds(rng, max_n=4, max_gens=2)
            br = dconc_bracket(X, X, CFG)
            assert br.lower == 0.0 and br.upper == 0.0

    def test_permuted_copy_bracket_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X = dyadic_gds(rng, max_n=6, max_gens=2)
            perm = rng.permutation(X.n_points)
            Y = gk.FiniteGDS(
                tuple(X.point_ids[i] for i in perm),
                X.generators[:, perm],
                X.family,
                gk.ProbVector(X.masses[perm]),
            )
            br = dconc_bracket(X, Y, CFG)
            assert br.upper == 0.0
            assert br.lower == 0.0

    def test_two_point_pair_bracket(self):
        # od is 1 and 2 below kappa = 1/2: the limit kappa -> 0+ gives 1/2
        br = dconc_bracket(two_point(1.0), two_point(2.0), CFG)
        assert br.lower == pytest.approx(0.5, abs=1e-12)
        assert br.upper == pytest.approx(0.5, abs=1e-12)
        assert br.lower_witness == "od transfer at kappa -> 0+: delta=0.5"

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            X = dyadic_gds(rng, max_n=4, max_gens=2)
            Y = dyadic_gds(rng, max_n=4, max_gens=2)
            a = dconc_bracket(X, Y, CFG)
            b = dconc_bracket(Y, X, CFG)
            assert a.lower == b.lower and a.upper == b.upper

    def test_bracket_consistency_random(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            X = dyadic_gds(rng, max_n=4, max_gens=2)
            Y = dyadic_gds(rng, max_n=4, max_gens=2)
            br = dconc_bracket(X, Y, CFG)
            assert br.lower <= br.upper + 1e-9
            assert 0.0 <= br.lower and br.upper <= 1.0 + 1e-12

    @staticmethod
    def searched_pairs():
        """T and TB pairs of up to 5 points, on many of which the local
        search runs until its budget is spent."""
        rng = np.random.default_rng(5)
        for k in range(40):
            family = (gk.TB_FAMILY, gk.T_FAMILY)[k % 2]
            X = dyadic_gds(rng, max_n=5, max_gens=2, family=family)
            yield X, dyadic_gds(rng, max_n=5, max_gens=2, family=family)

    def test_no_coupling_scored_twice(self, monkeypatch):
        # the local search re-scored couplings that it, the other local
        # search or the candidate list had scored before
        value = distances._dconc_value
        keys = []
        def recorded(X, Y, pi, cutoff):
            keys.append(np.asarray(pi).tobytes())
            return value(X, Y, pi, cutoff)

        monkeypatch.setattr(distances, "_dconc_value", recorded)
        searched = 0
        for X, Y in self.searched_pairs():
            keys.clear()
            dconc_bracket(X, Y)
            assert len(set(keys)) == len(keys)
            searched += len(keys) > 20
        assert searched >= 5

    def test_witness_names_the_local_search_only_when_it_won(self):
        # the witness said "after local search" on candidates the search
        # never improved, and dropped it when the search closed the bracket
        won = 0
        for X, Y in self.searched_pairs():
            br = dconc_bracket(X, Y)
            A, B = (Y, X) if distances._oriented(X, Y) else (X, Y)
            label = br.upper_witness.removesuffix(", bracket closed")
            name = label.removeprefix("coupling ").removesuffix(" after local search")
            # replay: the named candidate's value, which the search beat or is
            candidate = dconc_pi(A, B, dict(_candidate_couplings(A, B, SearchConfig()))[name])
            if label.endswith(" after local search"):
                won += 1
                assert br.upper < candidate
            else:
                assert br.upper == candidate
        assert won >= 5


class TestSearchConfig:
    def test_rejects_negative_seed_and_level_budget(self):
        # a negative seed reached numpy's default_rng, which raised ValueError
        with pytest.raises(ValidationError, match="seed"):
            SearchConfig(seed=-1)
        with pytest.raises(ValidationError, match="level budget"):
            SearchConfig(level_budget=0)
        assert SearchConfig(seed=0) == SearchConfig()


class TestBoxObjective:
    def test_diagonal_full_support_zero(self):
        X = two_point(1.0)
        pi = np.diag(X.masses)
        assert box_objective(X, X, pi, [(0, 0), (1, 1)]) == 0.0

    def test_singleton_support(self):
        X, Y = two_point(1.0), two_point(2.0)
        pi = np.diag([0.5, 0.5])
        assert box_objective(X, Y, pi, [(0, 0)]) == 0.5

    def test_full_matched_support(self):
        X, Y = two_point(1.0), two_point(2.0)
        pi = np.diag([0.5, 0.5])
        assert box_objective(X, Y, pi, [(0, 0), (1, 1)]) == 1.0

    def test_empty_support_rejected(self):
        X = two_point(1.0)
        with pytest.raises(EmptySupport):
            box_objective(X, X, np.diag(X.masses), [])


LIP1 = gk.FamilyTag("lip1")
FAMILIES = (gk.ID_FAMILY, gk.T_FAMILY, gk.B_FAMILY, gk.TB_FAMILY, LIP1)


class TestPrunedObjectives:
    """dconc_pi and box_objective stop an inner minimum once it cannot
    raise the running maximum; the values must stay the full scan's."""

    def test_match_full_scan(self):
        rng = np.random.default_rng(11)
        for family in FAMILIES:
            for _ in range(6):
                X = dyadic_gds(rng, max_n=5, max_gens=4, family=family)
                Y = dyadic_gds(rng, max_n=5, max_gens=4, family=family)
                pi = np.outer(X.masses, Y.masses)
                assert dconc_pi(X, Y, pi) == dconc_pi_full_scan(X, Y, pi)
                pairs = [(i, j) for i in range(X.n_points) for j in range(Y.n_points)]
                keep = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
                S = [pairs[k] for k in sorted(keep)]
                assert box_objective(X, Y, pi, S) == box_objective_full_scan(X, Y, pi, S)

    def test_fewer_orbit_calls_on_pinned_pair(self, monkeypatch):
        X = gk.validate_gds(range(4), [[0, 1, 2, 3], [0, 2, 4, 6], [3, 0, 1, 2]], gk.TB_FAMILY, [0.25] * 4)
        Y = gk.validate_gds(range(4), [[0, 1, 2, 3], [1, 0, 3, 2], [0, 4, 0, 4]], gk.TB_FAMILY, [0.25] * 4)
        pi = np.diag(X.masses)
        full = 2 * X.n_generators * Y.n_generators
        for name, objective in (
            ("dist_to_orbit", lambda: dconc_pi(X, Y, pi)),
            ("dist_to_orbit_sup", lambda: box_objective(X, Y, pi, [(i, i) for i in range(4)])),
        ):
            calls = count_calls(monkeypatch, name)
            objective()
            assert 0 < len(calls) < full, name


def no_cutoff(monkeypatch):
    """Score every search trial in full: the cutoffs become infinite."""
    for name in ("_dconc_value", "_box_value"):
        real = getattr(distances, name)
        monkeypatch.setattr(distances, name, lambda *args, real=real: real(*args[:-1], math.inf))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(distances, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distances, name, counting)
    return calls


class TestIncumbentCutoff:
    """Search trials stop scoring once they cannot beat the incumbent;
    brackets must stay those of the full scoring."""

    def test_hausdorff_cutoff_contract(self):
        rng = np.random.default_rng(67)
        for _ in range(2000):
            m, k = (int(x) for x in rng.integers(1, 6, size=2))
            fwd = rng.integers(0, 5, size=(m, k)) / 4
            bwd = rng.integers(0, 5, size=(k, m)) / 4
            full = hausdorff_full_scan(fwd, bwd)
            cutoff = float(rng.choice([rng.integers(0, 6) / 4, rng.random() * 1.25, -math.inf, math.inf]))
            value = _hausdorff(range(m), range(k), lambda a, b: fwd[a, b], lambda b, a: bwd[b, a], cutoff)
            if full < cutoff:
                assert value == full
            else:
                assert value >= cutoff

    def test_brackets_match_full_scoring(self, monkeypatch):
        rng = np.random.default_rng(71)
        for family in FAMILIES:
            for _ in range(6):
                X = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                Y = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                fast = (dconc_bracket(X, Y, CFG), box_bracket(X, Y, CFG))
                with monkeypatch.context() as m:
                    no_cutoff(m)
                    full = (dconc_bracket(X, Y, CFG), box_bracket(X, Y, CFG))
                assert repr(fast) == repr(full)

    def test_fewer_orbit_calls_on_pinned_pair(self, monkeypatch):
        X = gk.validate_gds(range(4), [[0, 1, 2, 3], [0, 2, 4, 6], [3, 0, 1, 2]], gk.TB_FAMILY, [0.125, 0.25, 0.25, 0.375])
        Y = gk.validate_gds(range(4), [[0, 1, 2, 3], [1, 0, 3, 2], [0, 4, 0, 4]], gk.TB_FAMILY, [0.25, 0.125, 0.375, 0.25])
        # the law bound closes the dconc bracket at its first candidate, and
        # a closed bracket runs no local search; the od bound alone keeps
        # both searches open, so that the cutoffs have trials to cut.
        # link_lower's search over every generator is stubbed too: its
        # support would close the box bracket first. The
        # masses differ: with equal ones every mass-cycle move from a
        # permutation is another permutation, all of them candidates, and
        # the dconc local search has no new coupling to score
        monkeypatch.setattr(distances, "law_lower", lambda X, Y, box, start, budget: start)
        monkeypatch.setattr(distances, "link_lower", lambda X, Y, start, budget: start)
        for name, bracket in (("dist_to_orbit", dconc_bracket), ("dist_to_orbit_sup", box_bracket)):
            counts = []
            for cutoff in (True, False):
                with monkeypatch.context() as m:
                    if not cutoff:
                        no_cutoff(m)
                    calls = count_calls(m, name)
                    bracket(X, Y, CFG)
                counts.append(len(calls))
            assert 0 < counts[0] < counts[1], (name, counts)


class TestBoxBracket:
    def test_self_zero(self):
        X = two_point(1.0)
        br = box_bracket(X, X, CFG)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_permuted_copy_upper_zero(self):
        # masses k / sum(k) add up to 1 only up to rounding; the full
        # support of a perfect matching must still miss no mass. Above
        # PERMUTATION_CAP points only the assignment candidate is sure to
        # find that matching
        rng = np.random.default_rng(41)
        for family in FAMILIES:
            for _ in range(25):
                n = int(rng.integers(2, 9))
                k = rng.integers(1, 12, size=n)
                values = rng.choice(15, size=n, replace=False) / 7.0
                X = gk.validate_gds(range(n), [values], family, k / k.sum())
                perm = rng.permutation(n)
                Y = gk.validate_gds(range(n), [values[perm]], family, X.masses[perm])
                assert box_bracket(X, Y, CFG).upper == 0.0
                assert dconc_bracket(X, Y, CFG).upper == 0.0

    def test_lip1_permuted_copy_uppers_zero(self):
        # a lip1 orbit holds its own generator at distance 0, so both
        # brackets of a permuted copy close at 0
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = rng.integers(1, 12, size=n)
            values = rng.choice(15, size=n, replace=False) / 7.0
            X = gk.validate_gds(range(n), [values], LIP1, k / k.sum())
            perm = rng.permutation(n)
            Y = gk.validate_gds(range(n), [values[perm]], LIP1, X.masses[perm])
            assert box_bracket(X, Y, CFG).upper == 0.0
            assert dconc_bracket(X, Y, CFG).upper == 0.0

    def test_two_point_pair(self):
        br = box_bracket(two_point(1.0), two_point(2.0), CFG)
        assert br.lower == pytest.approx(0.5, abs=1e-12)
        assert br.upper == pytest.approx(0.5, abs=1e-12)
        assert br.lower_witness.startswith("od transfer at kappa -> 0+: delta=0.5")

    def test_upper_at_least_dconc_lower(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            X = dyadic_gds(rng, max_n=4, max_gens=2)
            Y = dyadic_gds(rng, max_n=4, max_gens=2)
            box = box_bracket(X, Y, CFG)
            dc = dconc_bracket(X, Y, CFG)
            assert dc.lower <= box.upper + 1e-9
            assert box.lower <= box.upper + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        X = dyadic_gds(rng, max_n=4, max_gens=2)
        Y = dyadic_gds(rng, max_n=4, max_gens=2)
        a = box_bracket(X, Y, CFG)
        b = box_bracket(Y, X, CFG)
        assert a.lower == b.lower and a.upper == b.upper

    def test_measurement_bound(self):
        # box(X, Y) <= (N + M) dconc(X, Y) for N- and M-measurements
        rng = np.random.default_rng(31)
        for _ in range(8):
            Z = dyadic_gds(rng, max_n=4, max_gens=3)
            n_spec = MeasurementSpec((0,), 2.0)
            specs = [i for i in range(Z.n_generators)]
            m_spec = MeasurementSpec(tuple(specs), 3.0)
            X = measurement(Z, n_spec)
            Y = measurement(Z, m_spec)
            N, M = X.n_generators, Y.n_generators
            box = box_bracket(X, Y, CFG)
            dc = dconc_bracket(X, Y, CFG)
            assert box.lower <= (N + M) * dc.upper + 1e-9


class TestCandidates:
    def test_couplings_have_valid_marginals(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            X = dyadic_gds(rng, max_n=5, max_gens=2)
            Y = dyadic_gds(rng, max_n=5, max_gens=2)
            for name, pi in _candidate_couplings(X, Y, CFG):
                CouplingMatrix(pi).check_marginals(X.masses, Y.masses)

    def test_each_matrix_once(self):
        # on mass-matched equal sizes the diagonal coupling was a copy of
        # the identity permutation, and random vertices repeat earlier
        # candidates; a copy was scored again and could take both of
        # dconc_bracket's local-search slots
        rng = np.random.default_rng(47)
        for k in range(60):
            X = dyadic_gds(rng, max_n=6, max_gens=2)
            n = X.n_points
            masses = np.full(n, 1.0 / n) if k % 3 == 0 else X.masses
            X = gk.validate_gds(range(n), X.generators, X.family, masses)
            order = np.arange(n) if k % 3 == 1 else rng.permutation(n)
            Y = gk.validate_gds(range(n), X.generators[:, order] / 2 + 0.25, X.family, masses[order])
            cands = _candidate_couplings(X, Y, SearchConfig())
            assert len({pi.tobytes() for _, pi in cands}) == len(cands)

    def test_bracket_inversion_guard(self):
        with pytest.raises(Exception):
            Bracket(lower=0.5, upper=0.1)

    def test_any_inverted_bracket_is_refused(self):
        # no allowance: a lower bound above its upper one, by however
        # little, is unsound and fails loudly
        with pytest.raises(ComputationError):
            Bracket(0.5 + 1e-10, 0.5)
        assert Bracket(0.5, 0.5).lower == 0.5


def tie_heavy_costs(rng, count, max_n):
    """Square cost matrices with many tied optima: small integers, dyadic
    values, and small costs under the 1e6 mass penalty of the candidate."""
    for k in range(count):
        n = int(rng.integers(1, max_n + 1))
        kind = k % 4
        if kind == 0:
            yield rng.integers(0, 3, (n, n)).astype(float)
        elif kind == 1:
            yield rng.integers(0, 9, (n, n)) / 8.0
        elif kind == 2:
            yield rng.normal(size=(n, n))
        else:
            m = rng.integers(1, 4, n) / 8.0
            penalty = 1e6 * np.abs(m[:, None] - rng.permutation(m)[None, :])
            yield rng.integers(0, 5, (n, n)) / 4.0 + penalty


class TestAssignment:
    def test_cost_is_brute_force_minimum(self):
        rng = np.random.default_rng(59)
        for cost in tie_heavy_costs(rng, 400, 7):
            n = cost.shape[0]
            rows, cols = linear_assignment(cost)
            assert np.array_equal(rows, np.arange(n))
            assert np.array_equal(np.sort(cols), np.arange(n))
            perms = np.array(list(permutations(range(n))))
            best = cost[np.arange(n), perms].sum(axis=1).min()
            # the solver compares rounded reduced costs, so on normal costs
            # it may take a permutation whose sum is an ulp above the best
            assert cost[rows, cols].sum() == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_matches_scipy_tie_choice(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(61)
        for cost in tie_heavy_costs(rng, 2400, 12):
            rows, cols = linear_assignment(cost)
            ref_rows, ref_cols = scipy_optimize.linear_sum_assignment(cost)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols), cost

    def test_cost_matches_broadcast_sum_bit_for_bit(self):
        def aligned(Z):
            order = sorted(range(Z.n_generators), key=lambda r: tuple(np.sort(Z.generators[r])))
            return Z.generators[order]

        rng = np.random.default_rng(67)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            X, Y = (
                gk.FiniteGDS(
                    tuple(range(n)),
                    rng.normal(size=(int(rng.integers(1, 40)), n)),
                    gk.TB_FAMILY,
                    gk.ProbVector(np.full(n, 1.0 / n)),
                )
                for _ in range(2)
            )
            shared = min(X.n_generators, Y.n_generators)
            ax, ay = aligned(X)[:shared], aligned(Y)[:shared]
            expected = np.abs(ax[:, :, None] - ay[:, None, :]).sum(axis=0)
            expected = expected + 1e6 * np.abs(X.masses[:, None] - Y.masses[None, :])
            assert np.array_equal(_assignment_cost(X, Y), expected)

    def test_cost_memory_is_quadratic(self):
        # embedded spaces have as many generators as points, so a stacked
        # (shared, n, n) difference tensor would be cubic in n
        n = 200
        rng = np.random.default_rng(71)
        X, Y = (
            gk.FiniteGDS(tuple(range(n)), rng.normal(size=(n, n)), gk.TB_FAMILY, gk.ProbVector.uniform(n))
            for _ in range(2)
        )
        tracemalloc.start()
        try:
            _assignment_cost(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4 n^2 doubles with the sort keys of the row alignment; a
        # stacked tensor takes 400
        assert peak <= 8 * n * n * 8


def small_law(rng, max_atoms):
    """A law of at most max_atoms atoms k/8 in [-1.5, 1.5], with masses
    k/7 or k/11, which floats only approximate."""
    n = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.choice(np.arange(-12, 13), size=n, replace=False)) / 8
    denom = int(rng.choice([7, 11]))
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    return gk.DiscreteMeasureR(values, np.diff(np.concatenate([[0], cuts, [denom]])) / denom)


def small_pair(rng, family, shapes=((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 3))):
    """Two data sets with few point pairs: one or two generators of
    values k/8 and masses k/7."""
    sets = []
    for n in shapes[int(rng.integers(len(shapes)))]:
        gens = int(rng.integers(1, 3))
        while True:
            G = rng.integers(-12, 13, size=(gens, n)) / 8
            if len({tuple(col) for col in G.T}) == n:
                break
        k = rng.multinomial(7 - n, np.full(n, 1.0 / n)) + 1
        sets.append(gk.validate_gds(range(n), G, family, k / 7))
    return sets


def rational_masses(rng, n):
    denom = int(rng.choice([7, 11]))
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [denom]])) / denom


def random_support(rng, nx, ny):
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    keep = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
    return [pairs[k] for k in sorted(keep)]


class TestSupportFlow:
    """stats._support_flow: a coupling that puts on a support S the most
    mass any coupling can, the coupling each box support is scored under."""

    def test_mass_on_support_is_the_max_flow(self):
        rng = np.random.default_rng(157)
        for _ in range(300):
            nx, ny = (int(k) for k in rng.integers(1, 6, size=2))
            mx, my = rational_masses(rng, nx), rational_masses(rng, ny)
            S = random_support(rng, nx, ny)
            pi = _support_flow(mx, my, S)
            linked = [{i for i, j in S if j == col} for col in range(ny)]
            want = _hall_flow([Fraction(m) for m in mx], [Fraction(m) for m in my], linked)
            assert abs(sum(pi[i, j] for i, j in S) - float(want)) <= 1e-15
            # raises unless the entries are nonnegative and the marginals
            # within MARGINAL_TOL
            CouplingMatrix(pi).check_marginals(mx, my)

    def test_box_value_at_most_any_couplings(self):
        rng = np.random.default_rng(163)
        for family in FAMILIES:
            for _ in range(10):
                X, Y = (
                    gk.validate_gds(range(Z.n_points), Z.generators, family, rational_masses(rng, Z.n_points))
                    for Z in (dyadic_gds(rng, max_n=4, max_gens=2, family=family) for _ in range(2))
                )
                S = random_support(rng, X.n_points, Y.n_points)
                best = box_objective(X, Y, _support_flow(X.masses, Y.masses, S), S)
                for _ in range(4):
                    pi = sum(
                        w * _nw_corner(X.masses, Y.masses, rng.permutation(X.n_points), rng.permutation(Y.n_points))
                        for w in rng.dirichlet(np.ones(3))
                    )
                    assert best <= box_objective(X, Y, pi, S)

    def test_box_search_scores_supports_under_their_flow(self, monkeypatch):
        # every box scoring, a candidate's full support included, runs on
        # the support's max-flow coupling: the search holds supports only
        real, seen = distances._box_value, []

        def scoring(X, Y, pi, S, cutoff):
            seen.append(np.array_equal(pi, _support_flow(X.masses, Y.masses, S)))
            return real(X, Y, pi, S, cutoff)

        monkeypatch.setattr(distances, "_box_value", scoring)
        rng = np.random.default_rng(167)
        for family in FAMILIES:
            for _ in range(4):
                box_bracket(dyadic_gds(rng, max_n=4, family=family), dyadic_gds(rng, max_n=4, family=family), CFG)
        assert seen and all(seen)


class TestLawBound:
    def test_engine_matches_rational_oracle(self):
        rng = np.random.default_rng(131)
        for kind, cases in (("id", 20), ("T", 20), ("B", 20), ("TB", 10)):
            for i in range(cases):
                atoms = 4 if kind != "TB" or i < 2 else 3
                A, B = small_law(rng, atoms), small_law(rng, atoms)
                for box in (False, True):
                    want = float(law_bound_oracle(A.values, A.masses, B.values, B.masses, kind, box))
                    got = orbit_law_distance(A, B, kind, box)
                    assert abs(got - want) <= 1e-12, (kind, box, A.atoms, B.atoms)
                    # between a running maximum and a cap: exact inside, at most
                    # the maximum below it, at least the cap above it, all up
                    # to the rounding of a mass sum
                    best, cap = sorted(float(rng.choice([want / 2, want, want + 0.125])) for _ in range(2))
                    got = orbit_law_distance(A, B, kind, box, best, cap)
                    if want <= best:
                        assert got <= best + 1e-12
                    elif want >= cap:
                        assert got >= cap - 1e-12
                    else:
                        assert abs(got - want) <= 1e-12

    def test_lip1_engine_matches_rational_oracle(self):
        # a lip1 test of eps takes the largest max-flow over the McShane
        # cliques of the two laws' atoms; the oracle tries every set of
        # pairs of atoms that one 1-Lipschitz map links
        rng = np.random.default_rng(241)
        for shape in ((2, 2), (2, 4), (4, 2), (2, 3), (3, 2), (1, 4)) * 3:
            A, B = (small_law(rng, k) for k in shape)
            for box in (False, True):
                want = float(law_bound_oracle(A.values, A.masses, B.values, B.masses, "lip1", box))
                assert abs(orbit_law_distance(A, B, "lip1", box) - want) <= 1e-12, (box, A.atoms, B.atoms)

    def test_lip1_law_bound_below_the_orbit_distance(self):
        # two features on the same points: the identity coupling puts f and
        # p o g within their Ky Fan distance, so the dconc law form is at
        # most the Ky Fan distance from f to the lip1 orbit of g
        rng = np.random.default_rng(251)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            f, g = rng.integers(-12, 13, size=(2, n)) / 8
            mu = gk.ProbVector(rational_masses(rng, n))
            law = orbit_law_distance(gk.pushforward(f, mu), gk.pushforward(g, mu), "lip1", False)
            assert law <= gk.dist_to_orbit(f, g, LIP1, mu).value + 1e-12

    def test_box_form_below_exact_box(self, monkeypatch):
        rng = np.random.default_rng(137)
        for family in FAMILIES:
            for _ in range(5):
                X, Y = small_pair(rng, family)
                # the same pair with values k/7, which floats only approximate
                non_dyadic = (gk.validate_gds(range(Z.n_points), Z.generators * 8 / 7, family, Z.masses) for Z in (X, Y))
                for A, B in ((X, Y), tuple(non_dyadic)):
                    exact = exact_box_oracle(A, B)
                    assert lower_bound(A, B, box=True) <= exact + 1e-12
                    # every box upper is the box value of a coupling and a support,
                    # under a small search budget and under the default one
                    for candidates, steps in ((4, 15), (8, 40)):
                        monkeypatch.setattr(distances, "COUPLING_CANDIDATES", candidates)
                        monkeypatch.setattr(distances, "LOCAL_SEARCH_STEPS", steps)
                        assert box_bracket(A, B).upper >= exact - 1e-12

    def test_dconc_form_below_coupling_values(self):
        rng = np.random.default_rng(139)
        for family in FAMILIES:
            for _ in range(6):
                X = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                Y = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                bound = lower_bound(X, Y)
                assert bound <= lower_bound(X, Y, box=True)
                for _ in range(3):
                    pi = sum(
                        w * _nw_corner(X.masses, Y.masses, rng.permutation(X.n_points), rng.permutation(Y.n_points))
                        for w in rng.dirichlet(np.ones(2))
                    )
                    assert bound <= dconc_pi(X, Y, pi) + 1e-12

    def test_brackets_stay_ordered_and_witnessed(self):
        rng = np.random.default_rng(149)
        closed = law_won = search_won = lip1_won = 0
        for family in FAMILIES:
            for _ in range(8):
                X = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                Y = dyadic_gds(rng, max_n=4, max_gens=2, family=family)
                for br, box in ((dconc_bracket(X, Y, CFG), False), (box_bracket(X, Y, CFG), True)):
                    assert br.lower <= br.upper
                    closed += br.lower == br.upper
                    bound = lower_bound(X, Y, box)
                    assert br.lower == min(float(bound), br.upper)
                    assert br.lower_witness.startswith(bound.describe())
                    if isinstance(bound, LawLowerBound):
                        law_won += 1
                        lip1_won += family == LIP1
                        assert bound > dconc_lower_via_od(X, Y)
                        # replay: the named pair gives the bound on its own
                        # (X and Y of the witness are the brackets' argument order)
                        first, second = (Y, X) if distances._oriented(X, Y) else (X, Y)
                        own, other = (first, second) if bound.sides[0] == "X" else (second, first)
                        f = gk.pushforward(own.generators[bound.generator], own.mu)
                        row = [orbit_law_distance(f, gk.pushforward(g, other.mu), bound.family, box) for g in other.generators]
                        # the named generator's least value over every partner is the bound
                        assert row[bound.partner] == min(row) == float(bound)
                        assert bound.reach == (float(bound) / 2 if box else float(bound))
                    elif isinstance(bound, SearchLowerBound):
                        search_won += 1
                        lip1_won += family == LIP1
                        assert box and not bound.spent
                        assert bound > max(dconc_lower_via_od(X, Y), laws.law_lower(X, Y, box, 0.0))
                        assert bound.reach == float(bound) / 2
                        S = bound.support
                        if S is None:
                            # every choice of link sets meets at eps = 1, so a
                            # finished search names no support only there
                            assert float(bound) == 1.0
                            continue
                        # replay: the named support, under its max-flow coupling,
                        # has box value the bound, and the bracket closes on it
                        first, second = (Y, X) if distances._oriented(X, Y) else (X, Y)
                        value = box_objective(first, second, _support_flow(first.masses, second.masses, S), S)
                        assert value == br.upper and br.upper - br.lower <= 1e-15
                        assert br.upper_witness.endswith("of the link-set search, bracket closed") or value > br.lower
                    else:
                        assert isinstance(bound, OdLowerBound)
        assert closed > 0 and law_won > 0 and search_won > 0 and lip1_won > 0

    def test_searched_breakpoints_match_the_listed_ones(self, monkeypatch):
        # the differences of v are found by searchsorted without listing
        # them; against the list, the last one in (lo, hi) is the same,
        # and a pivot among more than BLOCK_ENTRIES splits them at least
        # a quarter to three quarters
        monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", 16)
        rng = np.random.default_rng(157)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            v = np.sort(rng.choice(np.arange(-200, 201), size=n, replace=False)) / rng.choice([7.0, 8.0, 10.0])
            div = float(rng.choice([1.0, 2.0]))
            search = _kernels.Differences(v, div)
            listed = np.concatenate([(v[q] - v[:q]) / div for q in range(1, n)])
            lo, hi = sorted(float(x) for x in rng.choice(np.concatenate([listed, rng.uniform(0, 60, 4)]), 2))
            inside = listed[(listed > lo) & (listed < hi)]
            if inside.size == 0:
                assert search.pivot(lo, hi) is None and search.last(lo, hi) is None
                continue
            assert search.last(lo, hi) == inside.max()
            pivot = search.pivot(lo, hi)
            assert pivot in inside
            if inside.size > 16:
                assert min(np.sum(inside <= pivot), np.sum(inside >= pivot)) >= inside.size / 4

    def test_engine_unchanged_by_block_sizes(self, monkeypatch):
        # with tiny blocks every T and TB bisection, and every Prohorov
        # one, takes weighted-median pivots, and the TB scan runs in many
        # blocks: same values
        rng = np.random.default_rng(163)
        cases, pairs = [], []
        for kind in ("T", "TB") * 8:
            A, B = small_law(rng, 7), small_law(rng, 7)
            pairs.append((A, B, gk.prohorov(A, B)))
            for box in (False, True):
                cases.append((A, B, kind, box, orbit_law_distance(A, B, kind, box)))
        monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", 4)
        for A, B, kind, box, want in cases:
            assert orbit_law_distance(A, B, kind, box) == want
            assert orbit_law_distance(A, B, kind, box, want / 2, want + 0.125) == want
        for A, B, want in pairs:
            assert gk.prohorov(A, B) == want

    def test_spent_budget_leaves_a_bound(self, monkeypatch):
        # once the scans' budget is spent, the generators searched in full
        # still bound the distance, and the witness row gives the bound
        rng = np.random.default_rng(167)
        cut = 0
        for _ in range(12):
            X = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            Y = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            for box in (False, True):
                full = float(laws.law_lower(X, Y, box, 0.0))
                for budget in (0, 40, 400, 4000):
                    monkeypatch.setattr(laws, "LAW_BUDGET", budget)
                    bound = laws.law_lower(X, Y, box, 0.0)
                    monkeypatch.undo()
                    assert 0.0 <= bound <= full
                    cut += bound < full
                    if bound > 0.0:
                        own, other = (X, Y) if bound.sides[0] == "X" else (Y, X)
                        f = gk.pushforward(own.generators[bound.generator], own.mu)
                        row = [orbit_law_distance(f, gk.pushforward(g, other.mu), "TB", box) for g in other.generators]
                        assert row[bound.partner] == min(row) == float(bound)
        assert cut > 0

    def test_budget_spent_inside_a_generator(self, monkeypatch):
        # a generator that passes the check made before it begins but
        # spends the budget in its bisections adds nothing: the bound and
        # its witness are those of the generators searched in full before
        # it, and the bound is at most the one with no budget limit
        real = laws._OrbitSearch.unrouted
        budgets, stopped = [], []

        def unrouted(self, eps):
            budgets.append(self.budget)
            try:
                return real(self, eps)
            except laws._OverBudget:
                stopped.append(self.a)
                raise

        monkeypatch.setattr(laws._OrbitSearch, "unrouted", unrouted)
        rng = np.random.default_rng(173)
        inside, unlimited = 0, laws.LAW_BUDGET
        for _ in range(12):
            X = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            Y = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            # generators in search order, each with its least distance to
            # an orbit of the other side, the partner found at it
            order = []
            for side, (own, other) in enumerate(((X, Y), (Y, X))):
                for i, f in enumerate(own.generators):
                    law = gk.pushforward(f, own.mu)
                    order.append((side, i, law.values, [gk.pushforward(g, other.mu) for g in other.generators], law))
            for box in (False, True):
                monkeypatch.setattr(laws, "LAW_BUDGET", unlimited)
                budgets.clear()
                full = float(laws.law_lower(X, Y, box, 0.0))
                spent = unlimited - budgets[-1][0]
                for budget in np.linspace(0, spent, 24).astype(int).tolist():
                    monkeypatch.setattr(laws, "LAW_BUDGET", budget)
                    stopped.clear()
                    bound = laws.law_lower(X, Y, box, 0.0)
                    matches = [k for k, t in enumerate(order) if stopped and np.array_equal(t[2], stopped[0])]
                    if len(matches) != 1:
                        continue
                    inside += 1
                    rows = [[orbit_law_distance(law, g, "TB", box) for g in targets] for *_, targets, law in order[: matches[0]]]
                    best = max((min(row) for row in rows), default=0.0)
                    assert float(bound) == max(best, 0.0) and bound <= full
                    if best > 0.0:
                        k = [min(row) for row in rows].index(best)
                        assert (bound.sides[0], bound.generator) == (("X", "Y")[order[k][0]], order[k][1])
                        assert rows[k][bound.partner] == best
        assert inside > 0

    def test_witness_names_the_row_that_sets_the_bound(self, monkeypatch):
        # X generator 0 meets Y generator 1 at 0.2, X generator 1 meets
        # nothing below 0.3: the bound is 0.3, and only X generator 1
        # against Y generator 0 witnesses it, though X generator 0
        # against Y generator 0 ties at 0.3
        X = gk.validate_gds([0, 1], [[0.0, 1.0], [0.0, 2.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = gk.validate_gds([0, 1], [[0.0, 3.0], [0.0, 4.0]], gk.TB_FAMILY, [0.5, 0.5])
        table = {(1, 3): 0.3, (1, 4): 0.2, (2, 3): 0.3, (2, 4): 0.4}

        class TableSearch:
            def __init__(self, A, B, *_):
                self.value = table.get((A.values[-1], B.values[-1]), 0.0)

            def unrouted(self, eps):
                return self.value

            def least(self, best, cap):
                return min(self.value, cap)

        monkeypatch.setattr(laws, "_OrbitSearch", TableSearch)
        bound = laws.law_lower(X, Y, False, 0.0)
        assert float(bound) == 0.3
        assert (bound.sides, bound.generator, bound.partner) == (("X", "Y"), 1, 0)



def level_two(X, Y):
    """The largest, over two generators of either side, of the least eps
    at which their link sets meet in mass 1 - eps: the link-set search
    run on two generators at a time, as pairwise_bound_oracle is."""
    sets = laws._LinkSets(X, Y, [laws.LAW_BUDGET])
    gens = [(side, i) for side, Z in enumerate((X, Y)) for i in range(Z.n_generators)]
    return max((laws._LinkSearch(sets, pair).least(0.0)[0] for pair in combinations(gens, 2)), default=0.0)


class TestPairwiseBound:
    """laws.link_lower, the box bound from the link sets of every
    generator, and its search engine on two generators at a time."""

    def test_engine_matches_rational_oracle(self):
        # masses k/7 and k/11, which floats only approximate; a map missing
        # from the engine's list would put it above the oracle
        for family in FAMILIES[:4]:
            rng = np.random.default_rng(181)
            for _ in range(4 if family == gk.TB_FAMILY else 5):
                X, Y = (
                    gk.validate_gds(range(Z.n_points), Z.generators, family, rational_masses(rng, Z.n_points))
                    for Z in small_pair(rng, family, shapes=((2, 2), (2, 3), (3, 2), (1, 3)))
                )
                want = float(pairwise_bound_oracle(X, Y))
                assert abs(level_two(X, Y) - want) <= 1e-12, (family, X, Y)
                # the search over every generator adds to the pairs' bound
                got = laws.link_lower(X, Y, 0.0, [laws.LAW_BUDGET])
                assert want - 1e-12 <= got <= exact_box_oracle(X, Y) + 1e-12, (family, X, Y)

    def test_between_law_bound_and_exact_box(self):
        rng = np.random.default_rng(191)
        raised = 0
        for family in FAMILIES[:4]:
            for _ in range(5):
                X, Y = small_pair(rng, family)
                rational = (gk.validate_gds(range(Z.n_points), Z.generators, family, rational_masses(rng, Z.n_points)) for Z in (X, Y))
                for A, B in ((X, Y), tuple(rational)):
                    law = float(laws.law_lower(A, B, True, 0.0))
                    link = float(laws.link_lower(A, B, 0.0, [laws.LAW_BUDGET]))
                    exact = exact_box_oracle(A, B)
                    assert law <= link + 1e-12 and link <= exact + 1e-12
                    assert lower_bound(A, B, box=True) <= exact + 1e-12
                    raised += link > law + 1e-12
        assert raised > 0

    def test_lip1_between_law_bound_and_exact_box(self):
        # lip1 link sets are the McShane cliques: the law bound and the
        # search run on lip1 partners, and both stay below the box distance
        rng = np.random.default_rng(193)
        raised = 0
        for _ in range(12):
            X, Y = small_pair(rng, LIP1)
            law = float(laws.law_lower(X, Y, True, 0.0))
            link = float(laws.link_lower(X, Y, 0.0, [laws.LAW_BUDGET]))
            exact = exact_box_oracle(X, Y)
            assert law <= link + 1e-12 and link <= exact + 1e-12, (X, Y)
            od = float(dconc_lower_via_od(X, Y))
            raised += link > max(od, law) + 1e-12
            assert lower_bound(X, Y, box=True) == max(od, law, link)
        assert raised > 0

    def test_one_budget_for_both_scans(self, monkeypatch):
        # the law and link-set scans draw on one LAW_BUDGET: with none,
        # the box bound is the od bound
        rng = np.random.default_rng(199)
        pairs = ((dyadic_gds(rng, max_n=4, max_gens=2), dyadic_gds(rng, max_n=4, max_gens=2)) for _ in range(20))
        X, Y = next((X, Y) for X, Y in pairs if isinstance(lower_bound(X, Y, box=True), SearchLowerBound))
        monkeypatch.setattr(distances, "LAW_BUDGET", 0)
        assert lower_bound(X, Y, box=True) == dconc_lower_via_od(X, Y)

    def test_spent_budget_keeps_what_was_ruled_out(self):
        # once the budget is spent, the bound is the largest eps ruled out:
        # at most the full bound (TestLinkSearch checks that it fails there)
        rng = np.random.default_rng(197)
        cut = 0
        for _ in range(8):
            X = dyadic_gds(rng, max_n=4, max_gens=2, family=gk.TB_FAMILY)
            Y = dyadic_gds(rng, max_n=4, max_gens=2, family=gk.TB_FAMILY)
            budget = [laws.LAW_BUDGET]
            full = float(laws.link_lower(X, Y, 0.0, budget))
            for steps in np.linspace(0, laws.LAW_BUDGET - budget[0], 12).astype(int).tolist():
                bound = laws.link_lower(X, Y, 0.0, [steps])
                assert 0.0 <= bound <= full
                cut += bound < full
        assert cut > 0


class TestMcShaneCliques:
    """laws._mcshane_cliques, the lip1 link sets of two value lists."""

    def test_match_the_subset_oracle(self):
        rng = np.random.default_rng(263)
        for shape in ((1, 1), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 8), (8, 1)) * 6:
            a, b = (rng.choice(np.arange(-12, 13), size=n, replace=False) / 8 for n in shape)
            t = float(rng.choice([0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 4, 1 / 2]))
            got = [frozenset(zip(*(ix.tolist() for ix in np.nonzero(c)))) for c in np.concatenate(list(laws._mcshane_cliques(a, b, t, None)))]
            assert len(got) == len(set(got))
            assert set(got) == lip1_link_sets_oracle(a, b, t), (a, b, t)

    def test_spent_budget_ends_the_listing(self):
        a, b = np.arange(4) / 8, np.arange(4)[::-1] / 8
        n = a.size * b.size
        with pytest.raises(laws._OverBudget):
            next(laws._mcshane_cliques(a, b, 0.0, [n * n - 1]))
        budget = [n * n + 4 * n]
        with pytest.raises(laws._OverBudget):
            list(laws._mcshane_cliques(a, b, 0.0, budget))


def oracle_pair(rng, family):
    """Two data sets of at most 8 point pairs: one or two generators of
    values k/8, masses k/7 or k/sum(k), which floats only approximate."""
    sets = []
    shape = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 4), (4, 1), (2, 4), (4, 2), (1, 3), (3, 1))[int(rng.integers(11))]
    for n in shape:
        gens = int(rng.integers(1, 3))
        while True:
            G = rng.integers(-12, 13, size=(gens, n)) / 8
            if len({tuple(col) for col in G.T}) == n:
                break
        if rng.random() < 0.5:
            masses = (rng.multinomial(7 - n, np.full(n, 1.0 / n)) + 1) / 7
        else:
            k = rng.integers(1, 12, size=n)
            masses = k / k.sum()
        sets.append(gk.validate_gds(range(n), G, family, masses))
    return sets


# bracket workload pairs, values k/64 and masses k/1024: TB 4x2/5x1 at
# seed 7, and TB 5x1/5x1 at seeds 2 and 7
SEED7_TB_4x2_5x1 = (([[-48, 240, 232, -146], [-253, 88, -249, -102]], [95, 413, 386, 130]), ([[55, 207, 236, 36, -112]], [149, 48, 378, 193, 256]))
TB_5x1_5x1 = (
    (([[-22, -200, 87, 246, 207]], [250, 563, 73, 60, 78]), ([[245, 160, 59, 235, -212]], [73, 38, 150, 375, 388])),
    (([[39, 130, 125, 159, 74]], [140, 289, 436, 2, 157]), ([[188, 66, -8, 150, 232]], [90, 146, 288, 218, 282])),
)


def workload_pair(pair):
    return tuple(gk.validate_gds(range(len(m)), np.array(G) / 64, gk.TB_FAMILY, np.array(m) / 1024) for G, m in pair)


class TestLinkSearch:
    """link_lower's search over every generator: an exact box value
    when it finishes at most 1, and a support that closes the bracket."""

    def test_closes_at_the_exact_box(self):
        rng = np.random.default_rng(211)
        closed = above_one = 0
        for k in range(100):
            family = FAMILIES[k % 5]
            X, Y = oracle_pair(rng, family)
            exact = exact_box_oracle(X, Y)
            assert laws.link_lower(X, Y, 0.0, [laws.LAW_BUDGET]) <= exact + 1e-12
            br = box_bracket(X, Y, CFG)
            assert br.lower <= exact + 1e-12 and br.upper >= exact - 1e-12, (X, Y)
            if exact > 1.0:
                above_one += 1
                continue
            assert br.upper - br.lower <= 1e-12 and abs(br.upper - exact) <= 1e-12, (X, Y)
            closed += br.upper_witness.endswith("of the link-set search, bracket closed")
        assert closed > 0 and above_one > 0

    def test_finished_search_names_its_witness(self):
        # a pair of generators that tied with the search over all of them
        # named the bound as its own, without the support that the search
        # ends on and that replays to it
        rng = np.random.default_rng(239)
        named = 0
        for k in range(24):
            X, Y = (dyadic_gds(rng, max_n=4, max_gens=3, family=FAMILIES[k % 4]) for _ in range(2))
            bound = lower_bound(X, Y, box=True)
            base = max(float(dconc_lower_via_od(X, Y)), float(laws.law_lower(X, Y, True, 0.0)))
            if X.n_generators + Y.n_generators < 3 or not base < float(bound) < 1.0:
                continue
            named += 1
            assert isinstance(bound, SearchLowerBound) and not bound.spent, bound.describe()
            first, second = (Y, X) if distances._oriented(X, Y) else (X, Y)
            S = bound.support
            assert abs(box_objective(first, second, _support_flow(first.masses, second.masses, S), S) - bound) <= 1e-15
            gens = X.n_generators + Y.n_generators
            assert bound.describe().startswith(f"link-set search over {gens} generators, meeting in {len(S)} point pairs")
        assert named >= 3

    def test_named_support_skips_the_support_search(self, monkeypatch):
        # a bracket workload cloud pair (seed 4) whose search support has
        # box value 0.2 against the law bound 0.19999999999999996: open by
        # rounding only, and the candidates, singletons, peels and local
        # search ran on it without improving it
        X, Y = (gk.generate_space(gk.SpaceRecipe.parse(text)) for text in (
            "random_cloud:5:2:l2:1730494654", "random_cloud:5:2:linf:1081809980"))

        def refuse(*args):
            raise AssertionError("the support search ran")

        monkeypatch.setattr(distances, "_search_supports", refuse)
        br = box_bracket(X, Y, CFG)
        assert (br.lower, br.upper) == (0.19999999999999996, 0.2)
        assert br.upper_witness == "max-flow coupling, 4 pairs of the link-set search"

    def test_pruned_branch_counts_its_bound(self):
        # an intersection left out for its bound must count with it: else a
        # failing test reads more mass unrouted than it has, and the bound
        # read 0.38751220703125 here, above this support's box value
        X, Y = workload_pair(SEED7_TB_4x2_5x1)
        bound = lower_bound(X, Y, box=True)
        assert isinstance(bound, SearchLowerBound) and float(bound) == 0.380859375
        br = box_bracket(X, Y, CFG)
        assert br.lower == br.upper == 0.380859375
        assert br.upper_witness == "max-flow coupling, 2 pairs of the link-set search, bracket closed"

    def test_spent_budget_keeps_the_largest_eps_ruled_out(self):
        rng = np.random.default_rng(223)
        spent = 0
        for _ in range(6):
            X = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            Y = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.TB_FAMILY)
            budget = [laws.LAW_BUDGET]
            full = laws.link_lower(X, Y, 0.0, budget)
            gens = tuple((side, i) for side, Z in enumerate((X, Y)) for i in range(Z.n_generators))
            for steps in np.linspace(0, laws.LAW_BUDGET - budget[0], 16).astype(int).tolist():
                bound = laws.link_lower(X, Y, 0.0, [steps])
                assert 0.0 <= bound <= full
                if isinstance(bound, SearchLowerBound) and bound.spent:
                    spent += 1
                    assert "budget spent" in bound.describe()
                    # the search over every generator fails at the bound
                    search = laws._LinkSearch(laws._LinkSets(X, Y, [laws.LAW_BUDGET]), gens)
                    assert search.unrouted(float(bound)) > float(bound)
        assert spent > 0

    def test_spent_budget_keeps_the_least_accepted_support(self, monkeypatch):
        # a search that runs out after a test accepted keeps that test's
        # support: the bracket scores it, so the upper is at most the least
        # eps accepted, and the support replays to at most that eps
        real, accepted = laws._LinkSearch.unrouted, []

        def unrouted(self, eps):
            value = real(self, eps)
            if value <= eps:
                accepted.append(eps)
            return value

        monkeypatch.setattr(laws._LinkSearch, "unrouted", unrouted)
        rng = np.random.default_rng(257)
        kept = 0
        for k in range(10):
            X, Y = (dyadic_gds(rng, max_n=4, max_gens=3, family=FAMILIES[1 + k % 4]) for _ in range(2))
            first, second = (Y, X) if distances._oriented(X, Y) else (X, Y)
            for steps in (1 << 12, 1 << 14, 1 << 16, 1 << 18):
                monkeypatch.setattr(distances, "LAW_BUDGET", steps)
                accepted.clear()
                _, link = distances._bounds(first, second, True)
                if not (isinstance(link, SearchLowerBound) and link.spent and link.support):
                    continue
                kept += 1
                least, S = min(accepted), link.support
                value = box_objective(first, second, _support_flow(first.masses, second.masses, S), S)
                assert value <= least + 1e-12
                br = box_bracket(X, Y, CFG)
                assert br.lower <= br.upper <= value
        assert kept > 0

    def test_spent_budget_runs_the_support_search(self, monkeypatch):
        # with no budget for the link sets the bracket is that of the
        # support search, and stays ordered around the exact value
        rng = np.random.default_rng(227)
        for k in range(12):
            X, Y = oracle_pair(rng, FAMILIES[k % 4])
            exact = exact_box_oracle(X, Y)
            monkeypatch.setattr(distances, "LAW_BUDGET", 0)
            br = box_bracket(X, Y, CFG)
            monkeypatch.undo()
            assert br.lower <= exact + 1e-12 and br.upper >= exact - 1e-12
            assert "link-set search" not in br.upper_witness

    def test_larger_budget_never_raises_a_box_upper(self, monkeypatch):
        # twice the candidates and local-search steps raised the uppers of
        # both TB 5x1/5x1 pairs (0.4912 to 0.5469, 0.5938 to 0.7168) while
        # the support search decided them; an exact search does not depend
        # on the budget
        rng = np.random.default_rng(229)
        pairs = [workload_pair(p) for p in TB_5x1_5x1]
        for _ in range(10):
            pairs.append(tuple(dyadic_gds(rng, max_n=6, max_gens=1, family=gk.TB_FAMILY) for _ in range(2)))
        pairs = [(X, Y) for X, Y in pairs if X.n_points >= 4 and Y.n_points >= 4]
        assert len(pairs) >= 6
        default = [box_bracket(X, Y, CFG).upper for X, Y in pairs]
        monkeypatch.setattr(distances, "COUPLING_CANDIDATES", 2 * distances.COUPLING_CANDIDATES)
        monkeypatch.setattr(distances, "LOCAL_SEARCH_STEPS", 2 * distances.LOCAL_SEARCH_STEPS)
        doubled = [box_bracket(X, Y, CFG).upper for X, Y in pairs]
        assert all(b <= a for a, b in zip(default, doubled)), list(zip(default, doubled))


class TestMissingMass:
    def test_level_bracket_keeps_its_certified_lower(self):
        # a level pair of the staircase of path:2:1 and path:3:1. The
        # max-flow coupling of the support {(0, 0), (1, 1)} has entries
        # summing to 1 - 5.6e-17, so the mass it puts outside read
        # 0.16666666666666663, below the od bound 0.16666666666666674,
        # and the bracket lowered that certified bound to it
        X = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [1 / 3, 2 / 3])
        S = [(0, 0), (1, 1)]
        pi = _support_flow(X.masses, Y.masses, S)
        assert box_objective(X, Y, pi, S) >= X.masses.sum() - (pi[0, 0] + pi[1, 1])
        br = box_bracket(X, Y, CFG)
        assert br.lower == float(lower_bound(X, Y, box=True)) == br.upper

    def test_missing_mass_is_never_below_the_total_less_pi_of_s(self):
        rng = np.random.default_rng(233)
        for _ in range(200):
            nx, ny = (int(k) for k in rng.integers(1, 6, size=2))
            mx, my = rational_masses(rng, nx), rational_masses(rng, ny)
            X = gk.validate_gds(range(nx), [np.arange(nx) / 8], gk.TB_FAMILY, mx)
            Y = gk.validate_gds(range(ny), [np.arange(ny) / 8], gk.TB_FAMILY, my)
            S = random_support(rng, nx, ny)
            pi = _support_flow(mx, my, S)
            rows, cols = np.array(S).T
            assert box_objective(X, Y, pi, S) >= mx.sum() - pi[rows, cols].sum()
