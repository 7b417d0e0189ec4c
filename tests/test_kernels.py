"""Numeric kernels: bit identity with numpy and with one block, and bounded scratch."""
import tracemalloc

import numpy as np
import pytest

from gdskit import _kernels
from gdskit._kernels import kf_rows, pd_rows, sorted_unique, window_tradeoff_values
from gdskit.spaces import SpaceRecipe, generate_space


def one_block(monkeypatch, kernel, *args):
    """The kernel with every row in a single block, as before blocking."""
    with monkeypatch.context() as m:
        m.setattr(_kernels, "BLOCK_ENTRIES", 1 << 62)
        return kernel(*args)


def row_counts(width):
    step = _kernels.BLOCK_ENTRIES // width
    assert step > 2
    return (1, step - 1, step, step + 1)


def masses(rng, n):
    w = rng.random(n) + 0.05
    return w / w.sum()


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


class TestSortedUnique:
    def test_float_arrays_match_np_unique(self):
        rng = np.random.default_rng(29)
        pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 5e-324, -5e-324])
        for trial in range(10_000):
            n = int(rng.integers(0, 2000 if trial % 100 == 0 else 40))
            x = rng.choice(pool, size=n)
            if trial % 2:  # ties and signed zeros among normal values
                x = np.where(rng.random(n) < 0.5, x, rng.normal(size=n).round(int(rng.integers(0, 3))))
            if n % 3 == 0 and n:
                x = x.reshape(3, -1)
            assert_same(sorted_unique(x), np.unique(x))
            assert sorted_unique(x).tobytes() == np.unique(x).tobytes()

    def test_int_arrays_match_np_unique(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = rng.integers(-6, 6, size=int(rng.integers(0, 50)))
            assert_same(sorted_unique(x), np.unique(x))


class TestBlockedKernels:
    def test_pd_rows_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(31)
        n = 40
        w = masses(rng, n)
        for rows in row_counts(n):
            values = rng.integers(-8, 9, size=(rows, n)) / 4.0  # ties
            for alpha in (0.05, 0.5, 0.9, 1.0):
                assert_same(pd_rows(values, w, alpha), one_block(monkeypatch, pd_rows, values, w, alpha))

    def test_kf_rows_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(32)
        n = 24
        w = masses(rng, n)
        for rows in row_counts(n):
            diffs = rng.integers(0, 5, size=(rows, n)) / 8.0  # ties and zeros
            diffs[rng.random((rows, n)) < 0.3] = 0.0
            diffs[rows // 2] = 0.0
            assert_same(kf_rows(diffs, w), one_block(monkeypatch, kf_rows, diffs, w))

    def test_window_values_and_shifts_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(33)
        n = 12
        w = masses(rng, n)
        for rows in row_counts(n * (n + 1) // 2):
            deltas = rng.integers(-6, 7, size=(rows, n)) / 4.0
            values, shifts = window_tradeoff_values(deltas, w)
            ref_values, ref_shifts = one_block(monkeypatch, window_tradeoff_values, deltas, w)
            assert_same(values, ref_values)
            assert_same(shifts, ref_shifts)

    def test_zero_rows(self):
        w = np.full(3, 1.0 / 3)
        assert pd_rows(np.empty((0, 3)), w, 0.5).shape == (0,)
        assert kf_rows(np.empty((0, 3)), w).shape == (0,)
        values, shifts = window_tradeoff_values(np.empty((0, 3)), w)
        assert values.shape == shifts.shape == (0,)

    def test_pd_rows_scratch_is_bounded(self):
        n = 320
        rng = np.random.default_rng(34)
        values = rng.random((n, n))
        w = masses(rng, n)
        tracemalloc.start()
        try:
            pd_rows(values, w, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-array search held about 11.6 n^2 doubles
        assert peak <= 2 * n * n * 8


@pytest.mark.parametrize("metric", ["linf", "l2"])
@pytest.mark.parametrize("dim", [1, 4, 9])
def test_cloud_rows_match_broadcast(monkeypatch, metric, dim):
    n, seed = 30, 5
    pts = np.random.default_rng(seed).integers(0, 1025, size=(n, dim)) / 1024.0
    diff = pts[:, None, :] - pts[None, :, :]
    expected = np.abs(diff).max(axis=2) if metric == "linf" else np.sqrt((diff**2).sum(axis=2))
    recipe = SpaceRecipe.parse(f"random_cloud:{n}:{dim}:{metric}:{seed}")
    # blocks of n - 1, n and n + 1 rows, and of one row
    for step in (n - 1, n, n + 1, 1):
        monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", step * n * dim)
        assert_same(np.asarray(generate_space(recipe).generators), expected)
