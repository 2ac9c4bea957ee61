import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfair import (
    ChainParams,
    DomainError,
    asymptotics,
    circle_backoff_mc,
    flat_value,
    maximize_J,
    newton_solve,
    ring_fixed_point,
)

from reference import alpha_for_ring_prob

ALPHA_GRID = [0.05 * k for k in range(1, 20)]


def ring_root_decimal(alpha):
    """The root (2a + 1 - sqrt(4a + 1))/(2a) in 700-digit decimal arithmetic.

    The precision outlasts the cancellation even at alpha = 1e-300.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        a = decimal.Decimal(alpha)
        return float((2 * a + 1 - (4 * a + 1).sqrt()) / (2 * a))


class TestRingFixedPoint:
    def test_three_quarters_gives_third(self):
        assert ring_fixed_point(0.75) == pytest.approx(1 / 3, abs=1e-12)

    def test_returns_a_float(self):
        assert type(ring_fixed_point(0.6)) is float

    def test_alpha_one_limit(self):
        assert ring_fixed_point(1.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)

    def test_small_alpha_behaves_like_isolated_pair(self):
        a = 1e-6
        assert ring_fixed_point(a) / a == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_residual(self, alpha):
        x = ring_fixed_point(alpha)
        assert abs(x - alpha * (1 - x) ** 2) <= 1e-14
        assert 0.0 < x < 1.0

    @pytest.mark.parametrize("alpha", [1e-8, 1e-12, 1e-300, 0.75, 1.0])
    def test_small_alpha_without_cancellation(self, alpha):
        # the form (2a + 1 - sqrt(4a + 1))/(2a) gave 1.11e-8 at 1e-8 and 0 at 1e-12
        ref = ring_root_decimal(alpha)
        assert abs(ring_fixed_point(alpha) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.2])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            ring_fixed_point(alpha)

    @pytest.mark.parametrize("alpha", [None, "0.5", True, float("nan")])
    def test_non_real_refused(self, alpha):
        # None and "0.5" raised an untyped TypeError from the comparison
        with pytest.raises(DomainError):
            ring_fixed_point(alpha)


class TestAlphaForRingProb:
    # ring_fixed_point against the reference inverse x / (1 - x)^2
    def test_reference_point(self):
        assert alpha_for_ring_prob(1 / 3) == pytest.approx(0.75, abs=1e-12)

    def test_zero(self):
        assert alpha_for_ring_prob(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.05 * k for k in range(1, 8)])
    def test_round_trip(self, x):
        assert ring_fixed_point(alpha_for_ring_prob(x)) == pytest.approx(x, abs=1e-12)

    @given(x=st.floats(0.001, 0.38))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, x):
        assert ring_fixed_point(alpha_for_ring_prob(x)) == pytest.approx(x, abs=1e-10)


class TestFlatValue:
    def test_small_chain_consistent_with_parts(self):
        alpha_hat, central = flat_value(9)
        res = maximize_J(9)
        assert alpha_hat == pytest.approx(res.alpha_hat, abs=1e-9)
        x = newton_solve(ChainParams(9, alpha_hat))
        assert central == pytest.approx(x[4], abs=1e-12)

    def test_even_chain_index(self):
        # central component is the one at 1-based ceil(n/2)
        alpha_hat, central = flat_value(10)
        x = newton_solve(ChainParams(10, alpha_hat))
        assert central == x[4]

    def test_n_too_small(self):
        with pytest.raises(DomainError):
            flat_value(2)

    @pytest.mark.parametrize("n", ["7", 7.0, 2])
    def test_invalid_length_is_refused(self, n):
        # "7" raised an untyped TypeError from the comparison n < 3
        with pytest.raises(DomainError):
            flat_value(n)


class TestOptimalAlphaCurve:
    def test_monotone_and_below_ring_limit(self):
        # the curve of out/optimal_alpha.csv grows toward the ring value 3/4
        alphas = [maximize_J(n).alpha_hat for n in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert all(a < 0.75 for a in alphas)


class TestCircleBackoffMC:
    @pytest.mark.parametrize("args", [(3, True, 0), (3, 10, True)])
    def test_bool_sizes_refused(self, args):
        with pytest.raises(DomainError):
            circle_backoff_mc(*args)

    def test_three_pairs_partition_unity(self):
        # exactly one strict minimum among 3 distinct uniforms per trial
        freq = circle_backoff_mc(3, 20_000, seed=0)
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(freq, 1 / 3, atol=0.02)

    def test_winner_rate_one_third(self):
        freq = circle_backoff_mc(11, 50_000, seed=3)
        se = math.sqrt((1 / 3) * (2 / 3) / 50_000)
        assert np.all(np.abs(freq - 1 / 3) <= 5 * se)

    def test_rotation_exchangeability(self):
        freq = circle_backoff_mc(7, 100_000, seed=1)
        se = math.sqrt((1 / 3) * (2 / 3) / 100_000)
        assert freq.max() - freq.min() <= 4 * 2 * se

    def test_seed_determinism(self):
        a = circle_backoff_mc(5, 30_000, seed=42)
        b = circle_backoff_mc(5, 30_000, seed=42)
        assert np.array_equal(a, b)
        c = circle_backoff_mc(5, 30_000, seed=43)
        assert not np.array_equal(a, c)

    @staticmethod
    def rolled_wins(n_pairs, trials, seed):
        """Win counts of one np.roll pass over the whole (trials, n_pairs) draw."""
        u = np.random.default_rng(seed).random((trials, n_pairs))
        return ((u < np.roll(u, 1, axis=1)) & (u < np.roll(u, -1, axis=1))).sum(axis=0)

    def test_chunking_invisible(self):
        # result depends only on the seed, not on internal block boundaries
        for n_pairs, trials in [(4, 99_999), (101, 5_001), (3, 1)]:
            wins = self.rolled_wins(n_pairs, trials, seed=9)
            assert np.array_equal(circle_backoff_mc(n_pairs, trials, seed=9), wins / trials)

    @pytest.mark.parametrize("n_pairs", [3, 4])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_count_folds_and_row_wraps_invisible(self, monkeypatch, rows, n_pairs):
        # blocks of 1 and 2 rows put each row's wrap cells at a block edge or
        # a row seam, and 2,001 trials (a partial last block at 2 rows) give
        # some cell of the byte-wide count more than 255 wins, so it must
        # fold before it wraps
        monkeypatch.setattr(asymptotics, "_MC_ROWS", rows)
        wins = self.rolled_wins(n_pairs, 2_001, seed=5)
        assert wins.max() > 255 * rows
        assert np.array_equal(circle_backoff_mc(n_pairs, 2_001, seed=5), wins / 2_001)

    def test_memory_constant_in_trials(self):
        tracemalloc.start()
        try:
            circle_backoff_mc(101, 1_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_pairs": 2, "trials": 10, "seed": 0},
            {"n_pairs": 5, "trials": 0, "seed": 0},
            # these raised TypeError or numpy's ValueError
            {"n_pairs": 101, "trials": 2.5, "seed": 1},
            {"n_pairs": 10.5, "trials": 100, "seed": 1},
            {"n_pairs": 5, "trials": 10, "seed": -3},
            {"n_pairs": 5, "trials": 10, "seed": 1.5},
        ],
    )
    def test_domain(self, kw):
        with pytest.raises(DomainError):
            circle_backoff_mc(**kw)
