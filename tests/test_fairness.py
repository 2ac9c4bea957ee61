import math
import tracemalloc
import warnings

import numpy as np
import pytest

import chainfair.fairness as fairness_module
import chainfair.solver as solver_module
from chainfair import (
    ChainParams,
    ConvergenceError,
    DomainError,
    J,
    J_prime,
    OptResult,
    apply_F,
    entropy,
    maximize_J,
    newton_solve,
    residual,
    sweep_J,
)
from chainfair.model import entropy_terms
from chainfair.solver import _unfold

from patching import capture_roots, count_solves, force_failures, off_grid, refinement_solves
from reference import jacobian_F
from test_solver import WINDOW_ALPHAS, gtsv_sizes, tangent_halves, window_half


GRID = np.linspace(0.01, 0.99, 99)


class TestJ:
    def test_matches_entropy_over_n(self):
        x = newton_solve(ChainParams(6, 0.55))
        assert J(0.55, 6) == pytest.approx(entropy(x) / 6, abs=1e-14)

    def test_reuses_supplied_x(self):
        x = newton_solve(ChainParams(4, 0.4))
        assert J(0.4, 4, x=x) == J(0.4, 4)
        # an x of zeros and ones has entropy +0.0; J returned -0.0
        for alpha, x in ((0.5, [0.0, 0.0, 0.0]), (0.3, [1.0])):
            assert math.copysign(1.0, J(alpha, len(x), x=x)) == 1.0

    def test_n1_analytic(self):
        # single pair: x = alpha, J = -alpha log alpha
        a = 0.3
        assert J(a, 1) == pytest.approx(-a * np.log(a), abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, n, x",
        [(0.5, 10, np.full(5, 0.2)), (1.5, 3, np.full(3, 0.2)), (0.5, 2, ["a", "b"]), (0.5, 3, [0.3, True, 0.3])],
    )
    def test_supplied_x_validated_as_in_J_prime(self, alpha, n, x):
        # J returned 0.1609 for a half-length x and a value for alpha = 1.5;
        # ["a", "b"] raised numpy's ValueError; J returned 0.2408 for
        # [0.3, True, 0.3]
        for f in (J, J_prime):
            with pytest.raises(DomainError):
                f(alpha, n, x=x)

    def test_memory_of_two_whole_halves_at_a_million_pairs(self):
        # at 3/4 neither half is spliced; J laid the two halves' terms out
        # as a fresh chain and peaked at 2.0 x 8n bytes, where one half's
        # log and terms at a time take 1.0 x 8n
        n = 10**6
        x = newton_solve(ChainParams(n, 0.75))
        J(0.75, n, x)
        tracemalloc.start()
        try:
            J(0.75, n, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n

    def test_terms_of_two_mirror_halves_equal_at_a_million_pairs(self):
        # J reads the right half as a reversed view; numpy's strided log
        # rounded 108 of its 5 x 10^5 terms differently from the left half's
        n = 10**6
        x = newton_solve(ChainParams(n, 0.75))
        m = (n + 1) // 2
        left, right = x[None, :m], x[None, ::-1][:, :m]
        np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(entropy_terms(left), entropy_terms(right))

    def test_terms_in_place_match_the_plain_expression(self):
        # entropy_terms takes the log, product and negation in one buffer;
        # it must give the bits of 0.0 - X * log, +0.0 at 0 and 1 included
        x = np.concatenate([newton_solve(ChainParams(10**4, 0.75)), [0.0, 1.0, 0.5]])
        X = np.stack([x, np.random.default_rng(0).uniform(0.0, 1.0, len(x))])
        for V in (X, X[0]):
            plain = 0.0 - V * np.log(V, out=np.zeros_like(V), where=V > 0.0)
            np.testing.assert_array_equal(entropy_terms(V).view(np.uint64), plain.view(np.uint64))

    def test_terms_at_zero_one_and_the_smallest_subnormal(self):
        # a 0 takes the log of the smallest subnormal, which a subnormal
        # entry keeps as its own: +0.0 at 0 and 1, the subnormal's exact
        # term, and no RuntimeWarning, forward and on a reversed view
        x = np.array([0.0, 1.0, 5e-324, 0.5, 0.0, 1.0])
        ref = np.array([0.0, 0.0, -(5e-324 * math.log(5e-324)), -(0.5 * math.log(0.5)), 0.0, 0.0])
        assert ref[2] > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for V, want in ((x, ref), (x[::-1], ref[::-1]), (np.stack([x, x])[:, ::-1], np.stack([ref, ref])[:, ::-1])):
                np.testing.assert_array_equal(entropy_terms(V).view(np.uint64), want.view(np.uint64))


class TestTangent:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    @pytest.mark.parametrize("alpha", [0.2, 0.6, 0.85])
    def test_tangent_system(self, n, alpha):
        # the tangent J_prime and the scans take, against the dense system
        params = ChainParams(n, alpha)
        x = newton_solve(params)
        (t,) = _unfold((n + 1) // 2, tangent_halves(n, [alpha], x[None]), n)
        system = np.eye(n) - jacobian_F(params, x)
        rhs = apply_F(params, x) / alpha
        assert np.max(np.abs(system @ t - rhs)) <= 1e-10
        dense = -(np.log(x) + 1.0) @ np.linalg.solve(system, rhs) / n
        assert J_prime(alpha, n, x) == pytest.approx(dense, rel=1e-12, abs=0.0)
        h = 1e-6
        fd = (newton_solve(ChainParams(n, alpha + h)) - newton_solve(ChainParams(n, alpha - h))) / (2 * h)
        np.testing.assert_allclose(t, fd, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("n", [100, 400, 2000])
    @pytest.mark.parametrize("alpha", [0.76, 0.8, 0.9])
    def test_tangent_on_even_chains_past_three_quarters(self, n, alpha):
        # I - F' has a near-null antisymmetric mode here; the whole-chain
        # solve was off by up to 0.78 along it
        x = newton_solve(ChainParams(n, alpha))
        (t,) = _unfold((n + 1) // 2, tangent_halves(n, [alpha], x[None]), n)
        h = 1e-6
        fd = (newton_solve(ChainParams(n, alpha + h)) - newton_solve(ChainParams(n, alpha - h))) / (2 * h)
        np.testing.assert_allclose(t, fd, rtol=0.0, atol=1e-7)


class TestJPrime:
    @pytest.mark.parametrize("n", [2, 5, 12])
    @pytest.mark.parametrize("alpha", [0.15, 0.5, 0.8])
    def test_matches_central_difference(self, n, alpha):
        h = 1e-6
        fd = (J(alpha + h, n) - J(alpha - h, n)) / (2 * h)
        jp = J_prime(alpha, n)
        assert abs(jp - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_sign_change_brackets_optimum(self):
        assert J_prime(0.3, 10) > 0.0
        assert J_prime(0.8, 10) < 0.0

    def test_n1_analytic(self):
        # d/da of -a log a is -(log a + 1)
        a = 0.4
        assert J_prime(a, 1) == pytest.approx(-(np.log(a) + 1.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.5, np.nan, -0.1])
    def test_entry_outside_unit_interval_refused_in_either_half(self, bad):
        # J' reads only the mirror half of x, but x is refused whole
        n, alpha = 9, 0.5
        for i in (1, n - 1):
            x = newton_solve(ChainParams(n, alpha))
            x[i] = bad
            with pytest.raises(DomainError):
                J_prime(alpha, n, x=x)

    @pytest.mark.parametrize(
        "n, alpha",
        [(n, a) for n in (1, 2, 3, 50, 255) for a in (0.3, 0.6826, 0.75, 0.8, 0.95)]
        # just below 2 L(alpha) = 1024 pairs at 0.6826 and 0.8
        + [(1023, a) for a in (0.6826, 0.75, 0.8)]
        + [(5000, 0.749), (20_000, 0.7499), (100_001, 0.75), (100_001, 0.7501)],
    )
    def test_full_half_slope_matches_the_exact_sum(self, monkeypatch, n, alpha):
        # J' of a root whose tangent is solved on the full half, against
        # the same products summed exactly, as
        # TestWindowSums::test_window_sums_match_the_whole_half checks a
        # window: the doubled einsum over the half strayed from it by
        # 1.4e-13 to 3.0e-13 relative at the last four cells
        x = newton_solve(ChainParams(n, alpha))
        m = (n + 1) // 2
        seen = gtsv_sizes(monkeypatch)
        (t,) = tangent_halves(n, [alpha], x[None])
        jp = J_prime(alpha, n, x)
        monkeypatch.undo()
        assert max(seen) == m
        p = -(np.log(x[:m]) + 1.0) * t
        ref = (2.0 * math.fsum(p) - (p[-1] if n % 2 else 0.0)) / n
        assert jp == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_singular_adjoint_is_convergence_error(self):
        # at alpha = 0.8, x_1 = x_3 = 7/32 the 3 x 3 adjoint matrix has
        # determinant alpha^2 (2 - x_1 - x_3) - 1 = 0; scipy raised LinAlgError
        with pytest.raises(ConvergenceError):
            J_prime(0.8, 3, x=np.array([0.21875, 0.5, 0.21875]))

    def test_memory_at_a_million_pairs(self):
        # J and J' of a spliced root sum on its window and peak at the bool
        # of the period-2 test on a half, 0.0625 x 8n bytes; J' spread the
        # window tangent over the half and peaked at 1.0 x 8n, the
        # full-half tangent at 4.5 x 8n and the whole-chain one at 9 x 8n;
        # J took entropy on the whole root and peaked at 1.0 x 8n
        n = 10 ** 6
        x = newton_solve(ChainParams(n, 0.6826))
        for f, bound in ((J_prime, 0.125), (J, 0.125)):
            tracemalloc.start()
            try:
                f(0.6826, n, x=x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * n, f.__name__


    @pytest.mark.parametrize("f", [J, J_prime])
    def test_memory_of_a_solved_root_at_a_billion_pairs(self, f):
        # J and J' without x read the solved root's window and build no
        # chain-length array; the start half alone would take 4 GB
        f(0.8, 1000)
        tracemalloc.start()
        try:
            f(0.8, 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_half_period_tested_once_each(self, monkeypatch):
        # the tangent takes the left half's part from the range check; it
        # was tested again for the tangent, 3 tests of a half in all
        n, alpha = 10**6, 0.6826
        x = newton_solve(ChainParams(n, alpha))
        calls = []
        real = solver_module._period_2

        def period_2(y):
            calls.append(len(y))
            return real(y)

        monkeypatch.setattr(solver_module, "_period_2", period_2)
        J_prime(alpha, n, x)
        assert len(calls) == 2


class TestWindowSums:
    """J and J' of a spliced root summed on its window: the bulk repeats the window's sites h-2 and h-1."""

    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_window_sums_match_the_whole_half(self, monkeypatch, alpha):
        # J against entropy over the whole root; J' against the window
        # tangent spread over the half and dotted there, as it was taken,
        # the dot summed exactly: the einsum over the half strayed from it
        # by up to 8.6e-14 relative at 10^6 pairs, the window sum by 1.7e-16
        length = solver_module._splice_len(alpha)
        for n in [k * length + r for k in (2, 8) for r in range(4)] + [65_537, 100_001, 10**6]:
            x = newton_solve(ChainParams(n, alpha))
            m = (n + 1) // 2
            _, halves = fairness_module._halves(alpha, n, x)
            assert all(h < m for h, _ in halves), n
            assert J(alpha, n, x) == pytest.approx(entropy(x) / n, rel=1e-14, abs=0.0), n
            seen = gtsv_sizes(monkeypatch)
            (t,) = tangent_halves(n, [alpha], x[None])
            jp = J_prime(alpha, n, x)
            monkeypatch.undo()
            assert 0 < max(seen) <= window_half(n, alpha), n
            g = -(np.log(x[:m]) + 1.0)
            p = g * t
            ref = (2.0 * math.fsum(p) - (p[-1] if n % 2 else 0.0)) / n
            assert jp == pytest.approx(ref, rel=1e-13, abs=0.0), n

    @pytest.mark.parametrize(
        "change, spliced", [("bulk", [True, False]), ("head", [True, True]), ("whole", [False, False])]
    )
    def test_halves_summed_each_by_its_own_rule(self, change, spliced):
        # J assumes no mirror: a right half whose bulk breaks the period is
        # summed whole, one with a head of its own on its own window, and
        # two whole halves that differ each by its own chain sum
        alpha = 0.8
        if change == "whole":
            rng = np.random.default_rng(0)
            for n in (100_000, 100_001):
                x = rng.uniform(size=n)
                _, halves = fairness_module._halves(alpha, n, x)
                assert [h < (n + 1) // 2 for h, _ in halves] == spliced
                val = J(alpha, n, x)
                assert abs(val - math.fsum(entropy_terms(x)) / n) <= 1e-15 * val, n
            return
        n = 100_001
        x = newton_solve(ChainParams(n, alpha))
        if change == "bulk":
            x[n - 1 - n // 4] += 1e-3
        else:
            x[n - 3 :] *= 0.9
        _, halves = fairness_module._halves(alpha, n, x)
        assert [h < (n + 1) // 2 for h, _ in halves] == spliced
        assert J(alpha, n, x) == pytest.approx(entropy(x) / n, rel=1e-14, abs=0.0)

    def test_zeros_in_the_head(self):
        # 0 ln 0 = 0 on the window as in entropy; the centre of an odd
        # chain lies in both windows' tails
        n, alpha = 100_001, 0.8
        x = newton_solve(ChainParams(n, alpha))
        x[[0, 1, n - 1, (n - 1) // 2]] = 0.0
        _, halves = fairness_module._halves(alpha, n, x)
        assert all(h < (n + 1) // 2 for h, _ in halves)
        assert J(alpha, n, x) == pytest.approx(entropy(x) / n, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, 0.0])
    @pytest.mark.parametrize("site", ["head", "bulk"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_entry_outside_the_range_refused(self, bad, site, side):
        # the range is read on the window of a spliced half and on the
        # whole of any other half: a bulk site breaks the period
        n, alpha = 100_001, 0.8
        x = newton_solve(ChainParams(n, alpha))
        i = 2 if site == "head" else n // 4
        x[i if side == "left" else n - 1 - i] = bad
        for f in (J, J_prime) if bad != 0.0 else (J_prime,):
            with pytest.raises(DomainError):
                f(alpha, n, x=x)
        if bad == 0.0:
            assert J(alpha, n, x) == pytest.approx(entropy(x) / n, rel=1e-14, abs=0.0)


class TestRefine:
    @pytest.mark.parametrize(
        "shape",
        [
            lambda d: -d,
            lambda d: -(d ** 3),
            lambda d: -np.tanh(d / 1e-3),
            lambda d: np.expm1(-40.0 * d),
            lambda d: -1.0 if d > 0.0 else 1.0,
        ],
        ids=["linear", "cubic", "steep", "exponential", "step"],
    )
    @pytest.mark.parametrize(
        "lo, hi, width, root",
        [(0.5, 0.56, 1e-4, 0.5537), (0.25, 0.6, 1e-6, 0.5537), (0.55, 0.56, 1e-4, 0.55001), (0.3, 0.4, 1e-5, 0.3999)],
    )
    def test_closes_on_a_known_root(self, shape, lo, hi, width, root):
        calls = []

        def slope(a):
            calls.append(a)
            return shape(a - root)

        best, bracket, evals = fairness_module._refine(slope, lo, shape(lo - root), hi, shape(hi - root), width)
        assert bracket <= width
        # best is an end of the final bracket, which holds the root
        assert abs(best - root) <= bracket
        assert lo <= best <= hi
        assert evals == len(calls) <= np.ceil(np.log2((hi - lo) / width)) + 1

    def test_bracket_already_closed(self):
        assert fairness_module._refine(lambda a: 1 / 0, 0.5, 1.0, 0.50005, -1.0, 1e-4) == (0.5, pytest.approx(5e-5), 0)

    def test_exact_root_ends_the_search(self):
        assert fairness_module._refine(lambda a: 0.5 - a, 0.25, 0.25, 0.75, -0.25, 1e-4) == (0.5, 0.0, 1)

    def test_nan_slope_stops_the_search(self):
        best, bracket, evals = fairness_module._refine(lambda a: np.nan, 0.5, 2.0, 0.6, -1.0, 1e-4)
        assert (best, bracket, evals) == (0.6, pytest.approx(0.1), 1)


class TestMaximizeJ:
    def test_small_chain(self):
        res = maximize_J(10)
        assert isinstance(res, OptResult)
        assert res.alpha_hat == pytest.approx(0.5536, abs=2e-3)
        assert res.unimodal
        assert res.bracket <= 1e-4
        assert res.evaluations > 99

    def test_value_consistent(self):
        res = maximize_J(5)
        assert res.J_value == pytest.approx(J(res.alpha_hat, 5), abs=1e-12)

    def test_stationarity_at_optimum(self):
        res = maximize_J(8, tol_alpha=1e-6)
        assert abs(J_prime(res.alpha_hat, 8)) <= 1e-3

    def test_tol_controls_bracket(self):
        res = maximize_J(4, tol_alpha=1e-2)
        assert res.bracket <= 1e-2

    def test_long_chain_grid_crosses_three_quarters(self):
        # the 99-point scan lands on alpha = 0.75 exactly
        res = maximize_J(5000)
        assert res.unimodal
        assert 0.7445 <= res.alpha_hat <= 0.752

    @pytest.mark.parametrize("kw", [{"n": 0}, {"n": 2.5}, {"n": 3, "tol_alpha": 0.0}])
    def test_domain(self, kw):
        with pytest.raises(DomainError):
            maximize_J(**kw)

    def test_bool_length_refused(self):
        with pytest.raises(DomainError):
            maximize_J(True)

    @pytest.mark.parametrize("tol_alpha", ["x", None, True])
    def test_non_real_tolerance_refused(self, tol_alpha):
        # "x" raised an untyped TypeError from the comparison with 0
        with pytest.raises(DomainError):
            maximize_J(10, tol_alpha=tol_alpha)

    @pytest.mark.parametrize("n", [1, 2, 10, 51, 2000, 5000])
    def test_scan_matches_pointwise_J_and_J_prime(self, monkeypatch, n):
        # the values _search keeps for the grid and the slopes it takes, as
        # maximize_J hands them over, against J and J' solved alpha by alpha;
        # at 2000 and 5000 pairs spliced rows take the window. A refinement
        # point starts from its bracket's roots, not from newton_solve's
        # start, so its slope is J' of its own root, which passes tol and
        # lies near newton_solve's
        values, slopes = [], []
        real = fairness_module._search

        def search(n, grid, value, slope, width):
            def logged_value(alphas, h, W):
                out = value(alphas, h, W)
                values.extend(zip(alphas, out))
                return out

            def logged_slope(alphas, parts):
                out = slope(alphas, parts)
                slopes.append(list(zip(alphas, out)))
                return out

            return real(n, grid, logged_value, logged_slope, width)

        monkeypatch.setattr(fairness_module, "_search", search)
        roots = capture_roots(monkeypatch)
        maximize_J(n)
        # a block's values come part by part
        assert sorted(values[: len(GRID)]) == [(a, J(float(a), n)) for a in GRID]
        assert len(slopes[0]) >= 2
        for a, s in slopes[0]:
            assert s == J_prime(float(a), n)
        for ((a, s),) in slopes[1:]:
            x = roots[float(a)]
            assert s == J_prime(float(a), n, x)
            assert residual(ChainParams(n, float(a)), x) <= 1e-12
            assert np.max(np.abs(x - newton_solve(ChainParams(n, float(a))))) <= 1e-9

    def test_failed_scan_row_is_left_out(self, monkeypatch):
        ref = maximize_J(10)
        force_failures(monkeypatch, {GRID[19]})
        res = maximize_J(10)
        assert res == ref and res.unimodal

    def test_failed_row_at_the_sign_change(self, monkeypatch):
        # 0.55 and 0.56 bracket the optimum at n = 10; the bracket widens
        ref = maximize_J(10)
        force_failures(monkeypatch, {GRID[54]})
        res = maximize_J(10)
        assert res.unimodal
        assert res.alpha_hat == pytest.approx(ref.alpha_hat, abs=2e-4)
        assert res.bracket <= 1e-4

    def test_best_solved_point_when_the_sign_test_fails(self, monkeypatch):
        # only 0.2 and 0.3 solve, both left of the optimum: no sign change
        force_failures(monkeypatch, set(GRID) - {GRID[19], GRID[29]})
        res = maximize_J(10)
        assert not res.unimodal
        assert res.alpha_hat == GRID[29]
        assert res.J_value == J(float(GRID[29]), 10)
        assert res.evaluations == 99

    @pytest.mark.parametrize("n", [10, 100, 2000, 5000])
    def test_refinement_evaluations_capped(self, monkeypatch, n):
        # the one-grid-step bracket closes within ceil(log2(0.01 / 1e-4)) + 1
        # = 8 solves, and none follows (was 10 and a final J(alpha_hat))
        calls = count_solves(monkeypatch)
        res = maximize_J(n)
        assert res.unimodal and res.bracket <= 1e-4
        assert len(calls) <= 8
        assert res.evaluations == 99 + len(calls)

    @pytest.mark.parametrize("n", [100, 2000])
    def test_slopes_only_near_the_best_grid_point(self, monkeypatch, n):
        # the scan took J' on all 99 rows, though only the two at the sign
        # change were ever used
        rows = []
        real = fairness_module.tangent_rows

        def tangent(n, alphas, parts):
            rows.append(sum(len(part[0]) for part in parts))
            return real(n, alphas, parts)

        monkeypatch.setattr(fairness_module, "tangent_rows", tangent)
        res = maximize_J(n)
        assert res.unimodal
        assert sum(rows) <= 3 + (res.evaluations - 99)

    def test_failed_refinement_solve_keeps_the_bracket(self, monkeypatch):
        # every refinement point fails: the search stops at the scan's
        # bracket; a failed J_prime in the bisection used to raise
        force_failures(monkeypatch, off_grid(GRID))
        res = maximize_J(10)
        assert res.unimodal
        assert res.alpha_hat in (GRID[54], GRID[55])
        assert res.bracket == pytest.approx(GRID[55] - GRID[54])
        assert res.J_value == J(float(res.alpha_hat), 10)
        assert res.evaluations == 100

    def test_failed_solve_midway_keeps_the_narrower_bracket(self, monkeypatch):
        # the first refinement point solves, the rest fail
        calls = count_solves(monkeypatch)
        ref = maximize_J(10)
        first = calls[0]
        force_failures(monkeypatch, off_grid([*GRID, first]))
        res = maximize_J(10)
        assert res.unimodal
        assert res.evaluations == 101
        assert res.bracket < GRID[55] - GRID[54]
        assert res.alpha_hat == pytest.approx(ref.alpha_hat, abs=res.bracket)

    @pytest.mark.parametrize("n, tol_alpha", [(10, 1e-12), (4, 1e-10), (19, 1e-10)])
    def test_no_refinement_alpha_solved_twice(self, monkeypatch, n, tol_alpha):
        # below one ulp the nudged point landed on a bracket end, which was
        # solved again (35 solves of 9 alphas at n = 10, 1e-12)
        calls = count_solves(monkeypatch)
        res = maximize_J(n, tol_alpha=tol_alpha)
        assert len(calls) == len(set(calls))
        assert res.evaluations == 99 + len(calls)

    @pytest.mark.parametrize("tol_alpha", [1e-16, 1e-300, 1e-310, 5e-324])
    def test_tolerance_below_float_spacing_returns(self, monkeypatch, tol_alpha):
        # solved alpha = 0.553679143534189 without end; the cap turns a
        # regression into a failure instead of a hang
        calls = count_solves(monkeypatch, cap=200)
        res = maximize_J(10, tol_alpha=tol_alpha)
        assert len(calls) == len(set(calls))
        assert res.alpha_hat == maximize_J(10, tol_alpha=1e-14).alpha_hat
        assert res.bracket == math.ulp(res.alpha_hat)

    def test_no_solved_grid_point_raises(self, monkeypatch):
        force_failures(monkeypatch, set(GRID))
        with pytest.raises(ConvergenceError):
            maximize_J(10)


class TestRefinementStart:
    """A refinement solve starts from its bracket's two roots, interpolated, where both are whole halves on one side
    of 3/4; elsewhere from the ring pattern or a spliced root (solver._start_rows)."""

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_newton_steps_per_refinement_solve(self, monkeypatch, n):
        # from the ring pattern each took 3 or 4 steps
        solves = refinement_solves(monkeypatch)
        res = maximize_J(n)
        assert res.bracket <= 1e-4
        assert solves and max(s.steps for s in solves) <= 2
        assert all(s.solved and s.started for s in solves)

    @pytest.mark.parametrize(
        "n, first, target",
        [
            # the bracket [0.74, 0.76] straddles 3/4: flat and alternating
            # layouts would blend
            (10, 0.66, 0.7437),
            # the bracket [0.30, 0.32] holds spliced roots, windows
            (5000, 0.2, 0.3037),
        ],
    )
    def test_other_brackets_start_as_newton_solve(self, monkeypatch, n, first, target):
        starts = []
        real = solver_module._start_rows

        def start_rows(n, alphas, *args):
            starts.extend(float(a) for a in alphas)
            return real(n, alphas, *args)

        monkeypatch.setattr(solver_module, "_start_rows", start_rows)
        roots = capture_roots(monkeypatch)
        solves = refinement_solves(monkeypatch)
        # a parabola peaked at target puts the bracket between its two
        # nearest grid points
        grid = first + 0.02 * np.arange(10)
        *_, bracket, _ = fairness_module._search(
            n,
            grid,
            lambda alphas, h, W: -((np.asarray(alphas) - target) ** 2),
            lambda alphas, parts: -2.0 * (np.asarray(alphas) - target),
            1e-4,
        )
        assert bracket <= 1e-4
        assert all(s.solved for s in solves)
        for s in solves:
            assert s.started == (n < 2 * solver_module._SPLICE_MIN and (s.lo <= 0.75) == (s.hi <= 0.75))
            assert (s.alpha in starts) != s.started
            if not s.started:
                np.testing.assert_array_equal(roots[s.alpha], newton_solve(ChainParams(n, s.alpha)))
        assert not solves[0].started


class TestSearchChoice:
    """_search on synthetic values and slopes: the best grid point is the first maximum of the finite values, its
    neighbours and bracket ends are the nearest points with a finite value, and unimodal reads those same points."""

    GRID = 0.30 + 0.02 * np.arange(10)

    @staticmethod
    def search(value, slope, n=10):
        """_search over GRID with value(a) and slope(a) on arrays of alphas; returns its result and the slope calls."""
        calls = []

        def logged(alphas, parts):
            calls.append([float(a) for a in alphas])
            return slope(np.asarray(alphas, dtype=float))

        found = fairness_module._search(
            n, TestSearchChoice.GRID, lambda alphas, h, W: value(np.asarray(alphas, dtype=float)), logged, 1e-4
        )
        return found, calls

    def test_first_of_tied_maxima_is_best(self):
        # the maximum 2 at rows 2, 3 and 5; a zero slope forms no bracket
        grid = self.GRID
        table = dict(zip(grid.tolist(), [0.0, 1.0, 2.0, 2.0, 1.0, 2.0, 0.0, -1.0, -2.0, -3.0]))
        found, calls = self.search(lambda a: np.array([table[b] for b in a.tolist()]), np.zeros_like)
        alpha, J_value, _, evaluations, bracket, unimodal = found
        assert alpha == grid[2] and J_value == 2.0
        assert calls == [grid[1:4].tolist()]
        assert evaluations == len(grid) and bracket == grid[1] - grid[0]
        # a flat step is not a fall
        assert not unimodal

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_row_without_a_finite_value_is_skipped(self, monkeypatch, bad):
        # a parabola peaked at 0.37 whose row 0.36 has no finite value: the
        # best point is 0.38, and its slope points past 0.36 to 0.34
        grid = self.GRID
        roots = capture_roots(monkeypatch)
        starts = []
        real = fairness_module.newton_rows

        def rows(n, alphas, *args, **kwargs):
            if kwargs.get("start") is not None:
                # the solve overwrites its start
                starts.append((float(alphas[0]), kwargs["start"].copy()))
            return real(n, alphas, *args, **kwargs)

        monkeypatch.setattr(fairness_module, "newton_rows", rows)
        found, calls = self.search(
            lambda a: np.where(a == grid[3], bad, -((a - 0.37) ** 2)), lambda a: -2.0 * (a - 0.37)
        )
        alpha, _, _, evaluations, bracket, unimodal = found
        assert calls[0] == [grid[2], grid[4], grid[5]]
        assert round(alpha, 6) == 0.370001 and bracket <= 1e-4
        assert evaluations == len(grid) + 4 and len(starts) == 4
        assert all(grid[2] < a < grid[4] for a, _ in starts)
        # the first refinement solve, past 0.36, starts between the roots
        # at 0.34 and 0.38, not at 0.36
        (a, start), lo, hi = starts[0], float(grid[2]), float(grid[4])
        y_lo, y_hi = roots[lo][:5], roots[hi][:5]
        assert a > grid[3]
        np.testing.assert_array_equal(start, (y_lo + (a - lo) / (hi - lo) * (y_hi - y_lo))[None])
        assert unimodal

    @pytest.mark.parametrize("bumped", [None, 0, 9])
    def test_values_that_rise_again_are_not_unimodal(self, bumped):
        # a parabola peaked at 0.371, with row 0 or row 9 raised just above
        # its inner neighbour: the values fall before the rise, or rise
        # again after the fall; the maximum stays where it was
        grid = self.GRID

        def value(a):
            v = -((a - 0.371) ** 2)
            if bumped is None:
                return v
            inner = grid[1] if bumped == 0 else grid[8]
            return np.where(a == grid[bumped], -((inner - 0.371) ** 2) + 1e-6, v)

        (alpha, _, _, evaluations, bracket, unimodal), _ = self.search(value, lambda a: -2.0 * (a - 0.371))
        assert unimodal == (bumped is None)
        assert abs(alpha - 0.371) < bracket <= 1e-4 and evaluations > len(grid)

    def test_no_bracket_past_the_end_of_the_grid(self):
        # peaked below the grid: the best point is the first, and its slope
        # points off the grid, to no neighbour
        (alpha, _, _, evaluations, bracket, unimodal), calls = self.search(
            lambda a: -((a - 0.2) ** 2), lambda a: -2.0 * (a - 0.2)
        )
        grid = self.GRID
        assert calls == [grid[:2].tolist()]
        assert alpha == grid[0] and evaluations == len(grid) and bracket == grid[1] - grid[0]
        assert not unimodal


class TestSweepJ:
    def test_values_match_pointwise(self):
        rows = sweep_J(5, [0.2, 0.5, 0.7])
        for a, val in rows:
            assert val == pytest.approx(J(a, 5), abs=1e-10)

    def test_preserves_input_order(self):
        rows = sweep_J(3, [0.7, 0.2, 0.5])
        assert [a for a, _ in rows] == [0.7, 0.2, 0.5]

    def test_failed_cell_marked_nan(self):
        rows = sweep_J(5, [0.5, 1.5])
        assert rows[0][1] == pytest.approx(J(0.5, 5))
        assert np.isnan(rows[1][1])

    @pytest.mark.parametrize("alpha", ["a", None, "0.5", True])
    def test_non_real_alpha_refused(self, alpha):
        # "a" raised numpy's ValueError and None a TypeError; "0.5" and True
        # were read as numbers
        with pytest.raises(DomainError):
            sweep_J(10, [0.5, alpha])

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_bad_length_refused(self, n):
        # a wrong n used to come back as all-nan rows, read as failed solves
        with pytest.raises(DomainError):
            sweep_J(n, [0.5])

    def test_rows_equal_pointwise_J(self):
        alphas = [0.7, 1.5, 0.2, -0.1, 0.75, float("nan"), 0.95]
        rows = sweep_J(7, alphas)
        assert [a for a, _ in rows[:5]] == alphas[:5]
        for a, val in rows:
            if 0.0 < a < 1.0:
                assert val == J(a, 7)
            else:
                assert np.isnan(val)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_numpy_non_finite_alpha_marked_nan(self, dtype):
        # a float32 or float16 nan or inf raised DomainError instead
        rows = sweep_J(5, [dtype("nan"), dtype("inf"), dtype(0.5)])
        assert np.isnan(rows[0][1]) and np.isnan(rows[1][1])
        assert rows[2][1] == J(0.5, 5)

    def test_memory_of_a_huge_sweep(self):
        # spliced rows are valued on their windows; a start half of 10^8
        # pairs would take 400 MB
        alphas = [0.3, 0.5, 0.8, 0.95]
        sweep_J(1000, alphas)
        tracemalloc.start()
        try:
            rows = sweep_J(10**8, alphas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        for (_, big), (_, ref) in zip(rows, sweep_J(10**5, alphas)):
            assert big == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("alphas", [None, 0.5])
    def test_non_iterable_alphas_refused(self, alphas):
        # list(alphas) raised TypeError
        with pytest.raises(DomainError):
            sweep_J(5, alphas)

    def test_failed_solve_marked_nan(self, monkeypatch):
        force_failures(monkeypatch, {0.5})
        rows = sweep_J(5, [0.2, 0.5, 0.7])
        assert np.isnan(rows[1][1])
        assert rows[0][1] == J(0.2, 5) and rows[2][1] == J(0.7, 5)


@pytest.mark.parametrize("n", [3, 50, 1024, 5000])
def test_drivers_J_is_entropy_of_the_root_over_n(monkeypatch, n):
    # the drivers take J as J does, with or without x: the entropy_terms
    # of a root's half summed by solver._chain_sums. Chains of 3 and 50
    # pairs are whole halves; chains of 1024 and 5000 pairs at 0.95 start
    # from a spliced root, summed on its window. Either sum is within
    # 1e-15 relative of the exactly summed terms
    def check(a, val, x):
        assert J(a, n, x) == val
        assert abs(val - math.fsum(entropy_terms(x)) / n) <= 1e-15 * val

    alphas = [0.3, 0.6826, 0.74, 0.76, 0.8, 0.95]
    for a, val in sweep_J(n, alphas):
        check(a, val, newton_solve(ChainParams(n, a)))
        if n >= 1024:
            assert val == J(a, n)
    # alpha_hat's root is the search's own: a refinement point starts from
    # its bracket's roots, so J there is newton_solve's up to its tol
    roots = capture_roots(monkeypatch)
    res = maximize_J(n)
    check(res.alpha_hat, res.J_value, roots[res.alpha_hat])
    assert abs(res.J_value - J(res.alpha_hat, n)) <= 1e-12 * res.J_value
