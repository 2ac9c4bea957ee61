import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainfair.fairness as fairness_module
import chainfair.fit as fit_module
from chainfair import (
    ChainParams,
    DomainError,
    FitError,
    ThroughputTrace,
    compare_normalized,
    fit_alpha,
    newton_solve,
    read_trace_csv,
)

from patching import count_solves, force_failures, off_grid, refinement_solves
from test_solver import block_rows, unfolded

NS2_THREE_PAIRS = ThroughputTrace(rates=[1.55, 0.04, 1.55])


def model_trace(n, alpha):
    return ThroughputTrace(rates=newton_solve(ChainParams(n, alpha)))


def ratios(n, alpha):
    """The solved chain over its first pair, x(alpha)/x_1(alpha)."""
    x = newton_solve(ChainParams(n, alpha))
    return x / x[0]


def whole_part(x):
    """The root x as the one part of its whole mirror half."""
    m = (len(x) + 1) // 2
    return [(np.zeros(1, dtype=int), m, x[None, :m])]


def observed(trace, alpha=0.5):
    """compare_normalized's observed column, r_i/r_1."""
    return np.array([obs for _, obs, _, _ in compare_normalized(trace, alpha)])


def modelled(n, alpha):
    """compare_normalized's model column on an n-pair trace, x_i(alpha)/x_1(alpha)."""
    return np.array([mod for _, _, mod, _ in compare_normalized(ThroughputTrace(rates=np.ones(n)), alpha)])


class TestThroughputTrace:
    @pytest.mark.parametrize(
        "rates", [[1.0], [0.0, 1.0], [1.0, -0.5], [1.0, float("nan")]]
    )
    def test_invalid(self, rates):
        with pytest.raises(DomainError):
            ThroughputTrace(rates=rates)

    @pytest.mark.parametrize(
        "rates",
        [["a", "b"], [1.0, "b"], [[1.0, 2.0], [3.0]], {1: 2}, ["1.5", "2"], [1.0, True, 1.0], [1.0, np.True_, 1.0]],
    )
    def test_unreadable_rates_refused(self, rates):
        # each raised numpy's ValueError ({1: 2} its TypeError); ["1.5", "2"]
        # was read as numbers, and a bool among floats as 1.0, so that
        # fit_alpha(ThroughputTrace([1.0, True, 1.0])) returned alpha_fit = 0.05
        with pytest.raises(DomainError):
            ThroughputTrace(rates=rates)

    @pytest.mark.parametrize("rates", [[1e-320, 1.0], [1e-300, 1e10, 0.0], [1e-10, 1e300]])
    def test_overflowing_ratios_refused(self, rates):
        # fit_alpha and compare_normalized overflowed dividing by the first rate
        with pytest.raises(DomainError):
            ThroughputTrace(rates=rates)

    def test_largest_finite_ratio_accepted(self):
        rho = observed(ThroughputTrace(rates=[1e-300, 1e8, 0.0]))
        assert rho.tolist() == [1.0, 1e308, 0.0]

    def test_coerces_to_float_array(self):
        tr = ThroughputTrace(rates=[1, 2, 3])
        assert tr.rates.dtype == float


class TestNormalize:
    def test_first_pair_anchor(self):
        rho = observed(NS2_THREE_PAIRS)
        np.testing.assert_allclose(rho, [1.0, 0.04 / 1.55, 1.0])

    def test_constant_trace(self):
        rho = observed(ThroughputTrace(rates=[2.5] * 5))
        np.testing.assert_allclose(rho, np.ones(5))

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        base = np.array([1.2, 0.3, 0.8, 1.2])
        a = observed(ThroughputTrace(rates=base))
        b = observed(ThroughputTrace(rates=c * base))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_model_self_consistency(self):
        x = newton_solve(ChainParams(5, 0.6))
        rho = observed(ThroughputTrace(rates=x))
        np.testing.assert_allclose(rho, x / x[0], rtol=1e-14)


class TestFitAlpha:
    def test_noiseless_round_trip(self):
        res = fit_alpha(model_trace(6, 0.75))
        assert res.alpha_fit == pytest.approx(0.75, abs=1e-3)
        assert res.sse <= 1e-8

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.862])
    def test_round_trip_alpha_grid(self, alpha):
        res = fit_alpha(model_trace(9, alpha))
        assert res.alpha_fit == pytest.approx(alpha, abs=1e-3)

    @given(n=st.integers(3, 12), alpha=st.floats(0.2, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, n, alpha):
        res = fit_alpha(model_trace(n, alpha))
        assert res.alpha_fit == pytest.approx(alpha, abs=1e-3)

    def test_newton_steps_per_same_side_refinement_solve(self, monkeypatch):
        # a refinement solve whose bracket lies on one side of 3/4 starts
        # from its ends' roots: at most 3 Newton steps, where the ring
        # pattern took 3.5 on average and up to 5; none fails
        solves = refinement_solves(monkeypatch)
        for n in range(3, 21):
            for alpha in np.linspace(0.2, 0.95, 7):
                fit_alpha(model_trace(n, alpha))
        assert all(s.solved for s in solves)
        same = [s for s in solves if (s.lo <= 0.75) == (s.hi <= 0.75)]
        assert len(same) >= 0.9 * len(solves)
        assert max(s.steps for s in same) <= 3

    def test_noisy_recovery_on_average(self):
        rng = np.random.default_rng(0)
        x = newton_solve(ChainParams(6, 0.75))
        fits = []
        for _ in range(50):
            noisy = x * (1.0 + 0.01 * rng.standard_normal(6))
            fits.append(fit_alpha(ThroughputTrace(rates=noisy)).alpha_fit)
        assert np.mean(fits) == pytest.approx(0.75, abs=0.01)

    def test_ns2_three_pairs(self):
        res = fit_alpha(NS2_THREE_PAIRS)
        assert 0.842 <= res.alpha_fit <= 0.882

    def test_sse_is_sum_of_squared_residuals(self):
        res = fit_alpha(NS2_THREE_PAIRS)
        assert res.sse == pytest.approx(float(np.sum(res.residuals**2)), rel=1e-12)

    def test_alpha_within_bounds(self):
        res = fit_alpha(model_trace(4, 0.5), bounds=(0.4, 0.6))
        assert 0.4 <= res.alpha_fit <= 0.6

    @pytest.mark.parametrize("trace", [[1, 2, 3], np.array([1.0, 2.0]), None])
    def test_non_trace_refused(self, trace):
        # a list raised AttributeError reading its rates
        with pytest.raises(DomainError):
            fit_alpha(trace)

    @pytest.mark.parametrize("bounds", [(0.0, 0.5), (0.5, 1.0), (0.7, 0.2)])
    def test_bad_bounds(self, bounds):
        with pytest.raises(DomainError):
            fit_alpha(NS2_THREE_PAIRS, bounds=bounds)

    @pytest.mark.parametrize(
        "bounds", [(0.1, 0.2, 0.3), (0.1,), 0.5, ("0.1", "0.5"), None, (True, 0.5), (0.1, float("nan"))]
    )
    def test_malformed_bounds(self, bounds):
        # these raised ValueError or TypeError from unpacking or comparing
        with pytest.raises(DomainError):
            fit_alpha(NS2_THREE_PAIRS, bounds=bounds)

    @pytest.mark.parametrize("rates", [[1e-200, 1.0, 1.0], [1e-320, 1.0], [1.0, 1e155, 1e155]])
    def test_ratios_without_a_finite_sse_refused(self, monkeypatch, rates):
        # [1e-200, 1, 1] overflowed squaring its ratios, then read as FitError
        # "failed across the whole alpha grid" although every solve succeeded
        def no_solve(*args):
            raise AssertionError("the trace was solved before it was refused")

        monkeypatch.setattr(fairness_module, "newton_rows", no_solve)
        with pytest.raises(DomainError):
            fit_alpha(ThroughputTrace(rates=rates))

    @pytest.mark.parametrize("rates", [[1.0, 1.0], [1.0, 3.0]])
    def test_two_pair_trace_refused(self, monkeypatch, rates):
        # the root of two pairs has x_1 = x_2 at every alpha, so the SSE is
        # constant in alpha: these returned alpha_fit = 0.05 with sse 0.0
        # and 4.0
        def no_solve(*args):
            raise AssertionError("the trace was solved before it was refused")

        monkeypatch.setattr(fairness_module, "newton_rows", no_solve)
        with pytest.raises(DomainError, match="two-pair"):
            fit_alpha(ThroughputTrace(rates=rates))

    def test_all_solves_failing_is_fit_error(self, monkeypatch):
        force_failures(monkeypatch, lambda a: True)
        with pytest.raises(FitError):
            fit_module.fit_alpha(NS2_THREE_PAIRS)

    @pytest.mark.parametrize("alpha, bounds, edge", [(0.3, (0.5, 0.99), 0.5), (0.95, (0.2, 0.8), 0.8)])
    def test_minimum_at_a_bound(self, alpha, bounds, edge):
        res = fit_alpha(model_trace(7, alpha), bounds=bounds)
        assert abs(res.alpha_fit - edge) <= 1e-4

    @pytest.mark.parametrize("n", [3, 9])
    def test_failed_refinement_solve_keeps_the_scan_bracket(self, monkeypatch, n):
        # every refinement point fails: the fit stops at the scan's grid step
        grid = np.linspace(0.05, 0.99, fit_module._SCAN_POINTS)
        force_failures(monkeypatch, off_grid(grid))
        res = fit_alpha(model_trace(n, 0.7))
        assert res.alpha_fit in grid
        assert res.alpha_fit == pytest.approx(0.7, abs=grid[1] - grid[0])
        assert res.sse == pytest.approx(float(np.sum(res.residuals**2)), rel=1e-12)

    def test_serial_solves_per_fit(self, monkeypatch):
        # golden section made 16 serial solves and one more for the residuals
        calls = count_solves(monkeypatch)
        for n in range(3, 21):
            for alpha in (0.3, 0.5, 0.7, 0.862):
                calls.clear()
                res = fit_alpha(model_trace(n, alpha))
                assert len(calls) <= 8, f"n={n} alpha={alpha}"
                assert abs(res.alpha_fit - alpha) <= 1e-4

    def test_memory_of_a_long_fit(self):
        # the scan held all 33 roots at once: a peak of 100 x 8n bytes
        n = 200_000
        trace = model_trace(n, 0.7)
        tracemalloc.start()
        try:
            fit_alpha(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 8 * n

    def test_sse_slope_matches_finite_differences(self):
        h = 1e-6
        worst = 0.0
        for n in range(3, 21):
            # a shape no alpha fits exactly, so SSE' is away from zero
            rho = ratios(n, 0.6) * (1.0 + 0.05 * np.sin(np.arange(n)))

            def sse(a):
                return float(np.sum((ratios(n, a) - rho) ** 2))

            for alpha in (0.3, 0.5, 0.7, 0.862):
                fd = (sse(alpha + h) - sse(alpha - h)) / (2 * h)
                x = newton_solve(ChainParams(n, alpha))
                (slope,) = fit_module._sse_slopes(n, [alpha], whole_part(x), rho)
                worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
        assert worst <= 1e-6

    def test_sse_slope_on_an_even_chain_past_three_quarters(self):
        # I - F' is near singular on its antisymmetric mode here, and a
        # noisy trace's gradient is not mirror symmetric: SSE' read 1.4334
        # where central differences give 1.4022558
        n, alpha, h = 400, 0.8, 1e-6
        x = newton_solve(ChainParams(n, alpha))
        rates = x * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(n))
        rho = rates / rates[0]

        def sse(a):
            return float(np.sum((ratios(n, a) - rho) ** 2))

        fd = (sse(alpha + h) - sse(alpha - h)) / (2 * h)
        (slope,) = fit_module._sse_slopes(n, [alpha], whole_part(x), rho)
        assert slope == pytest.approx(fd, rel=1e-6)


class TestCompareNormalized:
    def test_perfect_trace_zero_residuals(self):
        rows = compare_normalized(model_trace(5, 0.6), 0.6)
        for _, observed, model, resid in rows:
            assert resid == pytest.approx(0.0, abs=1e-9)
            assert observed == pytest.approx(model, abs=1e-9)

    def test_pairs_one_based_in_order(self):
        rows = compare_normalized(NS2_THREE_PAIRS, 0.862)
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_border_even_pairs_increase_toward_center(self):
        x = newton_solve(ChainParams(100, 0.6826))
        rows = compare_normalized(ThroughputTrace(rates=x), 0.6826)
        rho = [model for _, _, model, _ in rows]
        assert rho[1] < rho[3] < rho[5]


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = "".join(f"{i},{r!r}\n" for i, r in enumerate(NS2_THREE_PAIRS.rates.tolist(), start=1))
        path.write_text("pair,rate\n" + rows)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back.rates, NS2_THREE_PAIRS.rates)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair,throughput\n1,1.5\n2,0.5\n")
        with pytest.raises(DomainError):
            read_trace_csv(path)

    def test_pairs_must_be_complete(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("pair,rate\n1,1.5\n3,0.5\n")
        with pytest.raises(DomainError):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "row", ["1,abc", "x,1.0", "1"], ids=["bad-rate", "bad-pair", "missing-column"]
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "malformed.csv"
        path.write_text(f"pair,rate\n1,1.5\n{row}\n")
        with pytest.raises(DomainError, match=r"malformed\.csv, line 3: "):
            read_trace_csv(path)

    @pytest.mark.parametrize("path", [True, 1, None, 2.5])
    def test_non_path_refused_and_stdout_kept(self, capsys, path):
        # True was opened as file descriptor 1 and the with block closed
        # stdout: every later print raised OSError
        with capsys.disabled():
            with pytest.raises(DomainError):
                read_trace_csv(path)
            os.fstat(1)
            print(end="", flush=True)

    def test_rows_sorted_by_pair(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("pair,rate\n2,0.2\n1,1.0\n3,0.3\n")
        tr = read_trace_csv(path)
        np.testing.assert_allclose(tr.rates, [1.0, 0.2, 0.3])


class TestModelRatios:
    def test_anchored_at_one(self):
        rho = modelled(8, 0.7)
        assert rho[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_solver(self):
        x = newton_solve(ChainParams(6, 0.55))
        np.testing.assert_allclose(modelled(6, 0.55), x / x[0], rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_array_of_alphas_gives_rows(self, n):
        # the batch behind fit_alpha's scan
        alphas = np.linspace(0.05, 0.99, 33)
        blocks = list(fairness_module.newton_rows(n, alphas))
        assert [i for parts in blocks for i in block_rows(parts)] == list(range(33))
        roots = unfolded(n, [part for parts in blocks for part in parts])
        for i, a in enumerate(alphas):
            assert np.array_equal(roots[i], newton_solve(ChainParams(n, float(a))))

    def test_failed_rows_are_left_out(self, monkeypatch):
        force_failures(monkeypatch, {0.6})
        (parts,) = fairness_module.newton_rows(5, [0.3, 0.6, 0.9])
        assert block_rows(parts) == [0, 2]
        roots = unfolded(5, parts)
        assert np.array_equal([roots[0], roots[2]], [newton_solve(ChainParams(5, a)) for a in (0.3, 0.9)])
