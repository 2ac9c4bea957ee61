import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainfair.fit as fit_module
from chainfair import (
    ChainFairError,
    ChainParams,
    ConvergenceError,
    DomainError,
    FitError,
    ThroughputTrace,
    compare_normalized,
    fit_alpha,
    model_ratios,
    newton_solve,
    normalize,
    read_trace_csv,
    write_trace_csv,
)

NS2_THREE_PAIRS = ThroughputTrace(rates=[1.55, 0.04, 1.55], label="ns-2 n=3")


def model_trace(n, alpha):
    return ThroughputTrace(rates=newton_solve(ChainParams(n, alpha)))


class TestThroughputTrace:
    @pytest.mark.parametrize(
        "rates", [[1.0], [0.0, 1.0], [1.0, -0.5], [1.0, float("nan")]]
    )
    def test_invalid(self, rates):
        with pytest.raises(DomainError):
            ThroughputTrace(rates=rates)

    def test_coerces_to_float_array(self):
        tr = ThroughputTrace(rates=[1, 2, 3])
        assert tr.rates.dtype == float


class TestNormalize:
    def test_first_pair_anchor(self):
        rho = normalize(NS2_THREE_PAIRS)
        np.testing.assert_allclose(rho, [1.0, 0.04 / 1.55, 1.0])

    def test_constant_trace(self):
        rho = normalize(ThroughputTrace(rates=[2.5] * 5))
        np.testing.assert_allclose(rho, np.ones(5))

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        base = np.array([1.2, 0.3, 0.8, 1.2])
        a = normalize(ThroughputTrace(rates=base))
        b = normalize(ThroughputTrace(rates=c * base))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_model_self_consistency(self):
        x = newton_solve(ChainParams(5, 0.6))
        rho = normalize(ThroughputTrace(rates=x))
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

    @pytest.mark.parametrize("bounds", [(0.0, 0.5), (0.5, 1.0), (0.7, 0.2)])
    def test_bad_bounds(self, bounds):
        with pytest.raises(DomainError):
            fit_alpha(NS2_THREE_PAIRS, bounds=bounds)

    def test_all_solves_failing_is_fit_error(self, monkeypatch):
        def boom(alpha, n):
            raise ChainFairError("forced failure")

        monkeypatch.setattr(fit_module, "model_ratios", boom)
        with pytest.raises(FitError):
            fit_module.fit_alpha(NS2_THREE_PAIRS)


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
        write_trace_csv(path, NS2_THREE_PAIRS)
        back = read_trace_csv(path, label=NS2_THREE_PAIRS.label)
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

    def test_rows_sorted_by_pair(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("pair,rate\n2,0.2\n1,1.0\n3,0.3\n")
        tr = read_trace_csv(path)
        np.testing.assert_allclose(tr.rates, [1.0, 0.2, 0.3])


class TestModelRatios:
    def test_anchored_at_one(self):
        rho = model_ratios(0.7, 8)
        assert rho[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_solver(self):
        x = newton_solve(ChainParams(6, 0.55))
        np.testing.assert_allclose(model_ratios(0.55, 6), x / x[0], rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_array_of_alphas_gives_rows(self, n):
        alphas = np.linspace(0.05, 0.99, 33)
        rows = model_ratios(alphas, n)
        assert rows.shape == (33, n)
        for a, row in zip(alphas, rows):
            assert np.array_equal(row, model_ratios(float(a), n))

    def test_failed_rows_are_nan(self, monkeypatch):
        real = fit_module.newton_rows

        def fail_second(n, alphas, *args):
            for X, errors in real(n, alphas, *args):
                errors[1] = ConvergenceError("forced failure")
                yield X, errors

        monkeypatch.setattr(fit_module, "newton_rows", fail_second)
        rows = model_ratios([0.3, 0.6, 0.9], 5)
        assert np.all(np.isnan(rows[1]))
        assert np.array_equal(rows[[0, 2]], [model_ratios(0.3, 5), model_ratios(0.9, 5)])
