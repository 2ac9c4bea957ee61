import tracemalloc

import numpy as np
import pytest

import chainfair.fairness as fairness_module
from chainfair import (
    ChainParams,
    ConvergenceError,
    DomainError,
    J,
    J_prime,
    OptResult,
    entropy,
    grad_entropy,
    maximize_J,
    newton_solve,
    sweep_J,
)

from reference import jacobian_F


GRID = np.linspace(0.01, 0.99, 99)


def force_failures(monkeypatch, bad):
    """Make the batched solves in fairness fail for the alphas in bad."""
    real = fairness_module.newton_rows

    def rows(n, alphas, *args):
        alphas = list(alphas)
        start = 0
        for X, errors in real(n, alphas, *args):
            for i in range(len(X)):
                if alphas[start + i] in bad:
                    errors[i] = ConvergenceError("forced failure", last=X[i], residual=1.0)
            start += len(X)
            yield X, errors

    monkeypatch.setattr(fairness_module, "newton_rows", rows)


class TestJ:
    def test_matches_entropy_over_n(self):
        x = newton_solve(ChainParams(6, 0.55))
        assert J(0.55, 6) == pytest.approx(entropy(x) / 6, abs=1e-14)

    def test_reuses_supplied_x(self):
        x = newton_solve(ChainParams(4, 0.4))
        assert J(0.4, 4, x=x) == J(0.4, 4)

    def test_n1_analytic(self):
        # single pair: x = alpha, J = -alpha log alpha
        a = 0.3
        assert J(a, 1) == pytest.approx(-a * np.log(a), abs=1e-12)

    @pytest.mark.parametrize("alpha, n, x", [(0.5, 10, np.full(5, 0.2)), (1.5, 3, np.full(3, 0.2))])
    def test_supplied_x_validated_as_in_J_prime(self, alpha, n, x):
        # J returned 0.1609 for a half-length x and a value for alpha = 1.5
        for f in (J, J_prime):
            with pytest.raises(DomainError):
                f(alpha, n, x=x)


class TestAdjoint:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    @pytest.mark.parametrize("alpha", [0.2, 0.6, 0.85])
    def test_stationarity_residual(self, n, alpha):
        # the multipliers from the one adjoint path J_prime and the scans take
        x = newton_solve(ChainParams(n, alpha))
        (lam,) = fairness_module._adjoint_rows(n, np.array([[alpha]]), np.pad(x, 1)[None])
        lhs = jacobian_F(ChainParams(n, alpha), x).T @ lam - lam
        rhs = grad_entropy(x) / n
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


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

    def test_singular_adjoint_is_convergence_error(self):
        # at alpha = 0.8, x_1 = x_3 = 7/32 the 3 x 3 adjoint matrix has
        # determinant alpha^2 (2 - x_1 - x_3) - 1 = 0; scipy raised LinAlgError
        with pytest.raises(ConvergenceError):
            J_prime(0.8, 3, x=np.array([0.21875, 0.5, 0.21875]))

    def test_memory_at_a_million_pairs(self):
        n = 10 ** 6
        x = newton_solve(ChainParams(n, 0.6826))
        tracemalloc.start()
        try:
            J_prime(0.6826, n, x=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n


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

    @pytest.mark.parametrize("n", [1, 2, 10, 51])
    def test_scan_matches_pointwise_J_and_J_prime(self, n):
        Js, signs = fairness_module._scan(n, GRID, slopes=True)
        for a, j, s in zip(GRID, Js, signs):
            assert j == J(float(a), n)
            assert s == np.sign(J_prime(float(a), n))

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

    def test_no_solved_grid_point_raises(self, monkeypatch):
        force_failures(monkeypatch, set(GRID))
        with pytest.raises(ConvergenceError):
            maximize_J(10)


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

    def test_failed_solve_marked_nan(self, monkeypatch):
        force_failures(monkeypatch, {0.5})
        rows = sweep_J(5, [0.2, 0.5, 0.7])
        assert np.isnan(rows[1][1])
        assert rows[0][1] == J(0.2, 5) and rows[2][1] == J(0.7, 5)
