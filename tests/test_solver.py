import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from chainfair import (
    ChainParams,
    ConvergenceError,
    DomainError,
    SolveOptions,
    contraction_check,
    fixed_point_solve,
    newton_solve,
    residual,
)
import chainfair.solver as solver_module
from chainfair.solver import _STACK_UNKNOWNS, newton_rows, solve_tridiagonal_rows

from reference import closed_form_n4, jacobian_F

# FP iteration converges on this sub-grid; past alpha ~ 0.8 at larger n the
# map develops attracting period-2 cycles and fixed_point_solve raises.
FP_SAFE = [
    (n, a)
    for n in (1, 2, 3, 7, 20, 50)
    for a in (0.05, 0.3, 0.5, 0.7, 0.75)
]


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.tol == 1e-12 and o.max_iter is None

    @pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-9}, {"max_iter": 0}, {"max_iter": 2.5}])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            SolveOptions(**kw)


class TestFixedPoint:
    def test_n1_is_alpha(self):
        np.testing.assert_allclose(fixed_point_solve(ChainParams(1, 0.7)), [0.7])

    def test_n2_scalar_equation(self):
        x = fixed_point_solve(ChainParams(2, 0.8))
        np.testing.assert_allclose(x, [4 / 9, 4 / 9], atol=1e-12)

    def test_n3_closed_form(self):
        x = fixed_point_solve(ChainParams(3, 0.5))
        assert x[0] == pytest.approx(0.41421356, abs=1e-8)
        assert x[1] == pytest.approx(0.17157288, abs=1e-8)

    def test_nonconvergence_carries_last_iterate(self):
        p = ChainParams(50, 0.9)
        with pytest.raises(ConvergenceError) as exc:
            fixed_point_solve(p, SolveOptions(max_iter=500))
        err = exc.value
        assert err.last is not None and len(err.last) == 50
        assert err.residual == pytest.approx(residual(p, err.last))

    def test_period_two_cells_raise(self):
        # flip-bifurcated cell: iterates settle on a 2-cycle, never the root
        with pytest.raises(ConvergenceError):
            fixed_point_solve(ChainParams(12, 0.95), SolveOptions(max_iter=300_000))

    def test_deterministic(self):
        a = fixed_point_solve(ChainParams(9, 0.6))
        b = fixed_point_solve(ChainParams(9, 0.6))
        assert np.array_equal(a, b)


class TestNewton:
    @pytest.mark.parametrize("alpha", [0.05 * k for k in range(1, 20)])
    def test_matches_n4_closed_form(self, alpha):
        x = newton_solve(ChainParams(4, alpha))
        assert np.max(np.abs(x - closed_form_n4(alpha))) <= 1e-10

    def test_n1(self):
        np.testing.assert_allclose(newton_solve(ChainParams(1, 0.3)), [0.3])

    def test_flat_center_large_n(self):
        x = newton_solve(ChainParams(2000, 0.75))
        assert abs(x[1000] - 1 / 3) <= 1e-2

    def test_handles_10e5(self):
        x = newton_solve(ChainParams(100_000, 0.6))
        p = ChainParams(100_000, 0.6)
        assert residual(p, x) <= 1e-12

    @pytest.mark.parametrize(("n", "alpha"), FP_SAFE)
    def test_agrees_with_fixed_point(self, n, alpha):
        p = ChainParams(n, alpha)
        xf = fixed_point_solve(p)
        xn = newton_solve(p)
        assert np.max(np.abs(xf - xn)) <= 10 * 1e-12

    @given(n=st.integers(1, 40), alpha=st.floats(0.02, 0.97))
    @settings(max_examples=40, deadline=None)
    def test_root_quality_properties(self, n, alpha):
        p = ChainParams(n, alpha)
        x = newton_solve(p)
        assert residual(p, x) <= 1e-11
        assert np.max(np.abs(x - x[::-1])) <= 1e-12
        assert np.all(x > 0.0) and np.all(x <= alpha + 1e-15)

    @pytest.mark.parametrize("n", [5, 9, 15, 6, 10, 16])
    @pytest.mark.parametrize("alpha", [0.8, 0.9])
    def test_odd_chain_parity_structure(self, n, alpha):
        # the branch returned past 3/4: high at both ends, alternating inward;
        # an even chain meets itself in a central pair x[n/2 - 1] == x[n/2]
        x = newton_solve(ChainParams(n, alpha))
        for end in (x, x[::-1]):
            d = np.diff(end[: (n + 1) // 2])
            assert np.all(d[0::2] < 0.0) and np.all(d[1::2] > 0.0)
        if n % 2 == 0:
            assert abs(x[n // 2 - 1] - x[n // 2]) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 11, 1000, 1001, 2001, 3000, 5000, 10001, 100_000])
    @pytest.mark.parametrize("alpha", [0.7495, 0.7499, 0.75, 0.7501, 0.7505, 0.8, 0.95])
    def test_converges_through_three_quarters(self, n, alpha):
        p = ChainParams(n, alpha)
        x = newton_solve(p)
        assert residual(p, x) <= 1e-12
        assert np.max(np.abs(x - x[::-1])) <= 1e-12
        assert np.all(x > 0.0) and np.all(x <= alpha)

    @pytest.mark.parametrize("n", [3, 8, 64])
    @pytest.mark.parametrize("alpha", [1e-12, 1.0 - 1e-12])
    def test_positive_root_at_extreme_alpha(self, n, alpha):
        # at alpha = 1e-12 the zero vector already meets tol; the root is ~alpha
        p = ChainParams(n, alpha)
        x = newton_solve(p)
        assert residual(p, x) <= 1e-12
        assert np.all(x > 0.0) and np.all(x <= alpha)

    def test_failure_carries_last_iterate(self):
        p = ChainParams(50, 0.9)
        with pytest.raises(ConvergenceError) as exc:
            newton_solve(p, SolveOptions(max_iter=1))
        err = exc.value
        assert err.last is not None and len(err.last) == 50
        assert err.residual == pytest.approx(residual(p, err.last))


class TestContractionCheck:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_all_ones_always_domain_ok(self, alpha):
        cert = contraction_check(ChainParams(4, alpha), np.ones(4))
        assert cert.domain_ok
        assert cert.norm_bound == pytest.approx(alpha)
        assert cert.contractive

    def test_far_point_fails_domain(self):
        cert = contraction_check(ChainParams(3, 0.75), [0.30, 0.5, 0.5])
        assert not cert.domain_ok

    def test_solution_contractive_small_alpha(self):
        p = ChainParams(3, 0.5)
        cert = contraction_check(p, newton_solve(p))
        assert cert.contractive and cert.norm_bound < 1.0

    def test_contractive_consistent_with_bound(self):
        cert = contraction_check(ChainParams(4, 0.9), np.zeros(4))
        assert cert.norm_bound == pytest.approx(1.8)
        assert not cert.contractive

    def test_n1_jacobian_vanishes(self):
        cert = contraction_check(ChainParams(1, 0.9), [0.4])
        assert cert.norm_bound == 0.0 and cert.contractive

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_matches_dense_row_sums(self, n):
        p = ChainParams(n, 0.8)
        x = np.linspace(0.1, 0.9, n)
        ref = np.max(np.sum(np.abs(jacobian_F(p, x)), axis=1))
        assert contraction_check(p, x).norm_bound == pytest.approx(ref, abs=1e-15)

    def test_memory_linear_in_n(self):
        n = 5000
        p = ChainParams(n, 0.6826)
        x = np.full(n, 0.4)
        tracemalloc.start()
        try:
            contraction_check(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * 8


ROW_NS = [1, 2, 3, 4, 5, 10, 51, 100, 1001, 5000]
ROW_ALPHAS = [1e-300] + [round(0.05 * k, 2) for k in range(1, 16)] + [0.7501, 0.95, 1.0 - 2.0**-52]
MIXED_ALPHAS = [0.05, 0.5, 0.7499, 0.75, 0.7501, 0.8, 0.95, 1.0 - 2.0**-52, 1e-300, 0.3]


def all_rows(n, alphas, opts=SolveOptions()):
    """Flatten newton_rows into one list of (root, error or None) per alpha."""
    out = []
    for X, errors in newton_rows(n, alphas, opts):
        out += [(x, errors.get(i)) for i, x in enumerate(X)]
    return out


class TestNewtonRows:
    @pytest.mark.parametrize("n", ROW_NS)
    def test_rows_bit_identical_to_newton_solve(self, n):
        rows = all_rows(n, ROW_ALPHAS)
        assert len(rows) == len(ROW_ALPHAS)
        for a, (x, err) in zip(ROW_ALPHAS, rows):
            assert err is None
            assert np.array_equal(x, newton_solve(ChainParams(n, a)))

    @pytest.mark.parametrize("max_iter", range(1, 14))
    @pytest.mark.parametrize("n", [10, 1001])
    def test_failures_stay_in_their_rows(self, n, max_iter):
        opts = SolveOptions(max_iter=max_iter)
        for a, (x, err) in zip(MIXED_ALPHAS, all_rows(n, MIXED_ALPHAS, opts)):
            try:
                ref = newton_solve(ChainParams(n, a), opts)
            except ConvergenceError as ref_err:
                assert err is not None
                assert str(err) == str(ref_err)
                assert err.residual == ref_err.residual
                assert np.array_equal(err.last, ref_err.last)
            else:
                assert err is None
                assert np.array_equal(x, ref)

    def test_step_caps_mix_failures_and_roots(self):
        # the isolation test above is only telling if some stacks mix outcomes
        mixed = 0
        for max_iter in range(1, 14):
            rows = all_rows(1001, MIXED_ALPHAS, SolveOptions(max_iter=max_iter))
            mixed += 0 < sum(err is None for _, err in rows) < len(rows)
        assert mixed >= 3

    def test_blocks_respect_the_stack_cap(self):
        n, m = 5000, 2500
        alphas = np.linspace(0.01, 0.99, 99)
        sizes = [len(X) for X, _ in newton_rows(n, alphas)]
        assert sum(sizes) == 99
        assert max(sizes) * m <= _STACK_UNKNOWNS
        assert len(sizes) > 1
        assert len(all_rows(10**6, [0.6])) == 1

    def test_memory_bounded_by_the_stack_cap(self):
        n = 5000
        alphas = np.linspace(0.01, 0.99, 99)

        def peak(alphas):
            tracemalloc.start()
            try:
                for _ in newton_rows(n, alphas):
                    pass
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top

        one_block = peak(alphas[: _STACK_UNKNOWNS // ((n + 1) // 2)])
        every_row = peak(alphas)
        # the peak is that of one block, not of all the rows at once
        assert every_row < 1.5 * one_block
        assert every_row < 20 * _STACK_UNKNOWNS * 8
        assert every_row < len(alphas) * n * 8

    def test_invalid_alpha_is_refused(self):
        with pytest.raises(DomainError):
            next(newton_rows(5, [0.5, 1.5]))

    def test_no_alphas_no_blocks(self):
        assert list(newton_rows(5, [])) == []


class TestSolveTridiagonalRows:
    @staticmethod
    def systems(r, m, seed=1):
        rng = np.random.default_rng(seed)
        dl = rng.uniform(-0.5, 0.5, (r, m))
        du = rng.uniform(-0.5, 0.5, (r, m))
        d = 2.0 + rng.random((r, m))
        b = rng.standard_normal((r, m))
        dl[:, -1] = du[:, -1] = 0.0
        return dl, d, du, b

    @staticmethod
    def banded(dl, d, du, b):
        ab = np.zeros((3, len(d)))
        ab[0, 1:] = du[:-1]
        ab[1] = d
        ab[2, :-1] = dl[:-1]
        return solve_banded((1, 1), ab, b)

    @pytest.mark.parametrize(("r", "m"), [(1, 1), (4, 1), (1, 9), (6, 9)])
    def test_rows_match_banded_solve(self, r, m):
        dl, d, du, b = self.systems(r, m)
        x, bad = solve_tridiagonal_rows(dl, d, du, b)
        assert not bad.any()
        for i in range(r):
            assert np.array_equal(x[i], self.banded(dl[i], d[i], du[i], b[i]))

    def test_singular_blocks_leave_the_others_alone(self):
        dl, d, du, b = self.systems(6, 7)
        clean = solve_tridiagonal_rows(dl, d, du, b)[0]
        # row 1 is singular at its first pivot, rows 3 and 5 (the last
        # block) at their last: a zero row decoupled from the rest
        d[1, 0] = dl[1, 0] = 0.0
        for i in (3, 5):
            d[i, -1] = dl[i, -2] = du[i, -2] = 0.0
        x, bad = solve_tridiagonal_rows(dl, d, du, b)
        assert bad.tolist() == [False, True, False, True, False, True]
        assert np.all(np.isnan(x[bad]))
        assert np.array_equal(x[~bad], clean[~bad])

    def test_all_singular(self):
        dl, d, du, b = self.systems(3, 4)
        d[:] = dl[:] = 0.0
        x, bad = solve_tridiagonal_rows(dl, d, du, b)
        assert bad.all() and np.all(np.isnan(x))


SPLICE_NS = [65_536, 65_537, 65_538, 65_539] + [100_000 + r for r in range(4)] + [10**6]
SPLICE_ALPHAS = [1e-12, 1e-3, 0.3, 0.6826, 0.7495, 0.7499, 0.75, 0.7501, 0.7505, 0.8, 0.95, 1.0 - 1e-12]


def full_solve(n, alpha, opts=SolveOptions()):
    """The full-length loop of one alpha from the ring start.

    Returns the root or last iterate and None or why the loop failed.
    """
    start = solver_module._ring_rows([alpha], (n + 1) // 2)
    y, (why,) = solver_module._newton_block(n, [alpha], opts, start)
    return solver_module._unfold(y, n)[0], why


def gtsv_sizes(monkeypatch):
    """Make solver._gtsv append the length of every system it solves to the returned list."""
    seen = []
    real = solver_module._gtsv

    def recording(dl, d, du, b, *args, **kwargs):
        seen.append(len(d))
        return real(dl, d, du, b, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_gtsv", recording)
    return seen


class TestSplicedLongChains:
    @pytest.mark.parametrize("alpha", SPLICE_ALPHAS)
    @pytest.mark.parametrize("n", SPLICE_NS)
    def test_spliced_root(self, n, alpha):
        p = ChainParams(n, alpha)
        x = newton_solve(p)
        assert residual(p, x) <= 1e-12
        assert np.array_equal(x, x[::-1])
        assert np.all(x > 0.0) and np.all(x <= alpha)
        ref, why = full_solve(n, alpha)
        assert why is None
        # at 3/4 the spliced start fails tol and the loop steps from it;
        # I - F' is nearly singular on the alternating mode there, so a
        # 1e-12 residual fixes the root only to about 1e-8
        assert np.max(np.abs(x - ref)) <= (1e-7 if alpha == 0.75 else 1e-11)

    @pytest.mark.parametrize("n", [5000, 8 * solver_module._SPLICE_LEN - 1])
    @pytest.mark.parametrize("alpha", [1e-3, 0.6826, 0.75, 0.8, 0.95])
    def test_shorter_chains_are_solved_whole(self, n, alpha):
        x = newton_solve(ChainParams(n, alpha))
        assert np.array_equal(x, full_solve(n, alpha)[0])

    @pytest.mark.parametrize("alpha", [0.6826, 0.8, 0.95])
    def test_big_solve_runs_newton_on_the_short_chain_only(self, monkeypatch, alpha):
        # the full-length solve passes about 2.5e6 unknowns to gtsv at n = 1e6
        seen = gtsv_sizes(monkeypatch)
        newton_solve(ChainParams(10**6, alpha))
        assert 0 < sum(seen) < 10**5

    @pytest.mark.parametrize("n", [65_536, 65_537, 65_538, 65_539])
    def test_splice_is_taken_for_every_residue_mod_4(self, monkeypatch, n):
        # a short chain of the wrong residue meets the bulk pattern out of
        # phase past alpha = 3/4, and the full-length loop would step; here
        # every block holds one row, so no gtsv call may exceed a short half
        seen = gtsv_sizes(monkeypatch)
        for _, errors in newton_rows(n, [0.3, 0.6826, 0.8, 0.95]):
            assert not errors
        assert 0 < max(seen) <= (solver_module._SPLICE_LEN + n % 4 + 1) // 2

    @pytest.mark.parametrize("alpha", [0.6826, 0.8, 0.95])
    def test_big_solve_memory(self, alpha):
        n = 10**6
        tracemalloc.start()
        try:
            newton_solve(ChainParams(n, alpha))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the spliced start that passes tol peaks at 2 x 8n bytes; a
        # full-length step peaks at 6 x 8n
        assert peak < 2.25 * 8 * n

    def test_rejected_splice_falls_through(self, monkeypatch):
        # a ring fill off by 1e-9 at one bulk site fails the loop's test at
        # the spliced start; the full-length loop must step from there
        n, alpha = 10**6, 0.8
        real = solver_module._ring_rows

        def ring_rows(alphas, m):
            y = real(alphas, m)
            if m == (n + 1) // 2:
                y[:, m // 2] += 1e-9
            return y

        monkeypatch.setattr(solver_module, "_ring_rows", ring_rows)
        seen = gtsv_sizes(monkeypatch)
        p = ChainParams(n, alpha)
        x = newton_solve(p)
        assert max(seen) == (n + 1) // 2
        assert residual(p, x) <= 1e-12

    def test_failure_matches_the_full_solve(self):
        n, alpha, opts = 10**6, 0.8, SolveOptions(max_iter=1)
        p = ChainParams(n, alpha)
        with pytest.raises(ConvergenceError) as exc:
            newton_solve(p, opts)
        err = exc.value
        assert len(err.last) == n
        assert err.residual == residual(p, err.last)

    @pytest.mark.parametrize("max_iter", [None, 4])
    def test_spliced_and_full_rows_share_a_block(self, monkeypatch, max_iter):
        # with room for several long rows per block, rows whose spliced
        # start passes tol and rows that step from it (0.75) mix; at 4
        # steps the rows at 0.75 fail while the others converge
        n, opts = 100_001, SolveOptions(max_iter=max_iter)
        alphas = [0.95, 0.75, 0.6826, 0.75]
        refs = []
        for a in alphas:
            try:
                refs.append(newton_solve(ChainParams(n, a), opts))
            except ConvergenceError as err:
                refs.append(err)
        monkeypatch.setattr(solver_module, "_STACK_UNKNOWNS", 1 << 20)
        ((X, errors),) = newton_rows(n, alphas, opts)
        for i, ref in enumerate(refs):
            if isinstance(ref, ConvergenceError):
                assert str(errors[i]) == str(ref)
                assert np.array_equal(errors[i].last, ref.last)
                assert np.array_equal(X[i], ref.last)
            else:
                assert i not in errors
                assert np.array_equal(X[i], ref)
        assert len(errors) == (2 if max_iter else 0)
