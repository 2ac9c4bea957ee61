import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from chainfair import (
    ChainParams,
    ConvergenceError,
    DomainError,
    J_prime,
    SolveOptions,
    apply_F,
    compare_normalized,
    contraction_check,
    fixed_point_solve,
    jacobian_bands,
    maximize_J,
    newton_solve,
    residual,
)
import chainfair.fairness as fairness_module
import chainfair.solver as solver_module
from chainfair.model import ring_level
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

    # tol = inf made newton_solve return the ring start, residual 0.125 at
    # (50, 0.6); tol = "1e-3" raised an untyped TypeError
    @pytest.mark.parametrize(
        "kw",
        [{"tol": 0.0}, {"tol": -1e-9}, {"max_iter": 0}, {"max_iter": 2.5}]
        + [{"tol": t} for t in (float("inf"), float("nan"), "1e-3", None, True, np.array([1e-3]))],
    )
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            SolveOptions(**kw)

    def test_real_tol_of_numpy_type_accepted(self):
        assert SolveOptions(tol=np.float32(1e-6)).tol > 0.0


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


@pytest.mark.parametrize("f", [residual, contraction_check])
@pytest.mark.parametrize("x", [["a", "b"], [0.1, 0.2, 0.3]])
def test_bad_vector_refused(f, x):
    # numpy's ValueError leaked out of both for ["a", "b"]
    with pytest.raises(DomainError):
        f(ChainParams(2, 0.5), x)


P3, X3 = ChainParams(3, 0.5), [0.2, 0.3, 0.2]
CONFIG_TAKERS = {
    "newton_solve.params": lambda bad: newton_solve(bad),
    "newton_solve.opts": lambda bad: newton_solve(P3, bad),
    "fixed_point_solve.params": lambda bad: fixed_point_solve(bad),
    "fixed_point_solve.opts": lambda bad: fixed_point_solve(P3, bad),
    "apply_F": lambda bad: apply_F(bad, X3),
    "jacobian_bands": lambda bad: jacobian_bands(bad, X3),
    "residual": lambda bad: residual(bad, X3),
    "contraction_check": lambda bad: contraction_check(bad, X3),
    "compare_normalized": lambda bad: compare_normalized(bad, 0.5),
}


@pytest.mark.parametrize("call", CONFIG_TAKERS.values(), ids=CONFIG_TAKERS.keys())
@pytest.mark.parametrize("bad", [0.5, None, [1.0, 2.0]], ids=["float", "None", "list"])
def test_config_object_of_the_wrong_type_refused(call, bad):
    # each raised AttributeError on the missing field
    with pytest.raises(DomainError, match=" must be a "):
        call(bad)


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


def unfolded(n, parts):
    """The whole roots of parts of newton_rows, by row index."""
    return {i: x for rows, h, W in parts for i, x in zip(rows.tolist(), solver_module._unfold(h, W, n))}


def block_rows(parts):
    """The rows of a block's parts, sorted; the parts must hold disjoint rows."""
    rows = sorted(i for part_rows, _, _ in parts for i in part_rows.tolist())
    assert len(set(rows)) == len(rows)
    return rows


def all_rows(n, alphas, opts=SolveOptions()):
    """Flatten newton_rows into each alpha's root, or None where its solve failed.

    Each block's parts hold disjoint rows, and every row of a block comes
    after every row of the blocks before it: the blocks are runs of
    consecutive alphas, in input order.
    """
    out, last = [None] * len(alphas), -1
    for parts in newton_rows(n, alphas, opts):
        rows, roots = block_rows(parts), unfolded(n, parts)
        assert not rows or rows[0] > last
        for i in rows:
            out[i] = roots[i]
        last = max(rows, default=last)
    return out


class TestNewtonRows:
    @pytest.mark.parametrize("n", ROW_NS)
    def test_rows_bit_identical_to_newton_solve(self, n):
        for a, x in zip(ROW_ALPHAS, all_rows(n, ROW_ALPHAS)):
            assert x is not None
            assert np.array_equal(x, newton_solve(ChainParams(n, a)))

    @pytest.mark.parametrize("max_iter", range(1, 14))
    @pytest.mark.parametrize("n", [10, 1001])
    def test_failures_stay_in_their_rows(self, n, max_iter):
        # a row is missing exactly where newton_solve raises, and the error
        # carries that solve's last iterate, its residual and the reason
        opts = SolveOptions(max_iter=max_iter)
        for a, x in zip(MIXED_ALPHAS, all_rows(n, MIXED_ALPHAS, opts)):
            p = ChainParams(n, a)
            try:
                ref = newton_solve(p, opts)
            except ConvergenceError as err:
                assert x is None
                assert len(err.last) == n and err.residual == residual(p, err.last)
                reasons = (f"did not converge in {max_iter} steps", "hit a singular Jacobian", "line search failed")
                tail = f" (n={n}, alpha={a}, residual={err.residual:.3e})"
                assert str(err) in {f"newton_solve {why}{tail}" for why in reasons}
            else:
                assert np.array_equal(x, ref)

    def test_step_caps_mix_failures_and_roots(self):
        # the isolation test above is only telling if some stacks mix outcomes
        mixed = 0
        for max_iter in range(1, 14):
            rows = all_rows(1001, MIXED_ALPHAS, SolveOptions(max_iter=max_iter))
            mixed += 0 < sum(x is not None for x in rows) < len(rows)
        assert mixed >= 3

    @pytest.mark.parametrize(
        "how, reason",
        [("singular", "hit a singular Jacobian"), ("stalled", "line search failed")],
        ids=["singular", "stalled"],
    )
    def test_forced_exit_leaves_one_row(self, monkeypatch, how, reason):
        # neither exit of the loop is taken on the model's own rows, so one
        # is forced on the row of 0.5 through its Newton step: a nan step
        # flagged singular, as solve_tridiagonal_rows flags one, or the step
        # reversed, uphill, where no step length passes the Armijo test
        n, alphas, forced = 10, [0.3, 0.5, 0.7], 0.5
        ref = all_rows(n, alphas)
        real = solver_module._newton_step

        def step(alpha, z, g, k):
            delta, singular = real(alpha, z, g, k)
            hit = alpha[:, 0] == forced
            if how == "singular":
                delta[hit], singular = np.nan, singular | hit
            else:
                delta[hit] *= -1.0
            return delta, singular

        monkeypatch.setattr(solver_module, "_newton_step", step)
        rows = all_rows(n, alphas)
        assert rows[1] is None
        assert np.array_equal(rows[0], ref[0]) and np.array_equal(rows[2], ref[2])
        p = ChainParams(n, forced)
        with pytest.raises(ConvergenceError, match=f"^newton_solve {reason} ") as info:
            newton_solve(p)
        err = info.value
        assert len(err.last) == n and err.residual == residual(p, err.last)

    def test_blocks_respect_the_stack_cap(self):
        # a row counts its window chain's w unknowns where the chain
        # splices, its half's m elsewhere
        n, m = 5000, 2500
        alphas = np.linspace(0.01, 0.99, 99)
        blocks = list(newton_rows(n, alphas))
        assert [i for parts in blocks for i in block_rows(parts)] == list(range(99))
        unknowns = [sum(W.size for _, _, W in parts) for parts in blocks]
        assert max(unknowns) <= _STACK_UNKNOWNS
        assert {W.shape[1] for parts in blocks for _, _, W in parts} > {m}
        assert len(blocks) > 1
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

        # the reference block is a full one whose rows all step at full
        # length: alphas in the band about 3/4 where L(alpha) = 2^13 and a
        # chain of 5000 pairs is too short to splice
        m = (n + 1) // 2
        per_block = _STACK_UNKNOWNS // m
        clipped = np.linspace(0.7499, 0.7501, per_block)
        assert {solver_module._splice_len(a) for a in clipped} == {solver_module._SPLICE_LEN}
        assert solver_module._widths(n, clipped) == [m] * per_block
        one_block = peak(clipped)
        every_row = peak(alphas)
        # the peak is that of one block, not of all the rows at once
        assert every_row < 1.5 * one_block
        assert every_row < 20 * _STACK_UNKNOWNS * 8
        assert every_row < len(alphas) * n * 8

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
    m = (n + 1) // 2
    y, (why,) = solver_module._newton_block(n, [alpha], opts, solver_module._ring_rows([alpha], m))
    return solver_module._unfold(m, y, n)[0], why


def gtsv_sizes(monkeypatch):
    """Make solver._gtsv append the length of every system it solves to the returned list."""
    seen = []
    real = solver_module._gtsv

    def recording(dl, d, du, b, *args, **kwargs):
        seen.append(len(d))
        return real(dl, d, du, b, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_gtsv", recording)
    return seen


def newton_halves(monkeypatch):
    """Make solver._newton_block append the half length of every run to the returned list.

    A row counts whether it then steps or not; a row whose window check of
    _start_rows passes runs no full-length loop.
    """
    seen = []
    real = solver_module._newton_block

    def recording(n, alphas, opts, y):
        seen.append(y.shape[1])
        return real(n, alphas, opts, y)

    monkeypatch.setattr(solver_module, "_newton_block", recording)
    return seen


def window_merits(monkeypatch):
    """Make solver._merit append (half length, max |G| per row) of every call to the returned list."""
    seen = []
    real = solver_module._merit

    def recording(alpha, y, k):
        z, g, phi = real(alpha, y, k)
        seen.append((y.shape[1], np.abs(g).max(axis=1)))
        return z, g, phi

    monkeypatch.setattr(solver_module, "_merit", recording)
    return seen


def newton_steps(monkeypatch):
    """Make solver._newton_step append (half length, alphas) of every call to the returned list."""
    seen = []
    real = solver_module._newton_step

    def recording(alpha, z, g, k):
        seen.append((g.shape[1], alpha[:, 0].tolist()))
        return real(alpha, z, g, k)

    monkeypatch.setattr(solver_module, "_newton_step", recording)
    return seen


class TestSplicedLongChains:
    @pytest.mark.parametrize("alpha", [1e-12, 0.3, 0.6826, 0.74, 0.75, 0.7505, 0.8, 0.95])
    @pytest.mark.parametrize("n", [255, 256, 1024, 65_536, 65_537, 65_538, 65_539, 100_001])
    def test_window_check_is_the_full_length_check(self, monkeypatch, n, alpha):
        # the window chain's max |G| is that of the whole spliced half, bit
        # for bit, and marks the row solved exactly when it passes tol
        full_merit = solver_module._merit
        seen = window_merits(monkeypatch)
        widths = solver_module._widths(n, [alpha])
        parts, rest, y = solver_module._start_rows(n, [alpha], SolveOptions(), widths)
        length = solver_module._splice_len(alpha)
        m, window = (n + 1) // 2, (length + n % 4 + 1) // 2 + 4
        if n < 2 * length:
            assert seen == [] and not parts and widths == [m]
            return
        width, window_max = seen[-1]
        assert width == window == widths[0]
        # a row whose window passes comes back as its window, the others
        # as the window spread over the start half
        solved = np.array([bool(parts)])
        assert len(rest) == (not parts)
        if parts:
            ((_, h, W),) = parts
            assert W.shape == (1, window)
            y = solver_module._spread(np.empty((1, m)), h, W)
        _, g, _ = full_merit(np.array([[alpha]]), y, m - 1 - n % 2)
        full_max = np.abs(g).max(axis=1)
        assert window_max.tobytes() == full_max.tobytes()
        assert solved.tolist() == (full_max <= 1e-12).tolist()

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

    @pytest.mark.parametrize("n", [255, 5000, 2 * solver_module._SPLICE_LEN - 1, 8 * solver_module._SPLICE_LEN - 1])
    @pytest.mark.parametrize("alpha", [1e-3, 0.6826, 0.75, 0.8, 0.95])
    def test_shorter_chains_are_solved_whole(self, monkeypatch, n, alpha):
        # a chain below 2 L(alpha) runs the full-length loop from the ring
        # start; from 2 L(alpha) up a chain of L(alpha) + n % 4 pairs runs
        # first, and the full-length loop only where its spliced start
        # fails the window check
        length = solver_module._splice_len(alpha)
        halves = newton_halves(monkeypatch)
        x = newton_solve(ChainParams(n, alpha))
        if n < 2 * length:
            assert halves == [(n + 1) // 2]
            assert np.array_equal(x, full_solve(n, alpha)[0])
        else:
            # the spliced start passes the window check at every spliced
            # cell here but 3/4, where the deviation from the ring pattern
            # decays like 1/i and no window of 2^13 pairs passes tol
            assert halves == [(length + n % 4 + 1) // 2] + ([(n + 1) // 2] if alpha == 0.75 else [])

    @pytest.mark.parametrize("alpha", [1e-12, 1e-3, 0.5, 0.6826, 0.74, 0.7505, 0.8, 0.95])
    def test_splice_threshold_is_two_short_lengths(self, monkeypatch, alpha):
        # at 2 L(alpha) the short chain holds half the pairs, and the
        # window is still shorter than the half
        halves = newton_halves(monkeypatch)
        length = solver_module._splice_len(alpha)
        for n in (2 * length - 1, 2 * length):
            halves.clear()
            p = ChainParams(n, alpha)
            assert residual(p, newton_solve(p)) <= 1e-12
            # at 2 L(alpha) the spliced start passes the window check
            assert halves == ([(length + n % 4 + 1) // 2] if n == 2 * length else [(n + 1) // 2])

    def test_spliced_rows_take_no_full_length_step(self, monkeypatch):
        # a chain of 30000 pairs at 0.7501 (L = 2^13) splices at 2 L and
        # its window passes; at 8 L it ran 6 full-length steps
        n = 30_000
        seen = newton_steps(monkeypatch)
        newton_solve(ChainParams(n, 0.7501))
        assert seen and {width for width, _ in seen} == {window_half(n, 0.7501) - 4}
        # a scan of 2000 pairs: its 23 rows with L(alpha) <= 1000 splice,
        # and every full-length step is on a row with a longer L(alpha)
        seen.clear()
        maximize_J(2000)
        grid = fairness_module._GRID
        assert sum(solver_module._splice_len(a) <= 1000 for a in grid) == 23
        full = [a for width, alphas in seen if width == 1000 for a in alphas]
        assert full and min(solver_module._splice_len(a) for a in full) > 1000

    def test_chains_below_two_short_lengths_step_from_the_ring(self, monkeypatch):
        # 9000 pairs at 3/4 lie below 2 L(3/4) = 16384: the full-length loop
        # runs from the ring start alone, 9 steps, as it did at 8 L
        n, alpha = 9000, 0.75
        seen = newton_steps(monkeypatch)
        x = newton_solve(ChainParams(n, alpha))
        steps = [width for width, _ in seen]
        assert steps == [(n + 1) // 2] * 9
        seen.clear()
        ref, _ = full_solve(n, alpha)
        assert [width for width, _ in seen] == steps
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize(
        ("alpha", "length"),
        [(1e-300, 128), (1e-12, 128), (0.3, 128), (0.5, 256), (0.6826, 512), (0.74, 2048), (0.7499, 8192),
         (0.75, 8192), (0.7505, 4096), (0.8, 512), (0.95, 128), (1.0 - 1e-12, 128)],
    )
    def test_short_length_follows_the_border_rate(self, alpha, length):
        # the power of two at or above 160/kappa, within [2^7, 2^13]
        assert solver_module._splice_len(alpha) == length

    @pytest.mark.parametrize("alpha", [1e-6, 0.3, 0.6826, 0.7499, 0.75, 0.7501, 0.8, 0.95, 1.0 - 1e-9])
    def test_border_rate_closed_forms(self, alpha):
        kappa = solver_module._border_rate(alpha)
        if alpha < 0.75:
            c = ring_level(alpha)
            assert kappa == pytest.approx(np.arccosh(1.0 / (2.0 * alpha * (1.0 - c))), rel=1e-9)
        elif alpha == 0.75:
            assert kappa == 0.0
        else:
            # 1 - hi cancels as alpha -> 1: 5e-9 relative at 1 - 1e-9
            assert kappa == pytest.approx(np.arccosh(1.0 / (2.0 * (1.0 - alpha)) - 1.0) / 2.0, rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.5, 0.6826, 0.8, 0.95])
    def test_border_rate_matches_the_measured_decay(self, alpha):
        # the deviation from the ring pattern on one parity of sites of the
        # first quarter, clear of the centre, fitted where it is linear
        # and above rounding
        n = 4000
        dev = np.abs(newton_solve(ChainParams(n, alpha)) - solver_module._ring_rows([alpha], n)[0])[: n // 4]
        i = np.arange(n // 4)
        keep = (i % 2 == 0) & (dev > 1e-13) & (dev < 1e-5)
        assert keep.sum() >= 5
        slope = np.polyfit(i[keep], np.log(dev[keep]), 1)[0]
        assert -slope == pytest.approx(solver_module._border_rate(alpha), rel=0.05)

    def test_converges_near_three_quarters_at_every_length(self):
        # a short chain of 2^8 or 2^9 pairs left 3 to 10 of these cells
        # unsolved at alpha = 0.75; every row is also bit-identical to its
        # one-alpha solve, so newton_rows stands for newton_solve here
        rng = np.random.default_rng(11)
        ns = set(np.exp(rng.uniform(np.log(1024), np.log(250_000), 86)).astype(int).tolist())
        ns = sorted(ns | set(range(4096, 4161)))
        assert 140 <= len(ns) <= 160
        alphas = [0.7499, 0.74995, 0.75, np.linspace(0.01, 0.99, 99)[74], 0.7500001, 0.75005, 0.7502]
        for n in ns:
            rows = all_rows(n, alphas)
            assert all(x is not None for x in rows), (n, [a for a, x in zip(alphas, rows) if x is None])
            for a, x in zip(alphas, rows):
                assert residual(ChainParams(n, a), x) <= 1e-12

    @pytest.mark.parametrize("n", [5000, 100_001])
    def test_short_lengths_mix_in_one_block(self, monkeypatch, n):
        # rows of L = 128, 256, 512, 2048 and unspliced ones in one block
        alphas = [0.95, 0.5, 0.74, 0.75, 0.6826, 0.3]
        refs = [newton_solve(ChainParams(n, a)) for a in alphas]
        monkeypatch.setattr(solver_module, "_STACK_UNKNOWNS", len(alphas) * ((n + 1) // 2))
        lengths = {solver_module._splice_len(a) for a in alphas if n >= 2 * solver_module._splice_len(a)}
        assert len(lengths) >= 3
        (parts,) = newton_rows(n, alphas)
        assert block_rows(parts) == list(range(len(alphas)))
        roots = unfolded(n, parts)
        for i, ref in enumerate(refs):
            assert np.array_equal(roots[i], ref)

    @pytest.mark.parametrize("n", [1024, 100_000])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-12, 1.0 - 1e-12])
    def test_no_warning_at_extreme_alpha(self, n, alpha):
        p = ChainParams(n, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = newton_solve(p)
        assert residual(p, x) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.6826, 0.8, 0.95])
    def test_big_solve_runs_newton_on_the_short_chain_only(self, monkeypatch, alpha):
        # the full-length solve passes about 2.5e6 unknowns to gtsv at n = 1e6;
        # the short chains of 512 or 128 pairs pass 320 to 1280
        seen = gtsv_sizes(monkeypatch)
        newton_solve(ChainParams(10**6, alpha))
        assert 0 < sum(seen) < 2000

    @pytest.mark.parametrize("n", [65_536, 65_537, 65_538, 65_539])
    def test_splice_is_taken_for_every_residue_mod_4(self, monkeypatch, n):
        # a short chain of the wrong residue meets the bulk pattern out of
        # phase past alpha = 3/4, and the full-length loop would step; here
        # the rows share a block, so no gtsv call may exceed their short
        # halves stacked
        alphas = [0.3, 0.6826, 0.8, 0.95]
        seen = gtsv_sizes(monkeypatch)
        assert all(x is not None for x in all_rows(n, alphas))
        assert 0 < max(seen) <= sum((solver_module._splice_len(a) + n % 4 + 1) // 2 for a in alphas)

    @pytest.mark.parametrize("alpha", [0.6826, 0.8, 0.95])
    def test_big_solve_memory(self, alpha):
        n = 10**6
        tracemalloc.start()
        try:
            newton_solve(ChainParams(n, alpha))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a spliced start that passes the window check is written straight
        # into the root, 1.0 x 8n bytes; with its start half and the
        # unfolded root it peaked at 1.5 x 8n, and a full-length step
        # peaks at 6 x 8n
        assert peak < 1.25 * 8 * n

    def test_rejected_splice_falls_through(self, monkeypatch):
        # a short root off by 1e-9 at the site next to the junction fails
        # the window check; the full-length loop must step from the splice
        n, alpha = 10**6, 0.8
        real = solver_module._newton_block

        def newton_block(n_block, alphas, opts, y):
            out, why = real(n_block, alphas, opts, y)
            if n_block < n:
                out[:, out.shape[1] // 2 - 1] += 1e-9
            return out, why

        monkeypatch.setattr(solver_module, "_newton_block", newton_block)
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
        (parts,) = newton_rows(n, alphas, opts)
        solved = [i for i, ref in enumerate(refs) if not isinstance(ref, ConvergenceError)]
        assert block_rows(parts) == solved
        roots = unfolded(n, parts)
        for i in solved:
            assert np.array_equal(roots[i], refs[i])
        assert len(solved) == (2 if max_iter else 4)


# 1e-12 to 1 - 1e-9, with the first alpha past each change of L(alpha)
# (0.335, 0.589, 0.704, 0.773, 0.827, 0.93) and the alphas nearest 3/4 on
# either side with L(alpha) = 2^11 (0.7469, 0.7516)
WINDOW_ALPHAS = [1e-12, 1e-3, 0.3, 0.335, 0.5, 0.589, 0.6826, 0.704, 0.74, 0.7469, 0.7516, 0.76, 0.773, 0.8,
                 0.827, 0.93, 0.95, 1.0 - 1e-9]
# L(alpha) = 2^12 (0.7475, 0.7505) and 2^13, where the 2^13 clip holds
# within about 1e-4 of 3/4
NEAR_ALPHAS = [0.7475, 0.749, 0.7495, 0.74995, 0.74998, 0.75002, 0.75005, 0.7501, 0.7505, 0.751]


def window_half(n, alpha):
    """The window chain's half length w for a chain of n pairs spliced at alpha."""
    return (solver_module._splice_len(alpha) + n % 4 + 1) // 2 + 4


def parts_of(n, alphas, X):
    """The roots X[i] for alphas[i] as parts of one row each, read back from the left half as J_prime reads a supplied x."""
    m = (n + 1) // 2
    return [(np.array([i]), *solver_module._spliced_windows(n, a, x[:m])[0]) for i, (a, x) in enumerate(zip(alphas, X))]


def tangent_halves(n, alphas, X):
    """The (R, m) tangent halves of tangent_rows at the roots X, its parts spread over the half."""
    m = (n + 1) // 2
    t = np.empty((len(X), m))
    for rows, h, _, T in solver_module.tangent_rows(n, alphas, parts_of(n, alphas, X)):
        t[rows] = solver_module._spread(np.empty((len(rows), m)), h, T)
    return t


def full_half_tangent(n, alphas, X):
    """tangent_rows with every row solved on the full half, and the J' slopes from it."""
    m = (n + 1) // 2
    whole = [(np.arange(len(X)), m, X[:, :m])]
    ((_, _, _, t),) = solver_module.tangent_rows(n, alphas, whole)
    return t, fairness_module._J_slopes(n, alphas, whole)


def walled_root(n, alpha):
    """A spliced root of n pairs, alpha > 3/4, whose bulk holds the ring levels phase-swapped: lo at even sites.

    Both ends of a chain sit high, so the phase swaps only across a wall.
    The wall is the central defect of an even chain of 2d pairs, d half
    the window's head length h, put into the short chain's start. The
    short chain is solved from there, and its window, with 4 swapped ring
    sites at its junction, is spread over the long half as _start_rows
    spreads a window. Returns the (1, n) root and h.
    """
    length = solver_module._splice_len(alpha)
    m, ns = (n + 1) // 2, length + n % 4
    w = window_half(n, alpha)
    h, d = w // 2, w // 4
    wall = newton_solve(ChainParams(2 * d, alpha))
    start = solver_module._ring_rows([alpha], (ns + 1) // 2 + 1)[:, 1:]
    start[0, : 3 * d // 2] = wall[: 3 * d // 2]
    short, (why,) = solver_module._newton_block(ns, [alpha], SolveOptions(), start)
    assert why is None
    y = solver_module._ring_rows([alpha], m + 1)[:, 1:]
    y[:, : h - 2] = short[:, : h - 2]
    y[:, m - w + h + 2 :] = short[:, h - 2 :]
    return solver_module._unfold(m, y, n), h


class TestWindowTangent:
    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_window_rows_are_the_rows_start_rows_solved(self, monkeypatch, alpha):
        # tangent_rows reads the window back from the root by its own
        # condition, and takes it exactly where the window check passed
        length = solver_module._splice_len(alpha)
        for n in [k * length + r for k in (2, 8) for r in range(4)] + [65_537, 10**6]:
            parts, _, _ = solver_module._start_rows(n, [alpha], SolveOptions(), solver_module._widths(n, [alpha]))
            X = newton_solve(ChainParams(n, alpha))[None]
            seen = gtsv_sizes(monkeypatch)
            solver_module.tangent_rows(n, [alpha], parts_of(n, [alpha], X))
            monkeypatch.undo()
            assert (max(seen) <= window_half(n, alpha)) == bool(parts), n

    @pytest.mark.parametrize("n", [2049, 2051, 65_537])
    def test_phase_swapped_bulk_takes_the_window(self, monkeypatch, n):
        # the bulk repeats with period 2 and the window passes tol, so the
        # window is taken although the bulk is not _ring_rows' pattern. At
        # the wall I - F' is numerically singular (sigma_min about 6e-17,
        # the wall's translation mode), so the two paths' tangents differ
        # there by 2% of max |t|; J' hardly moves along that mode and
        # differs by 1.5e-11 relative at n = 2049 and 2051, 4.6e-13 at 65537
        alpha = 0.929
        X, h = walled_root(n, alpha)
        m = (n + 1) // 2
        tail = m - window_half(n, alpha) + h
        assert residual(ChainParams(n, alpha), X[0]) <= 1e-12
        assert np.array_equal(X[0, h - 2 : tail], X[0, h : tail + 2])
        hi, lo = solver_module._ring_start(alpha)
        assert X[0, h - 2 + h % 2] == lo and X[0, h - 1 - h % 2] == hi
        seen = gtsv_sizes(monkeypatch)
        (jp,) = fairness_module._J_slopes(n, [alpha], parts_of(n, [alpha], X))
        monkeypatch.undo()
        assert 0 < max(seen) <= window_half(n, alpha)
        _, (jp_ref,) = full_half_tangent(n, [alpha], X)
        assert jp == pytest.approx(jp_ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS + NEAR_ALPHAS)
    def test_window_matches_the_full_half(self, monkeypatch, alpha):
        # a spliced root's tangent solved on its window chain, against the
        # same system on the full half; the worst cells sit at 0.7469. The
        # rows of NEAR_ALPHAS take the full half: there the window tangent
        # would stray by up to 3.4e-12 x max |t|, and by 3.8e-8 under the
        # 2^13 clip
        length = solver_module._splice_len(alpha)
        for n in [k * length + r for k in (2, 8) for r in range(4)] + [65_536, 65_537, 100_000, 100_001, 10**6 - 1, 10**6]:
            X = newton_solve(ChainParams(n, alpha))[None]
            seen = gtsv_sizes(monkeypatch)
            t = tangent_halves(n, [alpha], X)
            (jp,) = fairness_module._J_slopes(n, [alpha], parts_of(n, [alpha], X))
            monkeypatch.undo()
            assert t.shape == (1, (n + 1) // 2)
            if alpha in NEAR_ALPHAS:
                assert max(seen) == (n + 1) // 2, n
            else:
                assert 0 < max(seen) <= window_half(n, alpha), n
            ref, (jp_ref,) = full_half_tangent(n, [alpha], X)
            assert np.max(np.abs(t - ref)) <= 1e-12 * np.max(np.abs(ref)), n
            assert jp == pytest.approx(jp_ref, rel=1e-12, abs=0.0), n

    @pytest.mark.parametrize("alpha", [0.8, 0.9])
    def test_window_tangent_on_even_chains_past_three_quarters(self, monkeypatch, alpha):
        # as test_tangent_on_even_chains_past_three_quarters, on chains
        # long enough to take the window
        length = solver_module._splice_len(alpha)
        h = 1e-6
        for n in (2 * length, 2 * length + 2, 8 * length, 8 * length + 2, 20_000):
            x = newton_solve(ChainParams(n, alpha))
            seen = gtsv_sizes(monkeypatch)
            (t,) = solver_module._unfold((n + 1) // 2, tangent_halves(n, [alpha], x[None]), n)
            monkeypatch.undo()
            assert 0 < max(seen) <= window_half(n, alpha)
            fd = (newton_solve(ChainParams(n, alpha + h)) - newton_solve(ChainParams(n, alpha - h))) / (2 * h)
            np.testing.assert_allclose(t, fd, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("site", ["junction", "bulk"])
    def test_perturbed_root_takes_the_full_half(self, monkeypatch, site):
        # a head site next to the junction moved by 1e-3 fails the window's
        # tol; a bulk site moved by one ulp fails the ring pattern
        n, alpha = 100_001, 0.8
        x = newton_solve(ChainParams(n, alpha))
        h = window_half(n, alpha) // 2
        i = h - 3 if site == "junction" else (n + 1) // 4
        x[i] = x[n - 1 - i] = x[i] + 1e-3 if site == "junction" else np.nextafter(x[i], 1.0)
        seen = gtsv_sizes(monkeypatch)
        t = tangent_halves(n, [alpha], x[None])
        monkeypatch.undo()
        assert max(seen) == (n + 1) // 2
        ref, _ = full_half_tangent(n, [alpha], x[None])
        assert np.array_equal(t, ref)

    def test_window_and_full_rows_share_a_call(self, monkeypatch):
        # rows of two short lengths take the window, the row at 3/4 and a
        # perturbed root the full half; each row is its own solve
        n = 20_000
        alphas = [0.74, 0.75, 0.76, 0.74]
        X = np.array([newton_solve(ChainParams(n, a)) for a in alphas])
        X[3, 100] = X[3, n - 101] = X[3, 100] + 1e-3
        t = tangent_halves(n, alphas, X)
        for i, a in enumerate(alphas):
            (row,) = tangent_halves(n, [a], X[i : i + 1])
            assert np.array_equal(t[i], row)
        ref, _ = full_half_tangent(n, alphas, X)
        assert np.array_equal(t[[1, 3]], ref[[1, 3]])

    @pytest.mark.parametrize("alpha", [0.6826, 0.8, 0.95])
    def test_big_J_prime_solves_on_the_window_only(self, monkeypatch, alpha):
        # the full half passes 5e5 unknowns to gtsv at n = 1e6; the window
        # of a 512- or 128-pair short chain passes 68 to 260
        n = 10**6
        x = newton_solve(ChainParams(n, alpha))
        seen = gtsv_sizes(monkeypatch)
        J_prime(alpha, n, x=x)
        assert 0 < max(seen) <= window_half(n, alpha)
