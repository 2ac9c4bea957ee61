"""Entropy fairness objective J(alpha) and its maximization over alpha.

J(alpha) = E(x(alpha))/n rates how evenly the channel is shared: it is
maximal when every pair emits equally often. The derivative comes from the
adjoint-state method, so one extra tridiagonal solve per evaluation replaces
finite differencing of the whole chain solve.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConvergenceError, DomainError
from .model import ChainParams, apply_F, check_count, entropy, grad_entropy, jacobian_bands, padded_bands, padded_F
from .solver import newton_rows, newton_solve, solve_tridiagonal_rows

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptResult:
    """Outcome of the one-dimensional maximization of J."""

    alpha_hat: float
    J_value: float
    evaluations: int
    bracket: float
    unimodal: bool = True


@dataclass(frozen=True)
class AdjointState:
    """Multiplier vector of the Lagrangian stationarity condition."""

    lam: np.ndarray


def _solve_x(n, alpha):
    return newton_solve(ChainParams(n, alpha))


def J(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Normalized entropy E(x(alpha))/n of the solved chain.

    The 1/n factor makes values comparable across chain lengths. Pass x to
    reuse an already-solved emission vector.
    """
    if x is None:
        x = _solve_x(n, alpha)
    return entropy(x) / n


def adjoint_state(alpha: float, n: int, x: np.ndarray | None = None) -> AdjointState:
    """Solve the adjoint system (F'_alpha(x)^T - I) lam = grad E(x) / n."""
    if x is None:
        x = _solve_x(n, alpha)
    params = ChainParams(n, alpha)
    g = grad_entropy(x) / n
    if n == 1:
        return AdjointState(lam=-g)
    sub, sup = jacobian_bands(params, x)
    # transposing swaps the bands; the system matrix is F'^T - I
    ab = np.zeros((3, n))
    ab[0, 1:] = sub
    ab[1, :] = -1.0
    ab[2, :-1] = sup
    lam = solve_banded((1, 1), ab, g)
    return AdjointState(lam=lam)


def J_prime(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Derivative dJ/dalpha by the adjoint-state method.

    With lam from adjoint_state, dJ/dalpha = -(1/alpha) lam . F_alpha(x),
    using that F_alpha is linear in alpha so dF/dalpha = F_alpha(x)/alpha.
    """
    if x is None:
        x = _solve_x(n, alpha)
    lam = adjoint_state(alpha, n, x=x).lam
    Fx = apply_F(ChainParams(n, alpha), x)
    return float(-(lam @ Fx) / alpha)


def _golden_min(f, lo, hi, width):
    """Golden-section search for a minimum of f on [lo, hi].

    Narrows the bracket until it is at most width wide; returns the final
    (lo, hi) and the number of calls of f.
    """
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    calls = 2
    while hi - lo > width:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
        calls += 1
    return lo, hi, calls


def _J_prime_rows(n, alphas, X):
    """J_prime for each row of X (the root for alphas[i]), nan where the adjoint is singular.

    The adjoint systems of all rows are stacked into one tridiagonal solve;
    each row gets the arithmetic of its own J_prime.
    """
    a = np.asarray(alphas, dtype=float)[:, None]
    xp = np.zeros((len(X), n + 2))
    xp[:, 1:-1] = X
    sub, sup = padded_bands(a, xp)
    dl = np.zeros_like(X)
    du = np.zeros_like(X)
    dl[:, :-1] = sup
    du[:, :-1] = sub
    lam, _ = solve_tridiagonal_rows(dl, np.full_like(X, -1.0), du, grad_entropy(X) / n)
    Fx = padded_F(a, xp)
    return -np.matmul(lam[:, None, :], Fx[:, :, None])[:, 0, 0] / a[:, 0]


def _scan(n, alphas, slopes=False):
    """J at each alpha, and with slopes=True the sign of J' there.

    The alphas are solved together by newton_rows; an alpha whose solve
    fails is left nan.
    """
    alphas = np.asarray(alphas, dtype=float)
    Js = np.full(len(alphas), np.nan)
    signs = np.full(len(alphas), np.nan)
    start = 0
    for X, errors in newton_rows(n, alphas):
        solved = np.array([i not in errors for i in range(len(X))])
        rows = start + np.flatnonzero(solved)
        Js[rows] = [entropy(x) / n for x in X[solved]]
        if slopes:
            signs[rows] = np.sign(_J_prime_rows(n, alphas[rows], X[solved]))
        start += len(X)
    return Js, signs


_GRID_LO = 0.01
_GRID_HI = 0.99
_GRID_POINTS = 99


def maximize_J(n: int, tol_alpha: float = 1e-4) -> OptResult:
    """Maximize J over alpha in [0.01, 0.99] for a fixed chain length.

    A 99-point scan of the sign of J', solved as one batch, checks
    unimodality; a single + to - change brackets the maximum, golden
    section narrows it, and bisection on the sign of J' polishes to
    tol_alpha. Grid points whose solve fails are left out of the sign test.
    If the solved points show other than one change, the best of them is
    returned with unimodal=False; if none solves, ConvergenceError.
    evaluations counts the alpha points evaluated.
    """
    check_count("n", n)
    if not tol_alpha > 0.0:
        raise DomainError(f"tol_alpha must be positive, got {tol_alpha!r}")
    grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    Js, signs = _scan(n, grid, slopes=True)
    solved = np.isfinite(Js) & np.isfinite(signs)
    if not solved.any():
        raise ConvergenceError(f"maximize_J: no grid point solved (n={n})")
    evals = len(grid)
    signs, points = signs[solved], grid[solved]
    flips = np.nonzero(np.diff(signs))[0]
    if len(flips) != 1 or signs[0] < 0 or signs[-1] > 0:
        best = int(np.argmax(np.where(solved, Js, -np.inf)))
        return OptResult(
            alpha_hat=float(grid[best]),
            J_value=float(Js[best]),
            evaluations=evals,
            bracket=float(grid[1] - grid[0]),
            unimodal=False,
        )
    lo, hi = float(points[flips[0]]), float(points[flips[0] + 1])
    # golden section until bisection can take over
    lo, hi, calls = _golden_min(lambda a: -J(a, n), lo, hi, 16.0 * tol_alpha)
    evals += calls
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        if J_prime(mid, n) > 0.0:
            lo = mid
        else:
            hi = mid
        evals += 1
    alpha_hat = 0.5 * (lo + hi)
    return OptResult(
        alpha_hat=alpha_hat,
        J_value=J(alpha_hat, n),
        evaluations=evals + 1,
        bracket=hi - lo,
    )


def sweep_J(n: int, alphas) -> list[tuple[float, float]]:
    """Evaluate J along a grid of alphas, in input order, solved as one batch.

    A row whose alpha is invalid or whose solve fails is marked with
    J = nan instead of aborting the sweep; an invalid n raises DomainError.
    """
    check_count("n", n)
    alphas = [float(a) for a in alphas]
    valid = []
    for i, a in enumerate(alphas):
        try:
            ChainParams(n, a)
            valid.append(i)
        except DomainError:
            pass
    Js = np.full(len(alphas), np.nan)
    if valid:
        Js[valid] = _scan(n, [alphas[i] for i in valid])[0]
    return [(a, float(j)) for a, j in zip(alphas, Js)]
