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

from .errors import ChainFairError, DomainError
from .model import ChainParams, apply_F, entropy, grad_entropy, jacobian_bands
from .solver import newton_solve

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


_GRID_LO = 0.01
_GRID_HI = 0.99
_GRID_POINTS = 99


def maximize_J(n: int, tol_alpha: float = 1e-4) -> OptResult:
    """Maximize J over alpha in [0.01, 0.99] for a fixed chain length.

    A 99-point scan of the sign of J' checks unimodality; a single + to -
    change brackets the maximum, golden section narrows it, and bisection on
    the sign of J' polishes to tol_alpha. If the scan sees more than one
    sign change the best grid point is returned with unimodal=False.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if not tol_alpha > 0.0:
        raise DomainError(f"tol_alpha must be positive, got {tol_alpha!r}")
    grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    evals = 0
    signs = np.empty(len(grid))
    best_i, best_J = 0, -np.inf
    for i, a in enumerate(grid):
        a = float(a)
        x = _solve_x(n, a)
        signs[i] = np.sign(J_prime(a, n, x=x))
        Ji = J(a, n, x=x)
        evals += 1
        if Ji > best_J:
            best_i, best_J = i, Ji
    flips = np.nonzero(np.diff(signs))[0]
    if len(flips) != 1 or signs[0] < 0 or signs[-1] > 0:
        return OptResult(
            alpha_hat=float(grid[best_i]),
            J_value=best_J,
            evaluations=evals,
            bracket=float(grid[1] - grid[0]),
            unimodal=False,
        )
    lo, hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    # golden section until bisection can take over
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = J(c, n), J(d, n)
    evals += 2
    while hi - lo > 16.0 * tol_alpha:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = J(c, n)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = J(d, n)
        evals += 1
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
    """Evaluate J along a grid of alphas, in input order.

    A row whose solve fails is marked with J = nan instead of aborting the
    sweep.
    """
    rows = []
    for a in alphas:
        a = float(a)
        try:
            x = _solve_x(n, a)
            rows.append((a, J(a, n, x=x)))
        except ChainFairError:
            rows.append((a, float("nan")))
    return rows
