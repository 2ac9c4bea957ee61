"""Entropy fairness objective J(alpha) and its maximization over alpha.

J(alpha) = E(x(alpha))/n rates how evenly the channel is shared: it is
maximal when every pair emits equally often. Its derivative is grad J
dotted with the tangent dx/dalpha of solver.tangent_rows: one tridiagonal
solve on the Newton step's own I - F', stacked over the roots where the
slope is needed, replaces finite differencing of the whole chain solve.
maximize_J here and fit_alpha share one search, _search: a batched scan
of the objective's values, its slope at the best grid point and at that
point's neighbours, and one bracketed secant on the slope, _refine.
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
    unimodal says that the solved grid values of J rise and then fall once.
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


def _search(n, grid, value, slope, width):
    """Maximize value(root) over alpha: a scan of grid closed by _refine.

    value(X) and slope(alphas, X) map a stack of roots (X[i] for alphas[i])
    to the objective and to its derivative in alpha. The scan keeps each
    solved grid value (a value that is not finite counts as failed) but
    only the roots of the best point so far, its solved neighbours and the
    last solved point. slope runs once, on the best point and neighbours;
    if the neighbour that the best point's slope points to has a slope of
    the other sign, _refine closes that step to width, each point solved
    by newton_rows(n, [a]) (a failed solve gives nan, which stops it).

    Returns None if no grid point solves, else (alpha, value, root,
    evaluations, bracket, unimodal): bracket is the grid step when no
    bracket forms, and unimodal says the solved values rise, then fall once.
    """
    vals = np.full(len(grid), np.nan)
    left = best = right = last = None  # (grid index, root)
    for rows, X in newton_rows(n, grid):
        vals[rows] = value(X)
        for k, x in zip(rows.tolist(), X):
            if -math.inf < vals[k] < math.inf:
                if best is None or vals[k] > vals[best[0]]:
                    left, best, right = last, (k, x), None
                elif right is None:
                    right = (k, x)
                last = (k, x)
    if best is None:
        return None
    near = dict(row for row in (left, best, right) if row)
    s = dict(zip(near, slope(grid[list(near)], np.array(list(near.values())))))
    roots = {float(grid[k]): x for k, x in near.items()}

    def at(a):
        ((rows, X),) = newton_rows(n, [a])
        if not len(rows):
            return math.nan
        roots[a] = X[0]
        return slope([a], X)[0]

    i = best[0]
    j = right if s[i] > 0.0 else left
    alpha, bracket, evals = float(grid[i]), float(grid[1] - grid[0]), 0
    if j and s[i] * s[j[0]] < 0.0:
        a, b = sorted((i, j[0]))
        alpha, bracket, evals = _refine(at, float(grid[a]), s[a], float(grid[b]), s[b], width)
    x = roots[alpha]
    ok = np.isfinite(vals)
    steps, p = np.diff(vals[ok]), np.count_nonzero(ok[:i])
    unimodal = 0 < p < len(steps) and bool(np.all(steps[:p] > 0.0) and np.all(steps[p:] < 0.0))
    return alpha, float(value(x[None])[0]), x, len(grid) + evals, bracket, unimodal


_GRID_LO = 0.01
_GRID_HI = 0.99
_GRID_POINTS = 99


def maximize_J(n: int, tol_alpha: float = 1e-4) -> OptResult:
    """Maximize J over alpha in [0.01, 0.99] for a fixed chain length.

    _search scans J at 99 alphas as one batch and takes J' at the best of
    them and its solved neighbours; where J' changes sign next to the best
    point, _refine closes that step to tol_alpha. alpha_hat is the final
    end with the smaller |J'|, and J_value is J there, so no solve follows.
    Failed grid solves are left out, and a failed refinement solve stops
    the search with the bracket reached; with no bracket the best grid
    point is returned. If no grid point solves, ConvergenceError.
    """
    check_count("n", n)
    check_real("tol_alpha", tol_alpha)
    if not tol_alpha > 0.0:
        raise DomainError(f"tol_alpha must be positive, got {tol_alpha!r}")
    grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    found = _search(
        n, grid, lambda X: [entropy(x) / n for x in X], lambda alphas, X: _J_slopes(n, alphas, X), tol_alpha
    )
    if found is None:
        raise ConvergenceError(f"maximize_J: no grid point solved (n={n})")
    alpha_hat, J_value, _, evaluations, bracket, unimodal = found
    return OptResult(alpha_hat, J_value, evaluations, bracket, unimodal)


def sweep_J(n: int, alphas) -> list[tuple[float, float]]:
    """Evaluate J along a grid of alphas, in input order, solved as one batch.

    A row whose alpha is a real number outside (0, 1) (nan and inf too) or
    whose solve fails is marked with J = nan instead of aborting the sweep;
    an invalid n or an alpha that is not a real number raises DomainError.
    """
    check_count("n", n)
    alphas = list(alphas)
    for a in alphas:
        if not (isinstance(a, (float, np.floating)) and not math.isfinite(a)):
            check_real("alpha", a)
    alphas = [float(a) for a in alphas]
    valid = [i for i, a in enumerate(alphas) if 0.0 < a < 1.0]
    Js = np.full(len(alphas), np.nan)
    for rows, X in newton_rows(n, [alphas[i] for i in valid]):
        Js[[valid[k] for k in rows]] = [entropy(x) / n for x in X]
    return [(a, float(j)) for a, j in zip(alphas, Js)]
