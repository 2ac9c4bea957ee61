"""Entropy fairness objective J(alpha) and its maximization over alpha.

J(alpha) = E(x(alpha))/n rates how evenly the channel is shared: it is
maximal when every pair emits equally often. Its derivative is grad J
dotted with the tangent dx/dalpha of solver.tangent_rows: one tridiagonal
solve on the Newton step's own I - F', stacked over the roots where the
slope is needed, replaces finite differencing of the whole chain solve.
maximize_J here and fit_alpha share one search, _search: a batched scan
of the objective's values, its slope at the best grid point and at that
point's neighbours, and one bracketed secant on the slope, _refine.

A spliced root's half is its window, the short root's head and tail,
with a bulk that repeats the window's sites h-2 and h-1 by parity
(solver._spliced_windows). So J, J' and the range check of a supplied x
read each such half on its window only: a sum over the half is the
window's, with weight 1 + (m - w)/2 at those two sites. At 10^6 pairs
no pass takes a log over the chain, and the chain-length work left is
the test of the period itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ChainParams, check_count, check_real, check_vector, entropy, entropy_rows, grad_entropy_rows
# apply_F and jacobian_bands are not called here; the benchmark's tracer wraps these bindings
from .solver import apply_F, jacobian_bands  # noqa: F401
from .solver import _spliced_windows, newton_rows, newton_solve, tangent_rows


def __getattr__(name):
    # solve_banded is not called here either; the tracer's binding resolves
    # on first access so that import loads no scipy
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    return check_vector("x", x, n)


def _halves(n, alphas, X):
    """The spliced halves of the rows of X, as their windows (solver._spliced_windows).

    Half 0 of a row x is its left half x[:m], half 1 its right half
    reversed, x[::-1][:m], m = ceil(n/2); each is tested on its own, so no
    mirror is assumed. Returns the (2, R) mask of the spliced halves and
    their (rows, h, windows) parts.
    """
    spliced = np.zeros((2, len(X)), dtype=bool)
    parts = []
    for side, _, h, rows, W in _spliced_windows(n, alphas, X, X[:, ::-1]):
        spliced[side, rows] = True
        parts.append((rows, h, W))
    return spliced, parts


def _pieces(n, x, spliced, parts):
    """Arrays that between them hold every entry of the one row x, for its range check.

    A spliced half holds only its window's values, so it gives its window;
    any other half is given whole, and x itself when neither is spliced.
    """
    m = (n + 1) // 2
    if not parts:
        return [x]
    return [W[0] for _, _, W in parts] + [y[:m] for side, y in enumerate((x, x[::-1])) if not spliced[side, 0]]


def _terms(W):
    """-w ln w entrywise, 0 where w = 0."""
    return -(W * np.log(W, out=np.zeros_like(W), where=W > 0.0))


def _J_values(n, spliced, parts, X):
    """J at each row of X, given the spliced halves of its rows from _halves.

    A row with no spliced half takes entropy_rows on the whole row. In any
    other, a spliced half is summed on its window, with weight
    1 + (m - w)/2 at the window's sites h-2 and h-1, which the bulk
    repeats; the row's other half is summed whole; and the centre of an odd
    chain, in both halves, is taken off once. Unchecked: entries must lie
    in [0, 1], as the scans' roots and J's checked x do.
    """
    some = spliced.any(axis=0)
    if not some.any():
        return entropy_rows(X) / n
    m = (n + 1) // 2
    E = np.zeros(len(X))
    E[~some] = entropy_rows(X[~some])
    for rows, h, W in parts:
        P = _terms(W)
        E[rows] += P.sum(axis=1) + 0.5 * (m - W.shape[1]) * (P[:, h - 2] + P[:, h - 1])
    for side, Y in enumerate((X, X[:, ::-1])):
        rows = np.flatnonzero(some & ~spliced[side])
        if len(rows):
            E[rows] += _terms(Y[rows, :m]).sum(axis=1)
    if n % 2:
        E[some] -= _terms(X[some, m - 1])
    return E / n


def J(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Normalized entropy E(x(alpha))/n of the solved chain.

    The 1/n factor makes values comparable across chain lengths. Pass x to
    reuse an already-solved emission vector; it must have length n, with
    entries in [0, 1] (0 ln 0 = 0). A half of x that repeats with period 2
    across a spliced root's bulk (solver._spliced_windows) is summed and
    range-checked on its window only, each half by its own test; the scans
    take J the same way (_J_values). Where neither half does, J is
    entropy(x)/n.
    """
    x = _root(alpha, n, x)
    spliced, parts = _halves(n, [alpha], x[None])
    if not spliced.any():
        return entropy(x) / n
    # min and max copy nothing and fail at a nan
    if not all(v.min() >= 0.0 and v.max() <= 1.0 for v in _pieces(n, x, spliced, parts)):
        raise DomainError("J requires components in [0, 1]")
    return float(_J_values(n, spliced, parts, x[None])[0])


def J_prime(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Derivative dJ/dalpha, grad J dotted with the tangent dx/dalpha.

    This is _J_slopes on one row: the tangent and the dot product are
    taken on the mirror half of x, on its window chain where x is a
    spliced root (solver.tangent_rows). A supplied x is refused whole: an
    entry outside (0, 1] in either half raises DomainError; a spliced half
    is checked on its window, as J checks it. Raises ConvergenceError when
    the tangent system (I - F'(x)) t = F_alpha(x)/alpha is singular.

    A supplied root with a phase wall (past 3/4, a wall between an end and
    the bulk) is accepted, though I - F' is numerically singular at the
    wall (sigma_min about 6e-17), so its J' is ill-conditioned.
    newton_solve never returns such a root.
    """
    x = _root(alpha, n, x)
    if not all(v.min() > 0.0 and v.max() <= 1.0 for v in _pieces(n, x, *_halves(n, [alpha], x[None]))):
        raise DomainError("J_prime requires components in (0, 1]")
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
    spent the point is the midpoint. A point that rounds onto an end becomes
    the midpoint; if that does too (the ends are adjacent floats), or at a
    nan slope (a failed solve), the search stops with the bracket reached.

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
        c = c if lo < c < hi else mid
        if not lo < c < hi:
            break
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

    Both factors are mirror symmetric, so the dot product is taken on the
    mirror half, m = ceil(n/2) sites: twice the sum, less the centre site
    of an odd chain, which has no mirror twin. A tangent part of
    tangent_rows on a window is dotted there, with weight 1 + (m - w)/2 at
    the window's sites h-2 and h-1, which the bulk of root and tangent
    repeats; a whole half is dotted whole. The gradient comes from
    grad_entropy_rows, unchecked: the scans' roots lie in (0, alpha], and
    J_prime checks a supplied x. It is built after the tangent solve,
    which keeps J_prime's peak memory that of the solve. A row whose
    system is singular is nan.
    """
    m = (n + 1) // 2
    s = np.empty(len(X))
    for rows, h, W, T in tangent_rows(n, alphas, X):
        g = grad_entropy_rows(W)
        p = np.einsum("ij,ij->i", g, T)
        if h < m:
            p += 0.5 * (m - W.shape[1]) * (g[:, h - 2] * T[:, h - 2] + g[:, h - 1] * T[:, h - 1])
        p *= 2.0
        if n % 2:
            p -= g[:, -1] * T[:, -1]
        s[rows] = p
    return s / n


def _search(n, grid, value, slope, width):
    """Maximize value(root) over alpha: a scan of grid closed by _refine.

    value(alphas, X) and slope(alphas, X) map a stack of roots (X[i] for
    alphas[i]) to the objective and to its derivative in alpha. The scan
    keeps each solved grid value (a value that is not finite counts as
    failed) but only the roots of the best point so far, its solved
    neighbours and the last solved point. slope runs once, on the best
    point and neighbours; if the neighbour that the best point's slope
    points to has a slope of the other sign, _refine closes that step to
    width, each point solved by newton_rows(n, [a]) (a failed solve gives
    nan, which stops it).

    Returns None if no grid point solves, else (alpha, value, root,
    evaluations, bracket, unimodal): bracket is the grid step when no
    bracket forms, and unimodal says the solved values rise, then fall once.
    """
    vals = np.full(len(grid), np.nan)
    left = best = right = last = None  # (grid index, root)
    for rows, X in newton_rows(n, grid):
        vals[rows] = value(grid[rows], X)
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
    return alpha, float(value([alpha], x[None])[0]), x, len(grid) + evals, bracket, unimodal


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
        n,
        grid,
        lambda alphas, X: _J_values(n, *_halves(n, alphas, X), X),
        lambda alphas, X: _J_slopes(n, alphas, X),
        tol_alpha,
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
    try:
        alphas = list(alphas)
    except TypeError:
        raise DomainError(f"alphas must be an iterable of real numbers, got {alphas!r}") from None
    for a in alphas:
        if not (isinstance(a, (float, np.floating)) and not math.isfinite(a)):
            check_real("alpha", a)
    alphas = [float(a) for a in alphas]
    valid = [i for i, a in enumerate(alphas) if 0.0 < a < 1.0]
    Js = np.full(len(alphas), np.nan)
    for rows, X in newton_rows(n, [alphas[i] for i in valid]):
        cells = [valid[k] for k in rows]
        Js[cells] = _J_values(n, *_halves(n, [alphas[i] for i in cells], X), X)
    return [(a, float(j)) for a, j in zip(alphas, Js)]
