"""Entropy fairness objective J(alpha) and its maximization over alpha.

J(alpha) = E(x(alpha))/n rates how evenly the channel is shared: it is
maximal when every pair emits equally often. Its derivative is grad J
dotted with the tangent dx/dalpha of solver.tangent_rows: one tridiagonal
solve on the Newton step's own I - F', stacked over the roots where the
slope is needed, replaces finite differencing of the whole chain solve.
maximize_J here and fit_alpha share one search, _search: a batched scan
of the objective's values, its slope at the best grid point and at that
point's neighbours, and one bracketed secant on the slope, _refine.

J and J' take per-site values on a root's parts (solver.newton_rows), a
spliced root's window or a whole half: entropy_terms for J, their slopes
times the tangent for J'. solver._chain_sums adds up a half's values over
its chain; J of a caller's x is the mean of its two halves' sums. On a
spliced root of 10^6 pairs the only chain-length pass left is the period
test of a caller's x.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ChainParams, check_count, check_real, check_vector, entropy_terms, grad_entropy_rows
# apply_F, jacobian_bands and newton_solve are not called here; the benchmark's tracer wraps these bindings
from .solver import apply_F, jacobian_bands, newton_solve  # noqa: F401
from .solver import _chain_sums, _solve_part, _spliced_windows, newton_rows, tangent_rows


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
    25 and one per refinement step: 2-5 below 215 pairs, 4-5 from 215 to
    5000 and 1, the seed, from 16,800), bracket is the width of the last
    interval where J' of the search's roots changes sign (the grid step
    0.04 when no bracket forms), and alpha_hat is one of its ends. Those
    roots pass tol 1e-12, which can move J' by about 1e-12, so the optimum
    can lie further out than a bracket that narrow. unimodal says that the
    solved grid values of J rise and then fall once.

    From 16,800 pairs the seed 3/4 - (s*/n)^2, s* = 168, is within the
    default tol_alpha of 3/4 and has J' > 0, so it alone closes the bracket
    and is alpha_hat: a table of n^2 (3/4 - alpha_hat) there needs
    tol_alpha=1e-10.
    """

    alpha_hat: float
    J_value: float
    evaluations: int
    bracket: float
    unimodal: bool = True


def _halves(alpha, n, x):
    """x checked against (n, alpha), and its halves as parts (h, W) of one row.

    The left half and the right half reversed are each read back on their
    own (solver._spliced_windows): no mirror is assumed.
    """
    ChainParams(n, alpha)
    x = check_vector("x", x, n)
    m = (n + 1) // 2
    return x, _spliced_windows(n, alpha, x[:m], x[::-1][:m])


def _J_values(n, h, W):
    """J at each root of a part (h, W) of solver.newton_rows, which stands for both halves; unchecked."""
    return _chain_sums(n, h, entropy_terms(W)) / n


def J(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Normalized entropy E(x(alpha))/n of the solved chain.

    The 1/n factor makes values comparable across chain lengths. Pass x to
    reuse an already-solved emission vector; it must have length n, with
    entries in [0, 1] (0 ln 0 = 0). A half of x that repeats with period 2
    across a spliced root's bulk is summed and range-checked on its window
    only, each half by its own test (_halves). Each half is summed as the
    scans sum a root's (_J_values), one at a time, and J is the mean of the
    two: J(alpha, n, newton_solve(...)) == J(alpha, n) bit for bit, and J
    is within 4e-16 relative of the exactly summed terms (n up to 10^6).
    """
    if x is None:
        return float(_J_values(n, *_solve_part(ChainParams(n, alpha)))[0])
    _, halves = _halves(alpha, n, x)
    # min and max copy nothing and fail at a nan
    if not all(W.min() >= 0.0 and W.max() <= 1.0 for _, W in halves):
        raise DomainError("J requires components in [0, 1]")
    # one half's terms at a time: each half's chain sum counts it twice
    return float(sum(_chain_sums(n, h, entropy_terms(W))[0] for h, W in halves) / (2 * n))


def J_prime(alpha: float, n: int, x: np.ndarray | None = None) -> float:
    """Derivative dJ/dalpha, grad J dotted with the tangent dx/dalpha.

    This is _J_slopes on one row: the tangent and the dot product are
    taken on the mirror half of the root, on its window chain where it is
    a spliced root (solver.tangent_rows). A supplied x is refused whole:
    an entry outside (0, 1] in either half raises DomainError; a spliced
    half is checked on its window, as J checks it, and the tangent takes
    the left half's part from that check. Raises ConvergenceError when the
    tangent system (I - F'(x)) t = F_alpha(x)/alpha is singular.

    A supplied root with a phase wall (past 3/4, a wall between an end and
    the bulk) is accepted, though I - F' is numerically singular at the
    wall (sigma_min about 6e-17), so its J' is ill-conditioned.
    newton_solve never returns such a root.
    """
    if x is None:
        part = _solve_part(ChainParams(n, alpha))
    else:
        _, halves = _halves(alpha, n, x)
        if not all(W.min() > 0.0 and W.max() <= 1.0 for _, W in halves):
            raise DomainError("J_prime requires components in (0, 1]")
        part = halves[0]
    (jp,) = _J_slopes(n, [alpha], [(np.zeros(1, dtype=int), *part)])
    if np.isnan(jp):
        raise ConvergenceError(f"J_prime: singular tangent system (n={n}, alpha={alpha})")
    return float(jp)


# s* of the critical chain: from a few thousand pairs up the optimum of J
# sits near s = n sqrt(3/4 - alpha) = 168 (ROADMAP item 8), and _search
# seeds a bracket that ends at 3/4 there, at v_star = s*/n
_S_STAR = 168.0


def _refine(slope, lo, s_lo, hi, s_hi, width, failed=frozenset(), v_star=None):
    """Close the bracket [lo, hi] on a sign change of slope to at most width.

    s_lo and s_hi are slope(lo) and slope(hi), nonzero and of opposite
    signs. This is the ITP method (Oliveira and Takahashi, ACM TOMS 47,
    2020) with one evaluation of slack. Each point is the regula falsi point
    of the two ends, moved toward the midpoint by 0.1 w^2/w0 (w the bracket
    width, w0 the first one) so that the points close in from both sides,
    and held so near the midpoint that bisection from there would still
    finish within ceil(log2(w0/width)) + 1 evaluations; once that slack is
    spent the point is the midpoint. A point that rounds onto an end becomes
    the midpoint, and one in failed (alphas whose solve is known to fail)
    becomes the regula falsi point itself; if the point still is not inside
    the bracket (the ends are adjacent floats), or at a nan slope (a failed
    solve), the search stops with the bracket reached.

    A bracket whose upper end is exactly 3/4 is where J' falls off a cliff
    (from about -0.3 to -1 over the last 10/n^2 below 3/4), so a regula
    falsi point in alpha lands next to lo. With v_star given (else that
    bracket is closed as any other), its points are first seeds
    3/4 - v^2, v = min(sqrt(3/4 - lo)/2, v_star), for as long as the upper
    end stays 3/4: a seed whose slope has lo's sign becomes lo, and the
    next seed halves v; the first other one becomes hi, a finite end below
    the cliff. From there every regula falsi point is taken in
    u = 1/sqrt(3/4 - alpha), in which J' ~ A - B u near the optimum, and
    the rest is as above. Seeds count against the same budget: one whose
    slope has lo's sign at least quarters the bracket, and the one other
    seed spends at most the evaluation of slack.

    Returns the end with the smaller |slope| (the closer one to the root
    where slope is near linear), the final bracket width and the number of
    evaluations.
    """
    w0 = hi - lo
    budget = 0
    if w0 > width:
        # w0 / width overflows at a subnormal width, the difference of the
        # logs does not; elsewhere the ratio's own log is kept, since the
        # difference can round across an integer where the ratio is 2^k
        ratio = w0 / width
        budget = math.ceil(math.log2(ratio) if ratio < math.inf else math.log2(w0) - math.log2(width)) + 1
    # aim a hair under width, so that rounding of the ends cannot leave the
    # worst-case bracket a few ulps over it and cost one more evaluation
    aim = width * (1.0 - 1e-9)
    s_lo, s_hi = float(s_lo), float(s_hi)
    cliff = v_star is not None and hi == 0.75
    evals = 0
    while hi - lo > width:
        w = hi - lo
        mid = lo + 0.5 * w
        if cliff and hi == 0.75:
            # a seed, s = n sqrt(3/4 - c) = min(s(lo)/2, s*) for v_star = s*/n
            c = 0.75 - min(0.5 * math.sqrt(0.75 - lo), v_star) ** 2
        else:
            if cliff:
                # the regula falsi point in u = 1/sqrt(3/4 - alpha), mapped back
                u_lo, u_hi = (0.75 - lo) ** -0.5, (0.75 - hi) ** -0.5
                f = 0.75 - (u_hi - s_hi * (u_hi - u_lo) / (s_hi - s_lo)) ** -2
            else:
                f = hi - s_hi * w / (s_hi - s_lo)
            nudge = 0.1 * w * w / w0
            c = f + math.copysign(nudge, mid - f) if nudge < abs(mid - f) else mid
            slack = max(math.ldexp(aim, budget - evals - 1) - 0.5 * w, 0.0)
            c = min(max(c, mid - slack), mid + slack)
            c = c if lo < c < hi else mid
            c = f if c in failed else c
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


def _J_slopes(n, alphas, parts):
    """J' at each alpha from the roots of parts: grad E(x) . dx/dalpha / n.

    Both factors are mirror symmetric, so their per-site products are
    taken on the parts of tangent_rows and added up by solver._chain_sums,
    as J adds up its terms. grad_entropy_rows is unchecked: the scans'
    roots lie in (0, alpha], and J_prime checks a supplied x. It runs
    after the tangent solve, which keeps J_prime's peak memory that of the
    solve. A row whose system is singular is nan.
    """
    s = np.empty(len(alphas))
    for rows, h, W, T in tangent_rows(n, alphas, parts):
        V = grad_entropy_rows(W)
        V *= T
        s[rows] = _chain_sums(n, h, V)
    return s / n


def _search(n, grid, value, slope, width):
    """Maximize value(root) over alpha: a scan of grid closed by _refine.

    value(alphas, h, W) maps the roots of a part of newton_rows (W[i] for
    alphas[i]) to the objective, and slope(alphas, parts) maps parts whose
    rows index alphas to its derivative at each alpha. The scan is one
    table: each grid value, and the root, a row (h, w) of a part, of every
    grid point whose value is finite (one that is not counts as failed and
    never ends a bracket). The best point is the first maximum, and its
    neighbours are the nearest finite points on each side. slope runs
    once, on the best point and neighbours; if the neighbour that the best
    point's slope points to has a slope of the other sign, _refine closes
    that step to width, never on a failed grid point inside that step, and
    seeds a step that ends at 3/4 at v_star = s*/n (_S_STAR).
    Each point is solved by solver._solve_part with its bracket's ends, the
    nearest solved alphas on each side and their roots, from which that
    solve picks its start; a ConvergenceError gives nan, which stops it.

    Returns None if no grid point solves, else (alpha, value, root,
    evaluations, bracket, unimodal): bracket is the grid step when no
    bracket forms, and unimodal says the solved values rise, then fall once.
    """
    vals, roots = np.full(len(grid), np.nan), {}
    for parts in newton_rows(n, grid):
        for rows, h, W in parts:
            vals[rows] = value(grid[rows], h, W)
            roots.update(zip(grid[rows].tolist(), [(h, w) for w in W]))
    ok = np.flatnonzero(np.isfinite(vals))
    if not len(ok):
        return None
    failed = set(grid[~np.isfinite(vals)].tolist())
    roots = {a: roots[a] for a in grid[ok].tolist()}
    p = int(np.argmax(vals[ok]))
    near = ok[max(p - 1, 0) : p + 2]
    parts = [(np.array([i]), h, w[None]) for i, (h, w) in enumerate(roots[a] for a in grid[near].tolist())]
    s = dict(zip(near.tolist(), slope(grid[near], parts)))

    def at(a):
        lo, hi = max(b for b in roots if b < a), min(b for b in roots if b > a)
        try:
            h, W = _solve_part(ChainParams(n, a), bracket=((lo, roots[lo]), (hi, roots[hi])))
        except ConvergenceError:
            return math.nan
        roots[a] = h, W[0]
        return slope([a], [(np.zeros(1, dtype=int), h, W)])[0]

    i = int(ok[p])
    j = int(near[-1] if s[i] > 0.0 else near[0])
    alpha, bracket, evals = float(grid[i]), float(grid[1] - grid[0]), 0
    if s[i] * s[j] < 0.0:
        a, b = sorted((i, j))
        alpha, bracket, evals = _refine(at, float(grid[a]), s[a], float(grid[b]), s[b], width, failed, _S_STAR / n)
    h, w = roots[alpha]
    steps = np.diff(vals[ok])
    unimodal = 0 < p < len(steps) and bool(np.all(steps[:p] > 0.0) and np.all(steps[p:] < 0.0))
    return alpha, float(value([alpha], h, w[None])[0]), (h, w), len(grid) + evals, bracket, unimodal


# step 0.04, with alpha = 3/4 exactly on it (index 18): no bracket spans
# the flat and the alternating branch of the root
_GRID = np.linspace(0.03, 0.99, 25)


def maximize_J(n: int, tol_alpha: float = 1e-4) -> OptResult:
    """Maximize J over alpha in [0.03, 0.99] for a fixed chain length.

    _search scans J at 25 alphas, 0.04 apart, as one batch and takes J' at
    the best of them and its solved neighbours; where J' changes sign next
    to the best point, _refine closes that step to tol_alpha, one step in
    at most ceil(log2(0.04 / tol_alpha)) + 1 solves. From 215 pairs that
    step is [0.71, 0.75], next to the cliff of J' at 3/4: it is seeded at
    s = n sqrt(3/4 - alpha) = min(s(0.71)/2, 168), halving s while J' > 0,
    and closed in u = 1/sqrt(3/4 - alpha), in 1-5 solves at the default
    tol_alpha and 4-12 at 1e-10. alpha_hat is the final end with
    the smaller |J'|, and J_value is J there, so no solve follows. Failed
    grid solves are left out, and a failed refinement solve stops the
    search with the bracket reached; with no bracket the best grid point
    is returned. If no grid point solves, ConvergenceError. A chain too
    long for numpy to hold the half of its row at 3/4 raises DomainError.
    """
    check_count("n", n)
    check_real("tol_alpha", tol_alpha)
    if not tol_alpha > 0.0:
        raise DomainError(f"tol_alpha must be positive, got {tol_alpha!r}")
    found = _search(
        n,
        _GRID,
        lambda alphas, h, W: _J_values(n, h, W),
        lambda alphas, parts: _J_slopes(n, alphas, parts),
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
    for parts in newton_rows(n, [alphas[i] for i in valid]):
        for rows, h, W in parts:
            Js[[valid[k] for k in rows]] = _J_values(n, h, W)
    return [(a, float(j)) for a, j in zip(alphas, Js)]
