"""Fixed-point and Newton solvers for the chain system x = F_alpha(x).

fixed_point_solve is plain successive approximation from all-ones, the
reference. For alpha <= 3/4 the map is a contraction near the solution and
it converges; past about 0.8 the synchronous iteration can lock into a
period-2 cycle around the root instead.

newton_solve is one Newton loop on the mirror half of the chain: the
boundary conditions are mirror symmetric and so is the returned root,
x_{n+1-i} = x_i. Steps are backtracked on ||x - F_alpha(x)||_2^2 from the
ring model's root: its flat level up to alpha = 3/4, its alternating
high/low pair past it. The root returned past 3/4 is the branch with both
ends high, alternating inward, and a central defect when n is even.

newton_rows runs that loop on many alphas at once, one row each, for the
alpha scans of maximize_J, fit_alpha and sweep_J: the rows' tridiagonal
systems are stacked into one LAPACK gtsv call per step, and only the rows
that solve come back. Both start a long chain from the root of a short
chain spliced into the ring pattern (_start_rows), and run the
full-length loop (_newton_block) only on the rows where that start fails
tol, which a short window chain with the same neighbourhoods shows
(_spliced_groups holds its geometry). _spliced_windows reads such a
window back from a root whose half repeats with period 2 between the
window's head and tail. tangent_rows gives dx/dalpha on the mirror half:
on that window chain where the window passes tol and kappa is not too
small (_TANGENT_SPLICE_LEN), on the full half otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
# solve_banded is not called here; the benchmark's tracer wraps this binding
from scipy.linalg import get_lapack_funcs, solve_banded  # noqa: F401

from .errors import ConvergenceError, DomainError
from .model import (
    ChainParams,
    apply_F,
    check_count,
    check_instance,
    check_real,
    check_vector,
    jacobian_bands,
    padded_bands,
    padded_F,
    ring_level,
)

_FP_MAX_ITER = 10 ** 6
_NEWTON_MAX_ITER = 100
# Rows of a scan are stacked into tridiagonal systems of at most this many
# unknowns (a single longer row goes alone). Past it the stacked arrays
# outgrow the CPU cache: at n = 5000, a cap of 2^16 made maximize_J 1.5x
# slower than 2^14 on a 2-core Xeon with 2 MB of L2 per core.
_STACK_UNKNOWNS = 1 << 14
# Clips of L(alpha), the length of the short chain whose root starts chains
# of at least 8 L(alpha) pairs (see _start_rows). L(alpha) is the power of
# two at or above 160/kappa, kappa the border layer's decay rate
# (_border_rate): the splice takes the L/4 >= 40/kappa sites next to each
# end and next to the centre from the short root, where the deviation from
# the ring pattern has decayed by e^{-40} ~ 4e-18. Near alpha = 3/4, where
# kappa -> 0, the upper clip holds; below 8 * 2^7 = 1024 pairs no chain is
# spliced.
_SPLICE_MIN = 1 << 7
_SPLICE_LEN = 1 << 13
# The longest L(alpha) whose rows take the window chain in tangent_rows, so
# kappa >= 160/2^11 = 0.078 there. Nearer 3/4 the tangent system's
# conditioning, about 1/kappa^2, amplifies the rounding-level step where a
# spliced root meets the ring pattern, and where the 2^13 clip holds
# (kappa L < 160) the window also cuts the border layer short: the window
# tangent strayed from the full half's by up to 1.1e-12 x max |t| at
# L = 2^12, 3.4e-12 at 2^13 and 3.8e-8 under the clip, against at most
# 1.8e-13 at L <= 2^11.
_TANGENT_SPLICE_LEN = 1 << 11
(_gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance and iteration cap for both solvers.

    max_iter = None picks the per-method default: 10^6 sweeps for the
    fixed-point iteration, 100 steps for Newton.
    """

    tol: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self):
        check_real("tol", self.tol)
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter is not None:
            check_count("max_iter", self.max_iter)


@dataclass(frozen=True)
class ContractionCertificate:
    """Sup-norm contraction report for F_alpha at a point.

    domain_ok: whether ||x - 1||_inf < 1/(2 alpha), the region on which the
    sup-norm bound applies. norm_bound: exact ||F'_alpha(x)||_inf.
    """

    domain_ok: bool
    norm_bound: float
    contractive: bool


def residual(params: ChainParams, x) -> float:
    """Sup-norm distance between x and F_alpha(x)."""
    check_instance("params", params, ChainParams)
    x = check_vector("x", x, params.n)
    return float(np.max(np.abs(x - apply_F(params, x))))


def fixed_point_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Successive approximation x <- F_alpha(x) until the sweep moves less than tol.

    Raises ConvergenceError (carrying the last iterate and residual) when the
    cap is hit; this genuinely happens at large alpha where the synchronous
    dynamics settle on a period-2 orbit instead of the fixed point.
    """
    check_instance("params", params, ChainParams)
    check_instance("opts", opts, SolveOptions)
    cap = opts.max_iter if opts.max_iter is not None else _FP_MAX_ITER
    x = np.ones(params.n)
    for _ in range(cap):
        y = apply_F(params, x)
        if np.max(np.abs(y - x)) <= opts.tol:
            return y
        x = y
    r = residual(params, x)
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {cap} sweeps "
        f"(n={params.n}, alpha={params.alpha}, residual={r:.3e})",
        last=x,
        residual=r,
    )


def _ring_start(alpha):
    """High and low start levels of the borderless (ring) model.

    Up to alpha = 3/4 the ring settles on the flat level c(alpha) of
    ring_level. Past it the ring alternates between hi >= lo with
    hi + lo = 2 - 1/alpha and hi lo = ((1 - alpha)/alpha)^2. Both levels
    equal c = 1/3 at alpha = 3/4, so this is one start rule. The low level
    is taken as a quotient: the difference of the quadratic formula cancels
    as alpha -> 1.
    """
    if alpha <= 0.75:
        hi = lo = ring_level(alpha)
    else:
        hi = (2.0 - 1.0 / alpha + np.sqrt(4.0 * alpha - 3.0) / alpha) / 2.0
        lo = ((1.0 - alpha) / alpha) ** 2 / hi
    return hi, lo


def _ring_rows(alphas, m):
    """(R, m) mirror halves holding the ring pattern hi, lo, hi, ... of each alpha."""
    levels = np.array([_ring_start(a) for a in alphas])
    y = np.empty((len(alphas), m))
    y[:, 0::2] = levels[:, :1]
    y[:, 1::2] = levels[:, 1:]
    return y


def solve_tridiagonal_rows(dl, d, du, b):
    """Solve the independent tridiagonal systems held in the rows of (R, m) arrays.

    Row i holds the system dl[i, j-1] x[j-1] + d[i, j] x[j] + du[i, j] x[j+1]
    = b[i, j]; the last columns of dl and du must be zero. The rows are
    stacked into one block-diagonal system with zero coupling between blocks
    and solved by one LAPACK gtsv call (the routine solve_banded uses for one
    block), so each row gets the arithmetic of its own solve. That call fails
    exactly when some row's own call does, so then each row is solved alone.
    Returns x, with nan rows for the singular blocks, and their boolean mask.
    """
    r, m = d.shape
    x, info = _gtsv_rows(dl, d, du, b)
    if info == 0:
        return x.reshape(r, m), np.zeros(r, dtype=bool)
    alone = [_gtsv_rows(dl[i], d[i], du[i], b[i]) for i in range(r)]
    bad = np.array([info != 0 for _, info in alone])
    return np.array([np.full(m, np.nan) if info else x for x, info in alone]), bad


def _gtsv_rows(dl, d, du, b):
    """One gtsv call on the rows of dl, d, du and b laid end to end: (x, info)."""
    lo, di, up, rhs = (a.ravel() for a in (dl, d, du, b))
    # gtsv wants at least one off-diagonal entry, even for a 1 x 1 system
    size = max(len(di) - 1, 1)
    *_, x, info = _gtsv(lo[:size], di, up[:size], rhs)
    return x, info


def _pad(y, k):
    """Half-chain rows y padded for padded_F and padded_bands.

    Each row gets the border 0 on the left and, on the right, its mirror
    neighbour x_{m+1} = y[k] and the border 0 beyond it (k = -1: the chain
    ends at x_m, whose right neighbour is the border).
    """
    r, m = y.shape
    z = np.zeros((r, m + 3))
    z[:, 1:-2] = y
    if k >= 0:
        z[:, -2] = y[:, k]
    return z


def _merit(alpha, y, k):
    """Padded half-chain rows (_pad), G = y - F(y) and ||G||_2^2 per row."""
    z = _pad(y, k)
    g = y - padded_F(alpha, z)[:, : y.shape[1]]
    return z, g, np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0]


def _newton_step(alpha, z, g, k):
    """Solve (I - F'(y)) delta = g on every row of the padded rows z, as in _merit.

    k >= 0 folds the system at the mirror neighbour y[k]; k = -1 is the
    whole chain, with a border on both sides. This is the only code that
    assembles I - F'. Returns delta and the mask of singular rows (nan).
    """
    r, m = g.shape
    sub, sup = padded_bands(alpha, z)
    dl, d, du = np.zeros((3, r, m))
    d[:] = 1.0
    np.negative(sub[:, :-1], out=dl[:, :-1])
    np.negative(sup[:, :-1], out=du[:, :-1])
    if k >= 0:
        # dF_m/dx_{m+1} lands on the diagonal (even n, k = m - 1) or sub-diagonal
        (d if k == m - 1 else dl)[:, k] -= sup[:, -1]
    # free the bands before gtsv copies the system: a block's peak memory
    del sub, sup
    return solve_tridiagonal_rows(dl, d, du, g)


def _tangent(alpha, z, k):
    """Solve (I - F'(y)) t = F_alpha(y)/alpha on the padded half rows z of _pad, folded at k."""
    t, _ = _newton_step(alpha, z, padded_F(alpha, z)[:, : z.shape[1] - 3] / alpha, k)
    return t


def _spread(parts, m):
    """The (R, m) tangent halves from the parts of tangent_rows, R rows in all.

    A window's head is its first h sites and its tail its other w - h; the
    bulk between them repeats the window's sites h-2 and h-1, by site
    parity. A part with h = m is a whole half.
    """
    y = np.empty((sum(len(rows) for rows, *_ in parts), m))
    for rows, h, _, window in parts:
        y[rows, :h] = window[:, :h]
        if h < m:
            tail = m - window.shape[1] + h
            y[rows, tail:] = window[:, h:]
            y[rows, h:tail:2] = window[:, h - 2 : h - 1]
            y[rows, h + 1 : tail : 2] = window[:, h - 1 : h]
    return y


def tangent_rows(n, alphas, X):
    """dx/dalpha at each row of X, the chain's root for alphas[i], on the mirror half.

    F_alpha is linear in alpha, so differentiating x = F_alpha(x) gives
    (I - F'(x)) t = F_alpha(x)/alpha. The root and the right side are
    mirror symmetric, and so is t: it is solved on the mirror half,
    m = ceil(n/2) unknowns, folded as in the Newton loop, t_{n+1-i} = t_i.
    The derivative in alpha of any objective of the root is its gradient
    in x dotted with t. A row whose system is singular comes back nan.

    Returns a list of parts (rows, h, W, T), each row of X in one part: W
    and T hold the roots X[rows] and their tangents on the rows' windows,
    head h (as _spliced_windows), or on their whole halves, h = m; _spread
    turns the parts into (R, m) tangent halves. A spliced root's half, as _spliced_windows
    reads it back from the root, is solved on its window chain where
    L(alpha) <= _TANGENT_SPLICE_LEN and the window passes the default tol,
    as the roots that newton_solve returns from the window check of
    _start_rows do. Then the window holds the long half's (left, site,
    right) triples, so its system is the long one with all but 4 bulk
    sites cut out, and the long tangent's deviation from the bulk's decays
    from both ends like the root's: the long tangent is the window's,
    spread. Every other row is solved on the full half. A root whose bulk
    holds the ring levels past 3/4 in swapped phase has a phase wall in
    its head, where I - F' is numerically singular on either path.

    The folded system has no antisymmetric mode. On the whole chain it
    would: on an even chain past alpha = 3/4, I - F' has a near-null
    antisymmetric mode (sigma_min down to 1e-16), along which a
    whole-chain solve's error reaches O(1).
    """
    m = (n + 1) // 2
    k = m - 1 - n % 2
    a = np.asarray(alphas, dtype=float)[:, None]
    parts = []
    full = np.ones(len(X), dtype=bool)
    for _, ns, h, rows, window in _spliced_windows(n, alphas, X):
        if ns - n % 4 > _TANGENT_SPLICE_LEN:
            continue
        kw = window.shape[1] - 1 - n % 2
        z, g, _ = _merit(a[rows], window, kw)
        ok = np.abs(g).max(axis=1) <= SolveOptions().tol
        if ok.any():
            parts.append((rows[ok], h, window[ok], _tangent(a[rows[ok]], z[ok], kw)))
            full[rows[ok]] = False
    if full.any():
        rows = np.flatnonzero(full)
        y = X[rows, :m]
        parts.append((rows, m, y, _tangent(a[rows], _pad(y, k), k)))
    return parts


def _line_search(alpha, y, z, g, phi, delta, k):
    """Armijo backtracking on phi = ||G||^2, each row on its own.

    Every row tries y - t delta for t = 1, 1/2, ... until its merit passes
    the test; the rows still waiting share the same t. Returns the accepted
    (y, z, g, phi) and the mask of rows given up when t fell below 2^-30,
    which keep their old values. The arrays passed in may be overwritten.
    """
    t = 1.0
    todo = np.ones(len(y), dtype=bool)
    while True:
        yt = y - t * delta
        zt, gt, phit = _merit(alpha, yt, k)
        # the Newton slope of phi is -2 phi
        ok = todo & (phit <= (1.0 - 2e-4 * t) * phi)
        if ok.all():
            return yt, zt, gt, phit, ~ok
        for cur, new in ((y, yt), (z, zt), (g, gt)):
            np.copyto(cur, new, where=ok[:, None])
        phi = np.where(ok, phit, phi)
        todo &= ~ok
        t /= 2.0
        if t < 2.0 ** -30 or not todo.any():
            return y, z, g, phi, todo


def _newton_block(n, alphas, opts, y, solved):
    """The half-chain Newton loop on one row per alpha, all rows at once.

    Starts from the (R, m) halves y and returns them, overwritten with the
    roots or last iterates, and per row None or why its solve failed. The
    rows marked in solved, whose start already passes tol (_start_rows),
    come back as started and take no work. A row leaves the loop when it
    converges or fails; the others step on, each with its own line search.
    """
    cap = opts.max_iter if opts.max_iter is not None else _NEWTON_MAX_ITER
    m = y.shape[1]
    # 0-based index in y of the mirror neighbour x_{m+1}; -1 is the border
    k = m - 1 - n % 2
    # rows leave into the start halves, which the loop no longer needs
    out = y
    why = [None] * len(alphas)
    live = np.flatnonzero(~solved)
    a = np.array(alphas, dtype=float)[live, None]
    y = y[live]
    z, g, phi = _merit(a, y, k)

    def leave(gone, reason=None):
        nonlocal live, a, y, z, g, phi
        out[live[gone]] = y[gone]
        for i in live[gone]:
            why[i] = reason
        keep = ~gone
        live, a, y, z, g, phi = live[keep], a[keep], y[keep], z[keep], g[keep], phi[keep]

    steps = 0
    while len(live):
        done = np.abs(g).max(axis=1) <= opts.tol
        if done.all():
            out[live] = y
            break
        if done.any():
            leave(done)
        if steps == cap:
            leave(np.ones(len(live), dtype=bool), f"did not converge in {cap} steps")
            break
        steps += 1
        delta, singular = _newton_step(a, z, g, k)
        if singular.any():
            leave(singular, "hit a singular Jacobian")
            delta = delta[~singular]
        y, z, g, phi, stalled = _line_search(a, y, z, g, phi, delta, k)
        if stalled.any():
            leave(stalled, "line search failed")
    return out, why


def _border_rate(alpha):
    """Decay rate kappa of a root's deviation from the ring pattern, e^{-kappa i}.

    Linearized about the ring levels hi, lo of _ring_start, a deviation
    delta_i = -alpha ((1 - x_{i+1}) delta_{i-1} + (1 - x_{i-1}) delta_{i+1})
    shrinks by e^{-2 kappa} over each period of two sites, with
    cosh(2 kappa) = 1/p - 1 and p = 2 alpha^2 (1 - hi)(1 - lo). Below 3/4
    this is cosh(kappa) = 1/(2 alpha (1 - c)); past it p = 2 (1 - alpha);
    kappa = 0 at 3/4.
    """
    hi, lo = _ring_start(alpha)
    p = float(2.0 * alpha * alpha * (1.0 - hi) * (1.0 - lo))
    # p underflows to 0 as alpha -> 0, where kappa grows without bound, and
    # rounding leaves 1/p - 1 a few ulp under 1 at 3/4
    return 0.5 * math.acosh(max(1.0 / p - 1.0, 1.0)) if p > 0.0 else math.inf


def _splice_len(alpha):
    """L(alpha): the power of two at or above 160/kappa, within [_SPLICE_MIN, _SPLICE_LEN]."""
    kappa = _border_rate(alpha)
    length = _SPLICE_MIN
    while length < _SPLICE_LEN and length * kappa < 160.0:
        length *= 2
    return length


def _spliced_groups(n, alphas):
    """The rows of alphas that a chain of n pairs splices, grouped by short chain.

    Yields (n', w, h, rows) per short length L(alpha) (_splice_len): the
    short chain's n' = L(alpha) + n % 4 pairs, the window chain's half
    length w = ceil(n'/2) + 4, its head length h = w // 2, and the indices
    of the rows with n >= 8 L(alpha). On a long half of m sites the window
    is y[:h] ++ y[m - w + h:]: the short root's head, 4 ring sites and its
    tail. Below 8 _SPLICE_MIN pairs nothing is computed.
    """
    if n < 8 * _SPLICE_MIN:
        return
    groups = {}
    for i, a in enumerate(alphas):
        length = _splice_len(a)
        if n >= 8 * length:
            groups.setdefault(length, []).append(i)
    for length, rows in groups.items():
        ns = length + n % 4
        w = (ns + 1) // 2 + 4
        yield ns, w, w // 2, rows


def _period_2(y):
    """Whether y[:-2] == y[2:], read in memory order.

    The test reads the same backwards, and a reversed view (a root's right
    half) compares about 2.6x slower than a forward one.
    """
    y = y[::-1] if y.strides[0] < 0 else y
    return bool((y[:-2] == y[2:]).all())


def _spliced_windows(n, alphas, *Ys):
    """The windows of the spliced halves among the rows of each Y in Ys, group by group.

    Row i of a Y holds a half of a chain of n pairs for alphas[i] in its
    first m = ceil(n/2) sites: a root, a mirror half or a root reversed
    (its right half). Yields (side, n', h, rows, windows) per group
    (n', w, h) of _spliced_groups and Y = Ys[side]: the rows whose half
    repeats with period 2 from the window's site h-2 to the first two
    sites of its tail, y[h-2:tail] == y[h:tail+2] with tail = m - w + h,
    and their (len(rows), w) windows y[:h] ++ y[tail:m]. Such a half is
    its window with the bulk repeating the window's sites h-2 and h-1 by
    parity, m - w sites with an even count, so a sum over the half is the
    window's with weight 1 + (m - w)/2 at those two sites. A nan in the
    bulk fails the test.
    """
    m = (n + 1) // 2
    for ns, w, h, rows in _spliced_groups(n, alphas):
        tail = m - w + h
        for side, Y in enumerate(Ys):
            kept = np.array([i for i in rows if _period_2(Y[i, h - 2 : tail + 2])], dtype=int)
            if len(kept):
                yield side, ns, h, kept, np.concatenate((Y[kept, :h], Y[kept, tail:m]), axis=1)


def _start_rows(n, alphas, opts):
    """Newton start halves, spliced near the ends of a long chain, and the rows they solve.

    Away from its ends a long chain sits on the ring pattern, up to border
    layers that decay like e^{-kappa i}. So for n >= 8 L(alpha)
    (_splice_len) the loop first runs on a chain of n' = L(alpha) + n % 4
    pairs only; the rows of one L share one stacked short _newton_block,
    so each row gets the arithmetic of its own solve. n' has the parity of
    n, so an even chain keeps its central defect, and its half
    m' = ceil(n'/2) the parity of m = ceil(n/2), so the alternating pattern
    meets the mirror in the same phase. A short solve that fails still
    leaves its last iterate: the full-length loop decides.

    The window chain is the short root's mirror half with 4 ring sites of
    _ring_rows between its first and second halves: w = m' + 4 sites, in
    the same phase (_spliced_groups). The long start half is the window's
    first h = w // 2 sites at the head and its other w - h at the mirror
    end, with the ring pattern of _ring_rows between; tangent_rows reads
    the same window back from a root. Each site of G = y - F(y) depends
    only on the site and its two neighbours, and the window holds exactly
    the (left, site, right) triples of the long half, so its max |G| from
    _merit is the long half's, bit for bit. Returns the (R, m) start
    halves and the mask of rows whose window passes tol: there the
    full-length loop would return the start without a step. Below
    8 _SPLICE_MIN pairs nothing is computed and no row is marked.
    """
    m = (n + 1) // 2
    y = _ring_rows(alphas, m)
    solved = np.zeros(len(alphas), dtype=bool)
    for ns, w, h, rows in _spliced_groups(n, alphas):
        picked = [alphas[i] for i in rows]
        start = _ring_rows(picked, (ns + 1) // 2)
        short, _ = _newton_block(ns, picked, opts, start, np.zeros(len(rows), dtype=bool))
        window = _ring_rows(picked, w)
        window[:, : h - 2] = short[:, : h - 2]
        window[:, h + 2 :] = short[:, h - 2 :]
        y[rows, :h] = window[:, :h]
        y[rows, m - w + h :] = window[:, h:]
        _, g, _ = _merit(np.array(picked, dtype=float)[:, None], window, w - 1 - n % 2)
        solved[rows] = np.abs(g).max(axis=1) <= opts.tol
    return y, solved


def _unfold(y, n):
    """Whole chains from their mirror halves: x_{n+1-i} = x_i."""
    m = y.shape[1]
    x = np.empty((len(y), n))
    x[:, :m] = y
    x[:, m:] = y[:, : n - m][:, ::-1]
    return x


def newton_rows(n: int, alphas, opts: SolveOptions = SolveOptions()):
    """newton_solve for every alpha of a scan, solved a block of rows at a time.

    Yields (indices, roots) for consecutive blocks of alphas, in input
    order: roots[i] is the root for alphas[indices[i]], bit for bit what
    newton_solve returns for it. A row whose solve fails is left out
    together with its index. A block holds as many rows as fit in
    _STACK_UNKNOWNS half-chain unknowns, so memory stays bounded however
    many alphas come in. Each block's rows start from _start_rows, and
    only the rows whose start fails its window check run the full-length
    loop. The alphas are not checked here: maximize_J, fit_alpha and
    sweep_J check each one where it enters.
    """
    alphas = list(alphas)
    per_block = max(1, _STACK_UNKNOWNS // ((n + 1) // 2))
    for start in range(0, len(alphas), per_block):
        block = alphas[start : start + per_block]
        y, why = _newton_block(n, block, opts, *_start_rows(n, block, opts))
        ok = [i for i, reason in enumerate(why) if reason is None]
        yield start + np.array(ok, dtype=int), _unfold(y[ok], n)


def newton_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Newton's method on the mirror half of G(x) = x - F_alpha(x).

    The unknowns are y = x_1..x_m, m = ceil(n/2), with x_{n+1-i} = x_i.
    The residual and Jacobian bands come from padded_F and padded_bands on
    y padded with its mirror neighbour x_{m+1} (x_{m-1} for odd n, x_m for
    even n), whose derivative folds into the last row of the tridiagonal
    system. Each step is backtracked until ||G||_2^2 passes the Armijo
    test. The start is the ring root (_ring_start), spliced near the ends
    of a long chain (_start_rows); a spliced start that passes the window
    check there is returned without a full-length pass. The returned
    root keeps the start's layout: past alpha = 3/4 the components
    alternate high/low inward from both ends, with a central defect
    x_{n/2} = x_{n/2+1} for even n. Raises ConvergenceError (with the last
    iterate and residual) when the step cap is hit or the line search
    cannot reduce the merit.
    """
    check_instance("params", params, ChainParams)
    check_instance("opts", opts, SolveOptions)
    n, alpha = params.n, params.alpha
    y, (why,) = _newton_block(n, [alpha], opts, *_start_rows(n, [alpha], opts))
    (x,) = _unfold(y, n)
    if why is not None:
        r = residual(params, x)
        raise ConvergenceError(
            f"newton_solve {why} (n={n}, alpha={alpha}, residual={r:.3e})", last=x, residual=r
        )
    return x


def contraction_check(params: ChainParams, x) -> ContractionCertificate:
    """Evaluate the contraction hypothesis of the sup-norm argument at x.

    The certificate is informative only; both solvers run regardless of it.
    At the borderline alpha = 3/4 the asymptotic solution has
    |1/3 - 1| = 1/(2 alpha) exactly, so domain_ok is false there by the
    strict inequality.
    """
    check_instance("params", params, ChainParams)
    x = check_vector("x", x, params.n)
    domain_ok = bool(np.max(np.abs(x - 1.0)) < 1.0 / (2.0 * params.alpha))
    # row i of F' holds sup[i] right of the diagonal and sub[i-1] left of it
    sub, sup = jacobian_bands(params, x)
    rows = np.zeros(params.n)
    rows[:-1] = np.abs(sup)
    rows[1:] += np.abs(sub)
    norm_bound = float(np.max(rows))
    return ContractionCertificate(
        domain_ok=domain_ok,
        norm_bound=norm_bound,
        contractive=bool(norm_bound < 1.0),
    )
