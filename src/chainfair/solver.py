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
that solve come back. Both start a chain of at least 2 L(alpha) pairs
from the root of a short chain of L(alpha) pairs (_splice_len) spliced
into the ring pattern (_start_rows), and run the full-length loop
(_newton_block) only on the rows where that start fails tol, which a
short window chain with the same neighbourhoods shows (_widths holds its
geometry). newton_rows also takes whole start halves from its caller: a
refinement solve of the searches starts from the two roots at its
bracket's ends, interpolated, and runs the full-length loop from there;
its root passes tol but is not newton_solve's bit for bit.

A solved row travels as a part (rows, h, W): a spliced root as its
window, whose bulk repeats the window's sites h-2 and h-1 by parity
(_spread), any other as its whole mirror half, h = m. _unfold writes a
part out whole; the scans and tangent_rows read parts as they are, and
_spliced_windows reads a caller's half back into one. _chain_sums, the
one sum behind J and J', adds up a half's per-site values over its chain.
tangent_rows gives dx/dalpha on the mirror half: on the window chain
where the window passes tol and kappa is not too small
(_TANGENT_SPLICE_LEN), on the full half otherwise.

LAPACK gtsv is bound at the first solve (_gtsv), not at import, and
that solve loads scipy and its Fortran LAPACK extension only, not the
scipy.linalg package: 14-24 ms on a 2-core Xeon, where scipy.linalg took
0.20-0.27 s. The simulator, the exact law, the circle Monte Carlo, the
fixed-point solver and the CLI commands built on them never solve a
linear system and load no scipy at all.
"""

import functools
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

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
# of at least 2 L(alpha) pairs (see _start_rows), so the short chain holds
# at most half the pairs. L(alpha) is the power of two at or above
# 160/kappa, kappa the border layer's decay rate (_border_rate): the splice
# takes the L/4 >= 40/kappa sites next to each end and next to the centre
# from the short root, where the deviation from the ring pattern has
# decayed by e^{-40} ~ 4e-18. Near alpha = 3/4, where kappa -> 0, the upper
# clip holds; below 2 * 2^7 = 256 pairs no chain is spliced.
_SPLICE_MIN = 1 << 7
_SPLICE_LEN = 1 << 13
# The longest L(alpha) whose rows take the window chain in tangent_rows, so
# kappa >= 160/2^11 = 0.078 there. Nearer 3/4 the tangent system's
# conditioning, about 1/kappa^2, amplifies the rounding-level step where a
# spliced root meets the ring pattern, and where the 2^13 clip holds
# (kappa L < 160) the window also cuts the border layer short: the window
# tangent strayed from the full half's by up to 1.1e-12 x max |t| at
# L = 2^12, 3.4e-12 at 2^13 and 3.8e-8 under the clip, against at most
# 1.8e-13 at L <= 2^11. The window chain depends on n only through n % 4,
# and these figures held on chains of 2 L(alpha) pairs as of 8 L(alpha).
_TANGENT_SPLICE_LEN = 1 << 11


def __getattr__(name):
    # solve_banded is not called here; the benchmark's tracer wraps this
    # binding, which resolves on first access so that import loads no scipy
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _lapack_gtsv():
    """LAPACK dgtsv from scipy's Fortran extension, without the scipy.linalg package.

    The package's __init__ took 0.20-0.27 s (numpy.f2py and numpy.testing
    among it); the extension loads in about 5 ms once import scipy has set
    up the wheel's shared-library paths. Loading a single-phase extension
    puts it in sys.modules, where a later import of scipy.linalg would take
    it without binding it as the package's attribute, so it is taken out:
    that import loads it again, and CPython hands it the same routines.
    A scipy that keeps no extension at that path gives the same routine
    through scipy.linalg.lapack, with the package.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        import scipy

        spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
        if spec is None:
            from scipy.linalg.lapack import dgtsv

            return dgtsv
        flapack = module_from_spec(spec)
        spec.loader.exec_module(flapack)
        sys.modules.pop(name, None)
    return flapack.dgtsv


def _gtsv(dl, d, du, b):
    """LAPACK gtsv on one tridiagonal system: (du2, d, du, x, info)."""
    return _lapack_gtsv()(dl, d, du, b)


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
    as alpha -> 1. The arithmetic is Python float: on a scan's np.float64
    alphas, numpy scalar arithmetic made _splice_len 1.8x slower.
    """
    alpha = float(alpha)
    if alpha <= 0.75:
        hi = lo = ring_level(alpha)
    else:
        hi = (2.0 - 1.0 / alpha + math.sqrt(4.0 * alpha - 3.0) / alpha) / 2.0
        lo = ((1.0 - alpha) / alpha) ** 2 / hi
    return hi, lo


def _ring_rows(alphas, m):
    """(R, m) mirror halves holding the ring pattern hi, lo, hi, ... of each alpha."""
    levels = np.array([_ring_start(a) for a in alphas]).reshape(-1, 2)
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


def _spread(y, h, W):
    """Write the roots of a part (h, W) into the (R, m) half rows y; returns y.

    A window's first h sites go at the head and its other w - h at the end;
    the bulk between, an even count, repeats sites h-2 and h-1 and is filled
    in one pass as complex128 pairs, in memory order (y may run reversed).
    """
    tail = y.shape[1] - W.shape[1] + h
    y[:, :h] = W[:, :h]
    if h < tail:
        y[:, tail:] = W[:, h:]
        bulk, pair = y[:, h:tail], W[:, h - 2 : h]
        if bulk.strides[1] < 0:
            bulk, pair = bulk[:, ::-1], pair[:, ::-1]
        bulk.view(np.complex128)[:] = np.ascontiguousarray(pair).view(np.complex128)
    return y


def _unfold(h, W, n):
    """The whole chains of a part (h, W): each half spread (_spread), x_{n+1-i} = x_i."""
    m = (n + 1) // 2
    x = np.empty((len(W), n))
    for y in (x[:, :m], x[:, ::-1][:, :m]):
        _spread(y, h, W)
    return x


def _chain_sums(n, h, V):
    """Sums over mirror-symmetric chains of per-site values given on one half, a part (h, V) of one row per chain.

    A window is summed with weight 1 + (m - w)/2 at its sites h-2 and h-1,
    which the bulk repeats (_spread); the half's sum is doubled, and an odd
    chain's centre, in both halves, comes off once.
    """
    m = (n + 1) // 2
    s = 2.0 * V.sum(axis=1)
    if h < m:
        s += (m - V.shape[1]) * (V[:, h - 2] + V[:, h - 1])
    return s - V[:, -1] if n % 2 else s


def tangent_rows(n, alphas, parts):
    """dx/dalpha at the roots of parts, on the mirror half.

    F_alpha is linear in alpha, so differentiating x = F_alpha(x) gives
    (I - F'(x)) t = F_alpha(x)/alpha. The root and the right side are
    mirror symmetric, and so is t: it is solved on the mirror half,
    m = ceil(n/2) unknowns, folded as in the Newton loop, t_{n+1-i} = t_i.
    The derivative in alpha of any objective of the root is its gradient
    in x dotted with t. A row whose system is singular comes back nan.

    parts are parts (rows, h, W) of newton_rows, W[i] the root for
    alphas[rows[i]]; each row comes back in one part (rows, h, W, T), T on
    the sites of W. A window with L(alpha) <= _TANGENT_SPLICE_LEN that
    passes the default tol, as newton_rows' windows do, is solved on its
    window chain: it holds the long half's (left, site, right) triples, so
    the long tangent's deviation from the bulk's decays from both ends like
    the root's, and the long tangent is the window's, spread. Every other
    row is solved on the full half, h = m. A root whose bulk holds the ring
    levels past 3/4 in swapped phase has a phase wall in its head, where
    I - F' is numerically singular on either path.

    The folded system has no antisymmetric mode. The whole chain's I - F'
    has a near-null one on an even chain past alpha = 3/4 (sigma_min down
    to 1e-16), along which a whole-chain solve's error reaches O(1).
    """
    m = (n + 1) // 2
    k = m - 1 - n % 2
    a = np.asarray(alphas, dtype=float)[:, None]
    out, full = [], []
    for rows, h, W in parts:
        if h < m and W.shape[1] <= _window_width(n, _TANGENT_SPLICE_LEN):
            kw = W.shape[1] - 1 - n % 2
            z, g, _ = _merit(a[rows], W, kw)
            ok = np.abs(g).max(axis=1) <= SolveOptions().tol
            if ok.any():
                out.append((rows[ok], h, W[ok], _tangent(a[rows[ok]], z[ok], kw)))
            rows, W = rows[~ok], W[~ok]
        if len(rows):
            full.append((rows, W if h == m else _spread(np.empty((len(W), m)), h, W)))
    if full:
        rows, y = full[0] if len(full) == 1 else (np.concatenate(c) for c in zip(*full))
        out.append((rows, m, y, _tangent(a[rows], _pad(y, k), k)))
    return out


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


def _newton_block(n, alphas, opts, y):
    """The half-chain Newton loop on one row per alpha, all rows at once.

    Starts from the (R, m) halves y and returns them, overwritten with the
    roots or last iterates, and per row None or why its solve failed. A row
    leaves the loop when it converges or fails; the others step on, each
    with its own line search.
    """
    cap = opts.max_iter if opts.max_iter is not None else _NEWTON_MAX_ITER
    m = y.shape[1]
    # 0-based index in y of the mirror neighbour x_{m+1}; -1 is the border
    k = m - 1 - n % 2
    # rows leave into the start halves, which the loop no longer needs
    out = y
    why = [None] * len(alphas)
    live = np.arange(len(alphas))
    a = np.array(alphas, dtype=float)[:, None]
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
    alpha = float(alpha)
    hi, lo = _ring_start(alpha)
    p = 2.0 * alpha * alpha * (1.0 - hi) * (1.0 - lo)
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


def _window_width(n, length):
    """The window chain's sites w = ceil(n'/2) + 4 for a chain of n pairs spliced at L = length, n' = L + n % 4."""
    return (length + n % 4 + 1) // 2 + 4


def _widths(n, alphas):
    """The unknowns of each alpha's part on a chain of n pairs, a list of ints.

    Where n >= 2 L(alpha) (_splice_len), the window chain's w
    (_window_width), which is then below m; on a long half its window is
    y[:h] ++ y[m - w + h:], h = w // 2. Elsewhere m = ceil(n/2). Where a
    window fails tol, which at alpha = 3/4 it always does, the short chain
    costs at most half a solve more, and the full-length loop starts from
    the window spread (_start_rows).
    """
    m = (n + 1) // 2
    widths = [m] * len(alphas)
    if n >= 2 * _SPLICE_MIN:
        for i, a in enumerate(alphas):
            length = _splice_len(a)
            if n >= 2 * length:
                widths[i] = _window_width(n, length)
    return widths


def _period_2(y):
    """Whether y[:-2] == y[2:], read in memory order.

    The test reads the same backwards, and a reversed view (a root's right
    half) compares about 2.6x slower than a forward one.
    """
    y = y[::-1] if y.strides[0] < 0 else y
    return bool((y[:-2] == y[2:]).all())


def _spliced_windows(n, alpha, *halves):
    """Each half y in halves of a chain of n pairs for alpha, as a part (h, W) of one row.

    y holds m = ceil(n/2) sites: a left half, or a right half reversed.
    Where the chain splices (_widths) and y[h-2:tail] == y[h:tail+2],
    tail = m - w + h, the part is the window y[:h] ++ y[tail:], which
    _spread turns back into y, so a sum over the half is the window's with
    weight 1 + (m - w)/2 at its sites h-2 and h-1. Any other half is given
    whole, h = m. A nan in the bulk fails the test.
    """
    m = (n + 1) // 2
    (w,) = _widths(n, [alpha])
    h = w // 2
    tail = m - w + h
    return [
        (h, np.concatenate((y[:h], y[tail:]))[None]) if w < m and _period_2(y[h - 2 : tail + 2]) else (m, y[None])
        for y in halves
    ]


def _start_rows(n, alphas, opts, widths):
    """Newton starts for a block of alphas, spliced near the ends of a long chain, and the rows they solve.

    Away from its ends a long chain sits on the ring pattern, up to border
    layers that decay like e^{-kappa i}. So for n >= 2 L(alpha)
    (_splice_len) the loop first runs on a chain of n' = L(alpha) + n % 4
    pairs only; the rows of one L share one stacked short _newton_block,
    so each row gets the arithmetic of its own solve. n' has the parity of
    n, so an even chain keeps its central defect, and its half
    m' = ceil(n'/2) the parity of m = ceil(n/2), so the alternating pattern
    meets the mirror in the same phase. A short solve that fails still
    leaves its last iterate: the full-length loop decides.

    The window chain is the short root's mirror half with 4 ring sites
    between its first and second halves, w = m' + 4 sites (_widths), and
    spread over the long half (_spread) it is the long start half. Each
    site of G = y - F(y) depends only on the site and its two neighbours,
    so the window's max |G| from _merit is the long half's, bit for bit.
    Where that passes tol the full-length loop would return the start
    without a step: the window is the root. Returns the parts (rows, h, W)
    of those windows, the indices of the other rows and only their
    (R', m) start halves, the ring pattern or the window spread.
    """
    m = (n + 1) // 2
    parts, failed, rest = [], [], [i for i, w in enumerate(widths) if w == m]
    for w in dict.fromkeys(w for w in widths if w < m):
        # n' has the parity of n, so w - 4 = ceil(n'/2) gives n'
        ns, h, rows = 2 * (w - 4) - n % 2, w // 2, np.array([i for i, v in enumerate(widths) if v == w])
        picked = [alphas[i] for i in rows.tolist()]
        short, _ = _newton_block(ns, picked, opts, _ring_rows(picked, (ns + 1) // 2))
        window = _ring_rows(picked, w)
        window[:, : h - 2] = short[:, : h - 2]
        window[:, h + 2 :] = short[:, h - 2 :]
        _, g, _ = _merit(np.array(picked, dtype=float)[:, None], window, w - 1 - n % 2)
        ok = np.abs(g).max(axis=1) <= opts.tol
        if ok.any():
            parts.append((rows[ok], h, window[ok]))
        if not ok.all():
            failed.append((rows[~ok], h, window[~ok]))
            rest += rows[~ok].tolist()
    rest = sorted(rest)
    y = _ring_rows([alphas[i] for i in rest], m)
    for rows, h, window in failed:
        y[np.searchsorted(rest, rows)] = _spread(np.empty((len(rows), m)), h, window)
    return parts, np.array(rest, dtype=int), y


def newton_rows(n: int, alphas, opts: SolveOptions = SolveOptions(), start=None):
    """newton_solve for every alpha of a scan, solved a block of rows at a time.

    Yields a list of parts (rows, h, W) for each of consecutive blocks of
    alphas, in input order: W[i] is the root for alphas[rows[i]], a
    block's parts hold disjoint rows, and a failed row is left out, so a
    block whose rows all fail yields no part. A block holds as many rows
    as fit in _STACK_UNKNOWNS unknowns, a row counting its width (_widths),
    so memory stays bounded however many alphas come in; the rows whose
    start fails its window check (_start_rows) run the full-length loop at
    most _STACK_UNKNOWNS // m at a time. Each root is
    bit for bit newton_solve's once unfolded (_unfold), unless start is
    given: an (R, m) array of whole start halves, one per alpha, which the
    loop overwrites. Its rows skip _start_rows, run the full-length loop
    from there and come back whole, h = m. The alphas are not checked
    here: maximize_J, fit_alpha and sweep_J check each one where it enters.
    """
    alphas = list(alphas)
    m = (n + 1) // 2
    widths = [m] * len(alphas) if start is not None else _widths(n, alphas)
    step, first = max(1, _STACK_UNKNOWNS // m), 0
    while first < len(alphas):
        stop, total = first + 1, widths[first]
        while stop < len(alphas) and total + widths[stop] <= _STACK_UNKNOWNS:
            total, stop = total + widths[stop], stop + 1
        block = alphas[first:stop]
        if start is None:
            parts, rest, y = _start_rows(n, block, opts, widths[first:stop])
        else:
            parts, rest, y = [], np.arange(len(block)), start[first:stop]
        why = []
        for i in range(0, len(rest), step):
            why += _newton_block(n, [block[j] for j in rest[i : i + step].tolist()], opts, y[i : i + step])[1]
        ok = [k for k, reason in enumerate(why) if reason is None]
        if ok:
            parts.append((rest[ok], m, y[ok]) if len(ok) < len(y) else (rest, m, y))
        yield [(first + rows, h, W) for rows, h, W in parts]
        first = stop


def _solve_part(params, opts):
    """newton_solve's root as a part (h, W) of one row (newton_rows), or its ConvergenceError."""
    check_instance("params", params, ChainParams)
    check_instance("opts", opts, SolveOptions)
    n, alpha = params.n, params.alpha
    parts, _, y = _start_rows(n, [alpha], opts, _widths(n, [alpha]))
    if parts:
        return parts[0][1:]
    y, (why,) = _newton_block(n, [alpha], opts, y)
    if why is not None:
        (x,) = _unfold(y.shape[1], y, n)
        r = residual(params, x)
        raise ConvergenceError(f"newton_solve {why} (n={n}, alpha={alpha}, residual={r:.3e})", last=x, residual=r)
    return y.shape[1], y


def newton_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Newton's method on the mirror half of G(x) = x - F_alpha(x).

    The unknowns are y = x_1..x_m, m = ceil(n/2), with x_{n+1-i} = x_i.
    The residual and Jacobian bands come from padded_F and padded_bands on
    y padded with its mirror neighbour x_{m+1} (x_{m-1} for odd n, x_m for
    even n), whose derivative folds into the last row of the tridiagonal
    system. Each step is backtracked until ||G||_2^2 passes the Armijo
    test. The start is the ring root (_ring_start), spliced near the ends
    of a long chain (_start_rows); a spliced start that passes the window
    check there is written straight from its window into the returned
    chain (_unfold), with no full-length pass. The returned root keeps the
    start's layout: past alpha = 3/4 the components alternate high/low
    inward from both ends, with a central defect x_{n/2} = x_{n/2+1} for
    even n. Raises ConvergenceError (with the last iterate and residual)
    when the step cap is hit or the line search cannot reduce the merit.
    """
    (x,) = _unfold(*_solve_part(params, opts), params.n)
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
