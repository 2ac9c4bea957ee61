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
chain spliced into the ring pattern (_start_rows). tangent_rows gives
dx/dalpha at such roots.
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
    check_real,
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
    return float(np.max(np.abs(np.asarray(x, float) - apply_F(params, x))))


def fixed_point_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Successive approximation x <- F_alpha(x) until the sweep moves less than tol.

    Raises ConvergenceError (carrying the last iterate and residual) when the
    cap is hit; this genuinely happens at large alpha where the synchronous
    dynamics settle on a period-2 orbit instead of the fixed point.
    """
    cap = opts.max_iter if opts.max_iter is not None else _FP_MAX_ITER
    x = np.ones(params.n)
    for _ in range(cap):
        y = apply_F(params, x)
        if np.max(np.abs(y - x)) <= opts.tol:
            return y
        x = y
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {cap} sweeps "
        f"(n={params.n}, alpha={params.alpha}, residual={residual(params, x):.3e})",
        last=x,
        residual=residual(params, x),
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


def _merit(alpha, y, k):
    """Padded half-chain rows, G = y - F(y) and ||G||_2^2 per row.

    Each row of y is padded with the border 0 on the left and, on the
    right, its mirror neighbour x_{m+1} = y[k] and the border 0 beyond it
    (k = -1: the chain ends at x_m, whose right neighbour is the border).
    """
    r, m = y.shape
    z = np.zeros((r, m + 3))
    z[:, 1:-2] = y
    if k >= 0:
        z[:, -2] = y[:, k]
    g = y - padded_F(alpha, z)[:, :m]
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


def tangent_rows(n, alphas, X):
    """dx/dalpha at each row of X, the chain's root for alphas[i].

    F_alpha is linear in alpha, so differentiating x = F_alpha(x) gives
    (I - F'(x)) t = F_alpha(x)/alpha, which _newton_step solves on the
    whole chain (k = -1). The derivative in alpha of any objective of the
    root is its gradient in x dotted with t. A row whose system is
    singular comes back nan.

    t is returned as its mirror average, which the true tangent equals:
    on an even chain past alpha = 3/4, I - F' has a near-null
    antisymmetric mode (sigma_min down to 1e-16), and the solve's error
    along it reaches O(1). A solve on the folded half would remove the
    mode too, but needs each gradient folded onto the half and, at
    n = 10^6, a workspace reused across calls so that its half-size
    arrays do not page-fault afresh; the average needs neither.
    """
    a = np.asarray(alphas, dtype=float)[:, None]
    z = np.zeros((len(X), n + 3))
    z[:, 1:-2] = X
    t = _newton_step(a, z, padded_F(a, z)[:, :n] / a, -1)[0]
    # in place, half against mirror half: no temporary of the chain's size
    left, right = t[:, : n // 2], t[:, ::-1][:, : n // 2]
    left += right
    left *= 0.5
    right[...] = left
    return t


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
    a = np.array(alphas, dtype=float)[:, None]
    # rows leave into the start halves, which the loop no longer needs
    out = y
    why = [None] * len(alphas)
    live = np.arange(len(alphas))
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


def _start_rows(n, alphas, opts):
    """Newton start halves: the ring pattern, spliced near the ends of a long chain.

    Away from its ends a long chain sits on the ring pattern, up to border
    layers that decay like e^{-kappa i}. So for n >= 8 L(alpha)
    (_splice_len) the loop first runs on a chain of n' = L(alpha) + n % 4
    pairs only; the rows of one L share one stacked short _newton_block,
    so each row gets the arithmetic of its own solve. n' has the parity of
    n, so an even chain keeps its central defect, and its half
    m' = ceil(n'/2) the parity of m = ceil(n/2), so the alternating pattern
    meets the mirror in the same phase. The first half of each short root's
    mirror half goes at the head of the long half, its second half at the
    mirror end, and the ring pattern of _ring_rows fills the sites between.
    A short solve that fails still leaves its last iterate there: the
    full-length loop decides. Below 8 _SPLICE_MIN pairs nothing is computed.
    """
    m = (n + 1) // 2
    y = _ring_rows(alphas, m)
    if n < 8 * _SPLICE_MIN:
        return y
    groups = {}
    for i, a in enumerate(alphas):
        length = _splice_len(a)
        if n >= 8 * length:
            groups.setdefault(length, []).append(i)
    for length, rows in groups.items():
        ns = length + n % 4
        picked = [alphas[i] for i in rows]
        short, _ = _newton_block(ns, picked, opts, _ring_rows(picked, (ns + 1) // 2))
        head = short.shape[1] // 2
        y[rows, :head] = short[:, :head]
        y[rows, m - short.shape[1] + head :] = short[:, head:]
    return y


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
    many alphas come in. Each block's rows start from _start_rows.
    """
    alphas = list(alphas)
    for a in alphas:
        ChainParams(n, a)
    per_block = max(1, _STACK_UNKNOWNS // ((n + 1) // 2))
    for start in range(0, len(alphas), per_block):
        block = alphas[start : start + per_block]
        y, why = _newton_block(n, block, opts, _start_rows(n, block, opts))
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
    of a long chain (_start_rows), and the returned root keeps its layout:
    past alpha = 3/4 the components alternate high/low inward from both
    ends, with a central defect x_{n/2} = x_{n/2+1} for even n. Raises
    ConvergenceError (with the last iterate and residual) when the step
    cap is hit or the line search cannot reduce the merit.
    """
    n, alpha = params.n, params.alpha
    y, (why,) = _newton_block(n, [alpha], opts, _start_rows(n, [alpha], opts))
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
    x = np.asarray(x, dtype=float)
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
