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
systems are stacked into one LAPACK gtsv call per step, and newton_solve
is newton_rows on one row. On chains of 2^16 pairs or more the loop
starts from a short chain's root with the same n mod 4, spliced into the
ring pattern; where that start already passes the tolerance the loop
returns it without a step.
"""

from dataclasses import dataclass

import numpy as np
# solve_banded is not called here; the benchmark's tracer wraps this binding
from scipy.linalg import get_lapack_funcs, solve_banded  # noqa: F401

from .errors import ConvergenceError, DomainError
from .model import (
    ChainParams,
    apply_F,
    check_count,
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
# Length of the short chain whose root starts chains at least 8 times as
# long (see _start_rows). At alpha = 0.6826, 0.8 and 0.95 fewer than 130 sites
# of a root differ from the ring pattern by more than 1e-14, all next to an
# end or the centre; the splice takes the 2^11 sites next to each from the
# short chain's root.
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
    block), so each row gets the arithmetic of its own solve. A singular
    block is located from gtsv's info and the other rows are solved again
    without it. Returns x, with nan rows for the singular blocks, and the
    boolean mask of those rows.
    """
    r, m = d.shape
    bad = np.zeros(r, dtype=bool)
    rows = np.arange(r)
    while len(rows):
        pick = slice(None) if len(rows) == r else rows
        lo, di, up, rhs = (a[pick].ravel() for a in (dl, d, du, b))
        # gtsv wants at least one off-diagonal entry, even for a 1 x 1 system
        size = max(len(di) - 1, 1)
        *_, x, info = _gtsv(lo[:size], di, up[:size], rhs)
        if info == 0:
            if len(rows) == r:
                return x.reshape(r, m), bad
            break
        j = (info - 1) // m
        bad[rows[j]] = True
        rows = np.delete(rows, j)
    out = np.full((r, m), np.nan)
    if len(rows):
        out[rows] = x.reshape(-1, m)
    return out, bad


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


def _newton_step(alpha, z, g, n):
    """Newton direction on every row: (I - F'(y)) delta = G, folded at the mirror."""
    r, m = g.shape
    k = m - 1 - n % 2
    sub, sup = padded_bands(alpha, z)
    dl, d, du = np.zeros((3, r, m))
    d[:] = 1.0
    np.negative(sub[:, :-1], out=dl[:, :-1])
    np.negative(sup[:, :-1], out=du[:, :-1])
    if k >= 0:
        # dF_m/dx_{m+1} lands on the diagonal (even n) or sub-diagonal
        (dl if n % 2 else d)[:, k] -= sup[:, -1]
    # free the bands before gtsv copies the system: a block's peak memory
    del sub, sup
    return solve_tridiagonal_rows(dl, d, du, g)


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
        delta, singular = _newton_step(a, z, g, n)
        if singular.any():
            leave(singular, "hit a singular Jacobian")
            delta = delta[~singular]
        y, z, g, phi, stalled = _line_search(a, y, z, g, phi, delta, k)
        if stalled.any():
            leave(stalled, "line search failed")
    return out, why


def _start_rows(n, alphas, opts):
    """Newton start halves: the ring pattern, spliced near the ends of a long chain.

    Away from its ends a long chain sits on the ring pattern, so for
    n >= 8 _SPLICE_LEN the loop first runs on a chain of
    n' = _SPLICE_LEN + n % 4 pairs only. n' has the parity of n, so an even
    chain keeps its central defect, and its half m' = ceil(n'/2) the parity
    of m = ceil(n/2), so the alternating pattern meets the mirror in the
    same phase. The first half of each short root's mirror half goes at the
    head of the long half, its second half at the mirror end, and the ring
    pattern of _ring_rows fills the sites between. A short solve that fails
    still leaves its last iterate there: the full-length loop decides.
    """
    m = (n + 1) // 2
    y = _ring_rows(alphas, m)
    if n >= 8 * _SPLICE_LEN:
        ns = _SPLICE_LEN + n % 4
        short, _ = _newton_block(ns, alphas, opts, _ring_rows(alphas, (ns + 1) // 2))
        head = short.shape[1] // 2
        y[:, :head] = short[:, :head]
        y[:, m - short.shape[1] + head :] = short[:, head:]
    return y


def _unfold(y, n):
    """Whole chains from their mirror halves: x_{n+1-i} = x_i."""
    m = y.shape[1]
    x = np.empty((len(y), n))
    x[:, :m] = y
    x[:, m:] = y[:, : n - m][:, ::-1]
    return x


def _solve_block(n, alphas, opts):
    y, why = _newton_block(n, alphas, opts, _start_rows(n, alphas, opts))
    x = _unfold(y, n)
    errors = {}
    for i, reason in enumerate(why):
        if reason is not None:
            r = residual(ChainParams(n, alphas[i]), x[i])
            errors[i] = ConvergenceError(
                f"newton_solve {reason} (n={n}, alpha={alphas[i]}, residual={r:.3e})",
                last=x[i],
                residual=r,
            )
    return x, errors


def newton_rows(n: int, alphas, opts: SolveOptions = SolveOptions()):
    """newton_solve for every alpha of a scan, solved a block of rows at a time.

    Yields (X, errors) for consecutive blocks of alphas, in input order.
    X[i] is the root for the block's i-th alpha, bit for bit what
    newton_solve returns for it; errors maps i to the ConvergenceError
    newton_solve would raise instead (X[i] then holds its last iterate).
    A block holds as many rows as fit in _STACK_UNKNOWNS half-chain
    unknowns, so memory stays bounded however many alphas come in.

    Chains of at least 8 _SPLICE_LEN pairs start from a splice
    (_start_rows): the Newton loop runs on a short chain with the same
    n mod 4, and its root is placed at the ends of the ring pattern. The
    full-length loop then runs from there as from any start, and takes no
    step on a row whose spliced half already passes max |G| <= tol.
    """
    alphas = list(alphas)
    for a in alphas:
        ChainParams(n, a)
    per_block = max(1, _STACK_UNKNOWNS // ((n + 1) // 2))
    for start in range(0, len(alphas), per_block):
        yield _solve_block(n, alphas[start : start + per_block], opts)


def newton_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Newton's method on the mirror half of G(x) = x - F_alpha(x).

    The unknowns are y = x_1..x_m, m = ceil(n/2), with x_{n+1-i} = x_i.
    The residual and Jacobian bands come from padded_F and padded_bands on
    y padded with its mirror neighbour x_{m+1} (x_{m-1} for odd n, x_m for
    even n), whose derivative folds into the last row of the tridiagonal
    system. Each step is backtracked until ||G||_2^2 passes the Armijo
    test. The start is the ring root (_ring_start), and the returned root
    keeps its layout: past alpha = 3/4 the components alternate high/low
    inward from both ends, with a central defect x_{n/2} = x_{n/2+1} for
    even n. Raises ConvergenceError (with the last iterate and residual)
    when the step cap is hit or the line search cannot reduce the merit.
    This is newton_rows on one row, so a chain of 2^16 pairs or more
    starts instead from the root of a short chain of 2^13 + n % 4 pairs
    spliced into the ring pattern, and the loop returns that start
    unchanged when every site of it already meets tol.
    """
    (x, errors), = newton_rows(params.n, [params.alpha], opts)
    if errors:
        raise errors[0]
    return x[0]


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
