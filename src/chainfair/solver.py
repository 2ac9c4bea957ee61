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
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConvergenceError, DomainError
from .model import ChainParams, apply_F, jacobian_bands

_FP_MAX_ITER = 10 ** 6
_NEWTON_MAX_ITER = 100


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
        if self.max_iter is not None and self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")


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


def _ring_start(alpha, m):
    """Half-chain start from the borderless (ring) model, ends high.

    Up to alpha = 3/4 the ring settles on the flat level c(alpha), the root
    of c = alpha (1 - c)^2 in [0, 1]. Past it the ring alternates between
    hi >= lo with hi + lo = 2 - 1/alpha and hi lo = ((1 - alpha)/alpha)^2.
    Both levels equal c = 1/3 at alpha = 3/4, so this is one start rule.
    The small roots are taken as quotients: the differences of the
    quadratic formula cancel as alpha -> 0 and alpha -> 1.
    """
    if alpha <= 0.75:
        hi = lo = 2.0 * alpha / (2.0 * alpha + 1.0 + np.sqrt(4.0 * alpha + 1.0))
    else:
        hi = (2.0 - 1.0 / alpha + np.sqrt(4.0 * alpha - 3.0) / alpha) / 2.0
        lo = ((1.0 - alpha) / alpha) ** 2 / hi
    y = np.empty(m)
    y[0::2] = hi
    y[1::2] = lo
    return y


def newton_solve(params: ChainParams, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Newton's method on the mirror half of G(x) = x - F_alpha(x).

    The unknowns are y = x_1..x_m, m = ceil(n/2), with x_{n+1-i} = x_i.
    Residual and Jacobian bands come from apply_F and jacobian_bands on y
    padded with its mirror neighbour x_{m+1} (x_{m-1} for odd n, x_m for
    even n), whose derivative folds into the last row of the banded system.
    Each step is backtracked until ||G||_2^2 passes the Armijo test. The
    start is the ring root (_ring_start), and the returned root keeps its
    layout: past alpha = 3/4 the components alternate high/low inward from
    both ends, with a central defect x_{n/2} = x_{n/2+1} for even n.
    Raises ConvergenceError (with the last iterate and residual) when the
    step cap is hit or the line search cannot reduce the merit.
    """
    cap = opts.max_iter if opts.max_iter is not None else _NEWTON_MAX_ITER
    n = params.n
    m = (n + 1) // 2
    # 0-based index in y of the mirror neighbour x_{m+1}; -1 is the border
    k = m - 1 - n % 2
    half = ChainParams(m + 1, params.alpha)

    def merit(y):
        z = np.append(y, y[k] if k >= 0 else 0.0)
        g = y - apply_F(half, z)[:m]
        return z, g, float(g @ g)

    def mirrored(y):
        return np.concatenate((y, y[: k + 1][::-1]))

    def failure(why, y):
        x = mirrored(y)
        r = residual(params, x)
        return ConvergenceError(
            f"newton_solve {why} (n={n}, alpha={params.alpha}, residual={r:.3e})",
            last=x,
            residual=r,
        )

    y = _ring_start(params.alpha, m)
    z, g, phi = merit(y)
    steps = 0
    while np.max(np.abs(g)) > opts.tol:
        if steps == cap:
            raise failure(f"did not converge in {cap} steps", y)
        steps += 1
        sub, sup = jacobian_bands(half, z)
        ab = np.zeros((3, m))
        ab[0, 1:] = -sup[:-1]
        ab[1, :] = 1.0
        ab[2, :-1] = -sub[:-1]
        if k >= 0:
            # dF_m/dx_{m+1} lands on the diagonal (even n) or sub-diagonal
            ab[1 + n % 2, k] -= sup[-1]
        try:
            delta = solve_banded((1, 1), ab, g)
        except (ValueError, np.linalg.LinAlgError):
            raise failure("hit a singular Jacobian", y) from None
        t = 1.0
        while True:
            yt = y - t * delta
            zt, gt, phit = merit(yt)
            # Armijo on phi = ||G||^2: the Newton slope is -2 phi
            if phit <= (1.0 - 2e-4 * t) * phi:
                break
            t /= 2.0
            if t < 2.0 ** -30:
                raise failure("line search failed", y)
        y, z, g, phi = yt, zt, gt, phit
    return mirrored(y)


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
