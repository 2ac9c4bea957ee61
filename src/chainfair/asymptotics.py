"""Large-n behavior: the borderless ring model, the flat central region,
and the uniform-backoff circle experiment.

On a circle every pair sees the same environment, so the chain system
collapses to the scalar equation x = alpha (1 - x)^2. At alpha = 3/4 the
solution is exactly 1/3, which is also the win probability of a pair whose
backoff beats both neighbors, hence the 1/3 plateau of long chains.
"""

import numpy as np

from .errors import DomainError
from .fairness import maximize_J
from .model import ChainParams, check_count, check_real, ring_level
from .solver import newton_solve


def ring_fixed_point(alpha: float) -> float:
    """Root of x = alpha (1 - x)^2 in [0, 1).

    The quadratic has two roots; the minus branch is the physical one, the
    plus branch exceeds 1. It is model.ring_level, the flat level the
    solver starts from.
    """
    check_real("alpha", alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return float(ring_level(alpha))


def flat_value(n: int) -> tuple[float, float]:
    """Optimal alpha and the central emission probability at that alpha.

    Central means the 1-based index ceil(n/2); for n >= 100 the middle half
    of the chain is flat to within about 1e-3, so the exact index choice is
    immaterial.
    """
    check_count("n", n, least=3)
    alpha_hat = maximize_J(n).alpha_hat
    x = newton_solve(ChainParams(n, alpha_hat))
    central = float(x[(n + 1) // 2 - 1])
    return alpha_hat, central


# rows per block: 2000 x 101 doubles is 1.6 MB, inside a per-core L2 cache
_MC_ROWS = 2000


def circle_backoff_mc(n_pairs: int, trials: int, seed: int) -> np.ndarray:
    """Per-pair win frequency of the uniform-backoff game on a circle.

    Each trial draws independent uniforms u_i; pair i wins when u_i is
    strictly below both cyclic neighbors. Ties count as non-wins (they have
    probability zero anyway). Deterministic given the seed; the generator is
    numpy's PCG64. The trials stream through one fixed block of rows, so
    memory stays constant in trials, and the result does not depend on the
    block size: the uniforms are the stream of rng.random((trials, n_pairs)).
    """
    check_count("n_pairs", n_pairs, least=3)
    check_count("trials", trials)
    check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    m = min(_MC_ROWS, trials)
    block = np.empty((m, n_pairs))
    below_left = np.empty((m, n_pairs), dtype=bool)
    below_right = np.empty((m, n_pairs), dtype=bool)
    wins = np.zeros(n_pairs, dtype=np.int64)
    for done in range(0, trials, _MC_ROWS):
        m = min(_MC_ROWS, trials - done)
        u, left, right = block[:m], below_left[:m], below_right[:m]
        rng.random(out=u)
        np.less(u[:, 1:], u[:, :-1], out=left[:, 1:])
        np.less(u[:, :1], u[:, -1:], out=left[:, :1])
        np.less(u[:, :-1], u[:, 1:], out=right[:, :-1])
        np.less(u[:, -1:], u[:, :1], out=right[:, -1:])
        left &= right
        wins += left.sum(axis=0)
    return wins / trials
