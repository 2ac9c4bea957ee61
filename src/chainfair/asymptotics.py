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
    return ring_level(float(alpha))


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
# blocks whose wins a byte-wide count can hold: each adds at most 1 per cell
_MC_FOLD = 255


def circle_backoff_mc(n_pairs: int, trials: int, seed: int) -> np.ndarray:
    """Per-pair win frequency of the uniform-backoff game on a circle.

    Each trial draws independent uniforms u_i; pair i wins when u_i is
    strictly below both cyclic neighbors. Ties count as non-wins (they have
    probability zero anyway). Deterministic given the seed; the generator is
    numpy's PCG64. The trials stream through one fixed block of rows, so
    memory stays constant in trials, and the result does not depend on the
    block size: the uniforms are the stream of rng.random((trials, n_pairs)).

    A block is held flat, row after row, so each side's comparison is one
    contiguous pass of every entry against the next; that pass also
    compares a row's first entry with the previous row's last, so the wrap
    cells (each row's first on the left, last on the right) are then
    overwritten with the row's own cyclic comparison. Wins add per cell
    into a byte, folded into the total every _MC_FOLD blocks, before any
    byte can wrap, and once at the end.
    """
    check_count("n_pairs", n_pairs, least=3)
    check_count("trials", trials)
    check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    size = min(_MC_ROWS, trials) * n_pairs
    block = np.empty(size)
    below_left = np.empty(size, dtype=bool)
    below_right = np.empty(size, dtype=bool)
    count = np.zeros(size, dtype=np.uint8)
    wins = np.zeros(n_pairs, dtype=np.int64)
    for fold in range(0, trials, _MC_FOLD * _MC_ROWS):
        for done in range(fold, min(trials, fold + _MC_FOLD * _MC_ROWS), _MC_ROWS):
            size = min(_MC_ROWS, trials - done) * n_pairs
            u, left, right = block[:size], below_left[:size], below_right[:size]
            rng.random(out=u)
            np.less(u[1:], u[:-1], out=left[1:])
            np.less(u[:-1], u[1:], out=right[:-1])
            first, last = u[::n_pairs], u[n_pairs - 1 :: n_pairs]
            np.less(first, last, out=left[::n_pairs])
            np.less(last, first, out=right[n_pairs - 1 :: n_pairs])
            left &= right
            count[:size] += left.view(np.uint8)
        wins += count.reshape(-1, n_pairs).sum(axis=0, dtype=np.int64)
        count.fill(0)
    return wins / trials
