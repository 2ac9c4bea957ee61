"""Slot-level simulation of the emission process and its exact stationary law.

The stationary model treats each pair's emission as a Bernoulli variable
gated by its neighbors, y_i = z_i (1 - y_{i-1})(1 - y_{i+1}). That relation
fixes no dynamics, so the simulator resamples one uniformly chosen site per
slot (with a synchronous random-order sweep available as a sensitivity
check). States are independent sets on the path: no two adjacent emitters.

Each update is a heat-bath step of the hard-core model, whose stationary
law has a product form (idealized CSMA); its marginals are exact at any n
in O(n), which quantifies the correlation error of the mean-field system.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import ChainParams, check_count
from .solver import SolveOptions, newton_solve

_POLICIES = ("random-single-site", "synchronous-random-order")
_BATCHES = 32


@dataclass(frozen=True)
class SimConfig:
    """Length, coefficient, horizon, and update discipline of one run."""

    n: int
    alpha: float
    steps: int
    burn_in: int | None = None
    seed: int = 0
    policy: str = "random-single-site"

    def __post_init__(self):
        check_count("n", self.n)
        check_count("steps", self.steps)
        check_count("seed", self.seed, least=0)
        if self.burn_in is not None:
            check_count("burn_in", self.burn_in, least=0)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.policy not in _POLICIES:
            raise DomainError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if not self.effective_burn_in < self.steps:
            raise DomainError(f"burn_in must lie in [0, steps), got {self.effective_burn_in!r}")

    @property
    def effective_burn_in(self) -> int:
        return self.steps // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class MarginalEstimate:
    """Time-averaged emission frequency per pair with batch-means errors."""

    x_hat: np.ndarray
    stderr: np.ndarray


def _draws(config, rng):
    """The run's draw stream, as draw(t0, t1) and the number of updates per slot.

    draw(t0, t1) returns, as lists in update order, the 1-based sites and
    the coins of the updates in slots [t0, t1).
    """
    n = config.n
    if config.policy == "random-single-site":
        sites = (rng.integers(0, n, size=config.steps) + 1).tolist()
        coins = (rng.random(config.steps) < config.alpha).tolist()
        return (lambda t0, t1: (sites[t0:t1], coins[t0:t1])), 1

    def sweeps(t0, t1):
        # per slot a fresh permutation, then n coins; shuffling a fresh copy
        # of 1..n consumes the stream exactly as rng.permutation(n) does
        perms = np.empty((t1 - t0, n), dtype=np.int64)
        perms[:] = np.arange(1, n + 1)
        u = np.empty((t1 - t0, n))
        for perm, row in zip(perms, u):
            rng.shuffle(perm)
            rng.random(out=row)
        return perms.ravel().tolist(), (u < config.alpha).ravel().tolist()

    return sweeps, n


def simulate(config: SimConfig) -> MarginalEstimate:
    """Run the slot process and time-average the occupancy after burn-in.

    Deterministic given the seed (numpy PCG64). The standard error comes
    from 32 batch means; the averaging window is the last
    32*floor((steps - burn_in)/32) slots so batches have equal length. Both
    policies run the same update loop, O(1) per site update, on a state
    padded with the two silent border pairs.
    """
    n, steps = config.n, config.steps
    # equal-length batches aligned to the end of the run; short runs get
    # fewer than 32 batches rather than batches shorter than one slot
    span = steps - config.effective_burn_in
    nbat = min(_BATCHES, span)
    blen = span // nbat
    start = steps - blen * nbat
    draw, per_slot = _draws(config, np.random.default_rng(config.seed))
    y = [False] * (n + 2)
    # each site is updated at most once per slot, so its on-time up to a
    # batch end is its closed stretches (acc) plus the open one from since
    since = [start] * (n + 2)
    acc = [0] * (n + 2)
    ontime = [[0] * n]
    # the batch ends, continued back over the burn-in in batch-length
    # segments, so that no segment draws more than one batch of updates
    edges = [0, *range(start % blen or blen, steps + 1, blen)]
    for t0, t1 in zip(edges, edges[1:]):
        sites, coins = draw(t0, t1)
        if t1 <= start:
            for i, c in zip(sites, coins):
                y[i] = c and not y[i - 1] and not y[i + 1]
            continue
        for k, i, c in zip(range(t0 * per_slot, t1 * per_slot), sites, coins):
            v = c and not y[i - 1] and not y[i + 1]
            if v is not y[i]:
                y[i] = v
                if v:
                    since[i] = k // per_slot
                else:
                    acc[i] += k // per_slot - since[i]
        ontime.append([acc[i] + (t1 - since[i] if y[i] else 0) for i in range(1, n + 1)])
    means = np.diff(ontime, axis=0) / blen
    x_hat = means.mean(axis=0)
    if nbat >= 2:
        stderr = means.std(axis=0, ddof=1) / np.sqrt(nbat)
    else:
        stderr = np.full(n, np.nan)
    return MarginalEstimate(x_hat=x_hat, stderr=stderr)


def exact_stationary(n: int, alpha: float) -> np.ndarray:
    """Exact per-site emission marginals of the single-site update chain.

    The update is heat-bath dynamics for the hard-core model with activity
    lam = alpha/(1 - alpha), so the stationary law is the product form
    pi(I) ~ lam^|I| over independent sets I of the path. Occupying site i
    splits the path into pieces of i - 1 and n - i sites, so the odds of
    site i are w_i = lam r_{i-1} r_{n-i} with r_k = Z_{k-1}/Z_k the ratio of
    the weighted independent-set counts of paths of k - 1 and k sites:
    r_0 = 1 and r_k = 1/(1 + lam r_{k-1}). The ratios stay in (0, 1] and
    the recursion contracts, so no Z_k (which overflows) is ever formed.
    O(n) time and memory at any n.
    """
    p = ChainParams(n, alpha)
    lam = p.alpha / (1.0 - p.alpha)
    r = np.empty(p.n)
    rk = 1.0
    for k in range(p.n):
        r[k] = rk
        rk = 1.0 / (1.0 + lam * rk)
    # product of the two ratios first, so the odds are exactly mirror symmetric
    w = lam * (r * r[::-1])
    return w / (1.0 + w)


def meanfield_gap(n: int, alpha: float) -> float:
    """Sup-norm distance between the exact marginals and the solved chain.

    This is the price of neglecting neighbor correlations; it is reported,
    not bounded, since no ground truth for it exists beyond the oracle.
    """
    exact = exact_stationary(n, alpha)
    x = newton_solve(ChainParams(n, alpha), SolveOptions())
    return float(np.max(np.abs(exact - x)))
