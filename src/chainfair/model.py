"""Mean-field emission model of a chain of sender-receiver pairs.

Pairs are indexed 1..n along a line. Each pair transmits with probability
x_i, and a transmission is only possible while both neighbors stay quiet,
which couples the stationary emission probabilities through

    x_i = alpha * (1 - x_{i-1}) * (1 - x_{i+1}),

where alpha is the fraction of time a lone pair would occupy the channel.
The two virtual pairs 0 and n+1 beyond the ends never send (x = 0), so the
border rows lose one factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def check_count(name, value, least=1):
    """Refuse with DomainError a size, count or seed that is not an integer >= least.

    bool is refused although it subclasses int.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ChainParams:
    """Chain length and emission coefficient."""

    n: int
    alpha: float

    def __post_init__(self):
        check_count("n", self.n)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")


def _check_len(params, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) != params.n:
        raise DomainError(f"expected a length-{params.n} vector, got shape {x.shape}")
    return x


def padded_F(alpha, xp):
    """F_alpha on rows padded with one neighbour on each side.

    xp[..., j] holds x_{j-1}, so the pads are the border values (0 for the
    virtual pairs). alpha is a scalar or a column with one entry per row.
    """
    return alpha * (1.0 - xp[..., :-2]) * (1.0 - xp[..., 2:])


def padded_bands(alpha, xp):
    """Sub- and super-diagonal of F'_alpha on rows padded as for padded_F.

    Each has two entries fewer than a padded row: sub[..., i] is entry
    (i+1, i) and sup[..., i] is entry (i, i+1) of the padded chain's
    derivative, alpha*(x_k - 1) for the opposite neighbour k.
    """
    return alpha * (xp[..., 3:] - 1.0), alpha * (xp[..., :-3] - 1.0)


def _padded(x):
    return np.concatenate(([0.0], x, [0.0]))


def apply_F(params: ChainParams, x) -> np.ndarray:
    """One sweep of the successive-approximation map F_alpha.

    Returns y with y_i = alpha (1 - x_{i-1})(1 - x_{i+1}), border rows using
    the never-sending virtual pairs. Maps [0,1]^n into [0, alpha]^n.
    """
    return padded_F(params.alpha, _padded(_check_len(params, x)))


def jacobian_bands(params: ChainParams, x):
    """Sub- and super-diagonal of F'_alpha(x) (the diagonal is zero).

    sub[i] is entry (i+1, i) and sup[i] is entry (i, i+1), 0-based, each of
    length n-1. Both are alpha*(x_k - 1) for the opposite neighbor k.
    """
    return padded_bands(params.alpha, _padded(_check_len(params, x)))


def ring_level(alpha):
    """Root of c = alpha (1 - c)^2 in [0, 1): the flat level of the ring model.

    Written as the quotient 2a / (2a + 1 + sqrt(4a + 1)). The textbook form
    (2a + 1 - sqrt(4a + 1)) / (2a) cancels as alpha -> 0: it gives 1.11e-8
    at alpha = 1e-8 and 0 at alpha = 1e-12.
    """
    return 2.0 * alpha / (2.0 * alpha + 1.0 + np.sqrt(4.0 * alpha + 1.0))


def entropy(x) -> float:
    """Shannon entropy E(x) = -sum x_i ln x_i with the 0 ln 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise DomainError("entropy requires components in [0, 1]")
    pos = x > 0.0
    xs = x[pos]
    return float(-np.sum(xs * np.log(xs)))


def grad_entropy(x) -> np.ndarray:
    """Gradient of entropy, -(ln x_i + 1); undefined at x_i = 0."""
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 < x) & (x <= 1.0)):
        raise DomainError("grad_entropy requires components in (0, 1]")
    return -(np.log(x) + 1.0)
