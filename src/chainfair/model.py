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
    """Refuse with DomainError a size, count or seed that is not an integer >= least."""
    if not isinstance(value, (int, np.integer)) or value < least:
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


def jacobian_F(params: ChainParams, x) -> np.ndarray:
    """Dense tridiagonal derivative of apply_F at x, zero on the diagonal."""
    x = _check_len(params, x)
    n = params.n
    jac = np.zeros((n, n))
    if n == 1:
        return jac
    sub, sup = jacobian_bands(params, x)
    idx = np.arange(n - 1)
    jac[idx + 1, idx] = sub
    jac[idx, idx + 1] = sup
    return jac


def entropy(x) -> float:
    """Shannon entropy E(x) = -sum x_i ln x_i with the 0 ln 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("entropy requires components in [0, 1]")
    pos = x > 0.0
    xs = x[pos]
    return float(-np.sum(xs * np.log(xs)))


def grad_entropy(x) -> np.ndarray:
    """Gradient of entropy, -(ln x_i + 1); undefined at x_i = 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x > 1.0):
        raise DomainError("grad_entropy requires components in (0, 1]")
    return -(np.log(x) + 1.0)


def closed_form_n3(alpha: float) -> np.ndarray:
    """Exact fixed point for n = 3.

    Eliminating x_2 from the symmetric system (x_1 = x_3) leaves a quadratic
    in x_1 whose admissible root is

        x_1 = (2a^2 - 1 + sqrt((1 - 2a^2)^2 - 4a^3(a - 1))) / (2a^2),

    and back-substitution gives x_2 = a (1 - x_1)^2.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    a = float(alpha)
    disc = (1.0 - 2.0 * a * a) ** 2 - 4.0 * a ** 3 * (a - 1.0)
    x1 = (2.0 * a * a - 1.0 + np.sqrt(disc)) / (2.0 * a * a)
    x2 = a * (1.0 - x1) ** 2
    return np.array([x1, x2, x1])


def closed_form_n4(alpha: float) -> np.ndarray:
    """Exact fixed point for n = 4.

    With x_1 = x_4 and x_2 = x_3 the system reduces to

        x_1 = (1 + a - sqrt((1 - a)(1 + 3a))) / (2a),
        x_2 = a (1 - x_1) / (1 + a (1 - x_1)).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    a = float(alpha)
    x1 = (1.0 + a - np.sqrt((1.0 - a) * (1.0 + 3.0 * a))) / (2.0 * a)
    t = a * (1.0 - x1)
    x2 = t / (1.0 + t)
    return np.array([x1, x2, x2, x1])
