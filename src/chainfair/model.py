"""Mean-field emission model of a chain of sender-receiver pairs.

Pairs are indexed 1..n along a line. Each pair transmits with probability
x_i, and a transmission is only possible while both neighbors stay quiet,
which couples the stationary emission probabilities through

    x_i = alpha * (1 - x_{i-1}) * (1 - x_{i+1}),

where alpha is the fraction of time a lone pair would occupy the channel.
The two virtual pairs 0 and n+1 beyond the ends never send (x = 0), so the
border rows lose one factor.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def check_count(name, value, least=1):
    """Refuse with DomainError a size, count or seed that is not an integer >= least.

    bool is refused although it subclasses int.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name, value):
    """Refuse with DomainError a value that is not a finite real number.

    A 0-d numpy array of integers or floats counts as its scalar. bool is
    refused although it subclasses int, and so is a numeric string.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0 and value.dtype.kind in "iuf":
        value = value[()]
    # a float (np.float64 too) skips the numbers.Real test, an abstract-class
    # check several times slower than the rest; this runs once per scan alpha
    real = isinstance(value, float) or (not isinstance(value, bool) and isinstance(value, numbers.Real))
    if not real or not math.isfinite(value):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")


def check_instance(name, value, cls):
    """Refuse with DomainError a value that is not an instance of cls, such as a config object."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def check_vector(name, x, n=None):
    """x as a 1-d float array, of length n when given, else DomainError.

    Strings, bools and Python objects (None among numbers, say) are refused
    by the array's dtype, without a loop over an ndarray's entries. numpy
    reads [True, 1.0] as float64, so a sequence that is not an ndarray also
    has its entries' types scanned for a bool.
    """
    try:
        a = np.asarray(x)
        if a.dtype.kind in "USOb":
            raise TypeError
        if a.ndim == 1 and not isinstance(x, np.ndarray) and {bool, np.bool_} & set(map(type, x)):
            raise TypeError
        x = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a vector of real numbers") from None
    if x.ndim != 1 or n is not None and len(x) != n:
        size = "" if n is None else f"length-{n} "
        raise DomainError(f"{name} must be a {size}vector, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ChainParams:
    """Chain length and emission coefficient."""

    n: int
    alpha: float

    def __post_init__(self):
        check_count("n", self.n)
        check_real("alpha", self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")


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
    check_instance("params", params, ChainParams)
    return padded_F(params.alpha, _padded(check_vector("x", x, params.n)))


def jacobian_bands(params: ChainParams, x):
    """Sub- and super-diagonal of F'_alpha(x) (the diagonal is zero).

    sub[i] is entry (i+1, i) and sup[i] is entry (i, i+1), 0-based, each of
    length n-1. Both are alpha*(x_k - 1) for the opposite neighbor k.
    """
    check_instance("params", params, ChainParams)
    return padded_bands(params.alpha, _padded(check_vector("x", x, params.n)))


def ring_level(alpha):
    """Root of c = alpha (1 - c)^2 in [0, 1): the flat level of the ring model.

    Written as the quotient 2a / (2a + 1 + sqrt(4a + 1)). The textbook form
    (2a + 1 - sqrt(4a + 1)) / (2a) cancels as alpha -> 0: it gives 1.11e-8
    at alpha = 1e-8 and 0 at alpha = 1e-12.
    """
    return 2.0 * alpha / (2.0 * alpha + 1.0 + np.sqrt(4.0 * alpha + 1.0))


def entropy_rows(X):
    """-sum x ln x along the last axis, unchecked: every entry must lie in (0, 1]."""
    return -np.sum(X * np.log(X), axis=-1)


def entropy(x) -> float:
    """Shannon entropy E(x) = -sum x_i ln x_i of a vector, with the 0 ln 0 = 0 convention."""
    x = check_vector("x", x)
    # min and max copy nothing and fail at a nan; an empty x has neither
    if len(x) and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise DomainError("entropy requires components in [0, 1]")
    # dropping zeros copies x, so only when there are any: same terms, same sum
    return float(entropy_rows(x if x.all() else x[x > 0.0]))


def grad_entropy_rows(X):
    """Gradient of entropy_rows, -(ln x + 1) entrywise, unchecked: every entry must lie in (0, 1]."""
    g = np.log(X)
    # -1 - ln x rounds as -(ln x + 1) does, one pass fewer
    return np.subtract(-1.0, g, out=g)
