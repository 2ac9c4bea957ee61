"""Reference implementations the tests compare the package against.

No library code needs these: the dense Jacobian checks the banded one and
the tangent, the n = 3 and n = 4 closed forms check the solvers, and the
ring model's inverse checks ring_fixed_point.
"""

import numpy as np

from chainfair import ChainParams, DomainError, jacobian_bands


def jacobian_F(params: ChainParams, x) -> np.ndarray:
    """Dense tridiagonal derivative of apply_F at x, zero on the diagonal."""
    n = params.n
    jac = np.zeros((n, n))
    sub, sup = jacobian_bands(params, x)
    if n == 1:
        return jac
    idx = np.arange(n - 1)
    jac[idx + 1, idx] = sub
    jac[idx, idx + 1] = sup
    return jac


def alpha_for_ring_prob(x: float) -> float:
    """Inverse of the ring model's root: the alpha at which x = alpha (1 - x)^2."""
    return x / (1.0 - x) ** 2


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def closed_form_n3(alpha: float) -> np.ndarray:
    """Exact fixed point for n = 3.

    Eliminating x_2 from the symmetric system (x_1 = x_3) leaves a quadratic
    in x_1 whose admissible root is

        x_1 = (2a^2 - 1 + sqrt((1 - 2a^2)^2 - 4a^3(a - 1))) / (2a^2),

    and back-substitution gives x_2 = a (1 - x_1)^2.
    """
    a = _check_alpha(alpha)
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
    a = _check_alpha(alpha)
    x1 = (1.0 + a - np.sqrt((1.0 - a) * (1.0 + 3.0 * a))) / (2.0 * a)
    t = a * (1.0 - x1)
    x2 = t / (1.0 + t)
    return np.array([x1, x2, x2, x1])
