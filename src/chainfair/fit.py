"""Least-squares calibration of alpha against measured throughput traces.

Per-pair throughputs r_i are proportional to emission probabilities, so
alpha is fitted to the ratios r_i/r_1 = x_i(alpha)/x_1(alpha) without the
proportionality constant; compare_normalized lists both sides for one alpha.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .fairness import _search
from .model import ChainParams, check_instance, check_real, check_vector
from .solver import _STACK_UNKNOWNS, _unfold, newton_solve, tangent_rows

_SCAN_POINTS = 33


@dataclass(frozen=True)
class ThroughputTrace:
    """Measured per-pair rates, any consistent unit."""

    rates: np.ndarray

    def __post_init__(self):
        rates = check_vector("rates", self.rates)
        object.__setattr__(self, "rates", rates)
        if len(rates) < 2:
            raise DomainError("a trace needs at least two pairs")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
            raise DomainError("rates must be finite and nonnegative")
        if not rates[0] > 0.0:
            raise DomainError("the first pair's rate anchors the normalization and must be positive")
        # every ratio to the first rate is finite when the largest one is
        with np.errstate(over="ignore"):
            if not np.isfinite(np.max(rates) / rates[0]):
                raise DomainError("the trace's ratios to the first pair's rate overflow")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficient with its residual diagnostics."""

    alpha_fit: float
    sse: float
    residuals: np.ndarray


def _sse_slopes(n, alphas, parts, rho):
    """d/dalpha of sum_i (x_i/x_1 - rho_i)^2 at each alpha, from the roots of parts.

    The gradient in x is 2 r_i / x_1 with r = x/x_1 - rho, except entry 1,
    -2 sum_i r_i x_i / x_1^2 (r_1 = 0); dotted with the tangent dx/dalpha
    of solver.tangent_rows it gives the derivative in alpha. The gradient
    is not mirror symmetric, so each tangent part's roots and tangents are
    unfolded to whole chains (solver._unfold). A row whose tangent system
    is singular is nan.
    """
    s = np.empty(len(alphas))
    for rows, h, W, T in tangent_rows(n, alphas, parts):
        X = _unfold(h, W, n)
        x1 = X[:, :1]
        r = X / x1 - rho
        grad = 2.0 * r / x1
        grad[:, 0] = -2.0 * np.sum(r * X, axis=1) / x1[:, 0] ** 2
        s[rows] = np.einsum("ij,ij->i", grad, _unfold(h, T, n))
    return s


def fit_alpha(trace: ThroughputTrace, bounds: tuple[float, float] = (0.05, 0.99)) -> FitResult:
    """Least-squares alpha for the trace's normalized shape.

    fairness._search maximizes -SSE(alpha), SSE(alpha) = sum_i
    (x_i(alpha)/x_1(alpha) - rho_i)^2: it scans 33 alphas over bounds as
    one batch, takes SSE' at the best of them and its solved neighbours,
    and _refine closes the grid step where SSE' changes sign to a width of
    1e-4; alpha_fit is the final end with the smaller |SSE'|, and the
    residuals come from its root. With no such step (the minimum sits at
    a bound) the best grid point is returned. Alphas whose solve fails or
    whose SSE is not finite are left out, and a refinement solve that
    fails stops the search; if every grid alpha fails, FitError. A trace
    whose ratios rho_i square to an infinite sum is refused with
    DomainError before any solve, since its SSE overflows at every alpha,
    and so is a trace of two pairs: their root has x_1 = x_2 at every
    alpha, so its SSE does not depend on alpha.
    """
    check_instance("trace", trace, ThroughputTrace)
    if len(trace.rates) == 2:
        raise DomainError("a two-pair trace cannot be fitted: x_1 = x_2 at every alpha")
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise DomainError(f"bounds must be a pair (lo, hi), got {bounds!r}") from None
    check_real("bounds[0]", lo)
    check_real("bounds[1]", hi)
    if not 0.0 < lo < hi < 1.0:
        raise DomainError(f"bounds must satisfy 0 < lo < hi < 1, got {bounds!r}")
    with np.errstate(over="ignore"):
        rho = trace.rates / trace.rates[0]
        if not np.isfinite(rho @ rho):
            raise DomainError("the trace's ratios to the first pair's rate are too large to square")
    n = len(rho)

    def value(alphas, h, W):
        # a part of windows can hold many rows: unfold them a few at a time
        step = max(1, _STACK_UNKNOWNS // n)
        if len(W) > step:
            return np.concatenate([value(alphas, h, W[i : i + step]) for i in range(0, len(W), step)])
        X = _unfold(h, W, n)
        return -np.sum((X / X[:, :1] - rho) ** 2, axis=1)

    found = _search(
        n,
        np.linspace(lo, hi, _SCAN_POINTS),
        value,
        lambda alphas, parts: -_sse_slopes(n, alphas, parts, rho),
        1e-4,
    )
    if found is None:
        raise FitError("model evaluation failed across the whole alpha grid")
    alpha_fit, _, (h, w), *_ = found
    (x,) = _unfold(h, w[None], n)
    resid = x / x[0] - rho
    return FitResult(alpha_fit=alpha_fit, sse=float(np.sum(resid ** 2)), residuals=resid)


def compare_normalized(trace: ThroughputTrace, alpha: float) -> list[tuple[int, float, float, float]]:
    """Rows of (pair, r_i/r_1, x_i(alpha)/x_1(alpha), residual) for one alpha."""
    check_instance("trace", trace, ThroughputTrace)
    rho = trace.rates / trace.rates[0]
    x = newton_solve(ChainParams(len(rho), alpha))
    m = x / x[0]
    return [
        (i + 1, float(rho[i]), float(m[i]), float(m[i] - rho[i]))
        for i in range(len(rho))
    ]


def read_trace_csv(path) -> ThroughputTrace:
    """Read a trace from CSV with header 'pair,rate', pairs listed in order.

    path must be a str or os.PathLike, else DomainError: open() would take
    an int (a bool too) as a file descriptor and close it, stdout for True.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["pair", "rate"]:
            raise DomainError(f"{path}: expected header 'pair,rate'")
        try:
            rows = [(int(r[0]), float(r[1])) for r in reader if r]
        except (IndexError, ValueError):
            raise DomainError(f"{path}, line {reader.line_num}: expected an int and a float") from None
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise DomainError(f"{path}: pairs must be exactly 1..n")
    return ThroughputTrace(rates=np.array([r[1] for r in rows]))

