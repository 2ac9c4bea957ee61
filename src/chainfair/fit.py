"""Least-squares calibration of alpha against measured throughput traces.

Per-pair throughputs r_i are proportional to emission probabilities, so the
pair-1-normalized ratios satisfy r_i/r_1 = x_i(alpha)/x_1(alpha) and alpha
can be fitted without knowing the proportionality constant.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ChainFairError, DomainError, FitError
from .fairness import _golden_min
from .model import ChainParams
from .solver import newton_rows, newton_solve

_SCAN_POINTS = 33


@dataclass(frozen=True)
class ThroughputTrace:
    """Measured per-pair rates, any consistent unit."""

    rates: np.ndarray
    label: str = ""

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        if rates.ndim != 1 or len(rates) < 2:
            raise DomainError("a trace needs at least two pairs")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
            raise DomainError("rates must be finite and nonnegative")
        if not rates[0] > 0.0:
            raise DomainError("the first pair's rate anchors the normalization and must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficient with its residual diagnostics."""

    alpha_fit: float
    sse: float
    residuals: np.ndarray


def normalize(trace: ThroughputTrace) -> np.ndarray:
    """Normalized ratios rho_i = r_i / r_1."""
    return trace.rates / trace.rates[0]


def model_ratios(alpha, n: int) -> np.ndarray:
    """Solved chain normalized by its first component, x(alpha)/x_1(alpha).

    Given an array of alphas, returns one row per alpha, solved as one
    batch, with nan rows where the solve fails.
    """
    if np.ndim(alpha) == 0:
        x = newton_solve(ChainParams(n, alpha))
        return x / x[0]
    rows = []
    for X, errors in newton_rows(n, alpha):
        X = X / X[:, :1]
        X[list(errors)] = np.nan
        rows.append(X)
    return np.concatenate(rows) if rows else np.empty((0, n))


def fit_alpha(trace: ThroughputTrace, bounds: tuple[float, float] = (0.05, 0.99)) -> FitResult:
    """Least-squares alpha for the trace's normalized shape.

    Scans a coarse grid over bounds, solved as one batch, to bracket the
    minimum of sum_i (x_i(alpha)/x_1(alpha) - rho_i)^2, then golden-sections
    the bracket down to a width of 1e-4. Alphas where the solve fails are
    skipped with an infinite objective; if every alpha fails, FitError.
    """
    lo, hi = bounds
    if not 0.0 < lo < hi < 1.0:
        raise DomainError(f"bounds must satisfy 0 < lo < hi < 1, got {bounds!r}")
    rho = normalize(trace)
    n = len(rho)

    def sse(m):
        s = float(np.sum((m - rho) ** 2))
        return s if s == s else float("inf")

    def sse_at(a):
        try:
            return sse(model_ratios(a, n))
        except ChainFairError:
            return float("inf")

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    try:
        vals = [sse(m) for m in model_ratios(grid, n)]
    except ChainFairError:
        vals = [float("inf")] * len(grid)
    if not np.isfinite(vals).any():
        raise FitError("model evaluation failed across the whole alpha grid")
    i = int(np.argmin(vals))
    b_lo = float(grid[max(0, i - 1)])
    b_hi = float(grid[min(len(grid) - 1, i + 1)])
    b_lo, b_hi, _ = _golden_min(sse_at, b_lo, b_hi, 1e-4)
    alpha_fit = 0.5 * (b_lo + b_hi)
    resid = model_ratios(alpha_fit, n) - rho
    return FitResult(alpha_fit=alpha_fit, sse=float(np.sum(resid ** 2)), residuals=resid)


def compare_normalized(trace: ThroughputTrace, alpha: float) -> list[tuple[int, float, float, float]]:
    """Rows of (pair, observed_rho, model_rho, residual) for one alpha."""
    rho = normalize(trace)
    m = model_ratios(alpha, len(rho))
    return [
        (i + 1, float(rho[i]), float(m[i]), float(m[i] - rho[i]))
        for i in range(len(rho))
    ]


def read_trace_csv(path, label: str = "") -> ThroughputTrace:
    """Read a trace from CSV with header 'pair,rate', pairs listed in order."""
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
    return ThroughputTrace(rates=np.array([r[1] for r in rows]), label=label or str(path))


def write_trace_csv(path, trace: ThroughputTrace):
    """Write a trace in the same 'pair,rate' format read_trace_csv expects."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "rate"])
        for i, r in enumerate(trace.rates, start=1):
            writer.writerow([i, repr(float(r))])
