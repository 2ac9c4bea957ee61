#!/usr/bin/env python3
"""Write every figure and table under out/ from the library: python3 scripts/figures.py

- sweep_n{3,10,50}: J(alpha) curves for a few chain lengths.
- optimal_alpha: the optimal alpha against chain length, approaching the
  ring value 0.75.
- profile_n100: emission probabilities of the n=100 chain at its optimal
  alpha; shows the boundary oscillation and the flat central area near 1/3.
- comparison_three_pairs: alpha fitted to the measured three-pair trace,
  where the middle pair is starved (1.55, 0.04, 1.55 Mbit/s); the fitted
  chain reproduces its normalized shape.
- meanfield_gap: the model drops the correlation between a pair's two
  neighbors; the table gives what that costs at small n (2 to 8) against
  the exact product-form marginals of the single-site chain.

Every CSV is written by the CLI's writer, so floats keep their repr.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chainfair import (
    ChainParams,
    ThroughputTrace,
    compare_normalized,
    fit_alpha,
    maximize_J,
    meanfield_gap,
    newton_solve,
    optimal_alpha_curve,
    sweep_J,
)
from chainfair.cli import _csv
from chainfair.svg import bar_chart, line_chart

OUT = os.path.join(os.path.dirname(__file__), "..", "out")
GRID = [0.01 + 0.01 * k for k in range(98)]
SWEEP_NS = (3, 10, 50)
NS = [3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 350, 500]
PROFILE_N = 100
TRACE = [1.55, 0.04, 1.55]
GAP_NS = range(2, 9)
GAP_ALPHAS = (0.3, 0.5, 0.75, 0.862)


def write(name, text):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    print(path)


def main():
    os.makedirs(OUT, exist_ok=True)
    for n in SWEEP_NS:
        rows = sweep_J(n, GRID)
        write(f"sweep_n{n}.csv", _csv([("alpha", "J")] + rows))
        write(f"sweep_n{n}.svg", line_chart(rows, title=f"J(alpha), n={n}", xlabel="alpha", ylabel="J"))

    rows = optimal_alpha_curve(NS)
    write("optimal_alpha.csv", _csv([("n", "alpha_hat")] + rows))
    write("optimal_alpha.svg", line_chart(rows, title="Optimal alpha vs chain length", xlabel="n", ylabel="alpha_hat"))

    alpha_hat = maximize_J(PROFILE_N).alpha_hat
    x = newton_solve(ChainParams(PROFILE_N, alpha_hat))
    rows = [(i, float(v)) for i, v in enumerate(x, start=1)]
    title = f"Emission probabilities, n={PROFILE_N}, alpha={alpha_hat:.4f}"
    write(f"profile_n{PROFILE_N}.csv", _csv([("pair", "x")] + rows))
    write(f"profile_n{PROFILE_N}.svg", line_chart(rows, title=title, xlabel="pair", ylabel="x"))

    trace = ThroughputTrace(rates=TRACE, label="three external pairs")
    alpha_fit = fit_alpha(trace).alpha_fit
    rows = compare_normalized(trace, alpha_fit)
    series = [("observed", [obs for _, obs, _, _ in rows]), ("model", [mod for _, _, mod, _ in rows])]
    title = f"Normalized throughput, alpha_fit={alpha_fit:.4f}"
    write("comparison_three_pairs.csv", _csv([("pair", "observed", "model", "residual")] + rows))
    write("comparison_three_pairs.svg", bar_chart([str(row[0]) for row in rows], series, title=title,
                                                  xlabel="pair", ylabel="rate / rate_1"))

    rows = [(n, alpha, meanfield_gap(n, alpha)) for n in GAP_NS for alpha in GAP_ALPHAS]
    write("meanfield_gap.csv", _csv([("n", "alpha", "gap")] + rows))


if __name__ == "__main__":
    main()
