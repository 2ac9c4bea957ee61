#!/usr/bin/env python3
"""Emission probability profile of the n=100 chain at its optimal alpha.

Shows the boundary oscillation and the flat central area near 1/3.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chainfair import ChainParams, maximize_J, newton_solve
from chainfair.svg import line_chart

OUT = os.path.join(os.path.dirname(__file__), "..", "out")

if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    n = 100
    alpha_hat = maximize_J(n).alpha_hat
    x = newton_solve(ChainParams(n, alpha_hat))
    print(f"alpha_hat = {alpha_hat:.4f}, central x = {x[49]:.4f}")

    csv_path = os.path.join(OUT, "profile_n100.csv")
    with open(csv_path, "w") as f:
        f.write("pair,x\n")
        for i, v in enumerate(x, start=1):
            f.write(f"{i},{float(v)!r}\n")
    svg_path = os.path.join(OUT, "profile_n100.svg")
    with open(svg_path, "w") as f:
        f.write(
            line_chart(
                list(enumerate(x, start=1)),
                title=f"Emission probabilities, n={n}, alpha={alpha_hat:.4f}",
                xlabel="pair",
                ylabel="x",
            )
        )
    print(csv_path)
    print(svg_path)
