#!/usr/bin/env python3
"""Mean-field error table: exact stationary marginals vs the solved chain.

The model drops the correlation between a pair's two neighbors; this
script quantifies what that costs at small n (2 to 8) against the exact
product-form marginals of the single-site chain.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chainfair import meanfield_gap

OUT = os.path.join(os.path.dirname(__file__), "..", "out")
ALPHAS = (0.3, 0.5, 0.75, 0.862)

if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    csv_path = os.path.join(OUT, "meanfield_gap.csv")
    with open(csv_path, "w") as f:
        f.write("n,alpha,gap\n")
        for n in range(2, 9):
            for alpha in ALPHAS:
                gap = meanfield_gap(n, alpha)
                f.write(f"{n},{alpha!r},{gap!r}\n")
                print(f"n={n} alpha={alpha:5.3f} gap={gap:.4f}")
    print(csv_path)
