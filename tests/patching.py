"""Monkeypatch helpers that force solves to fail, count them or record them.

Each patches fairness.newton_rows, through which the searches of maximize_J
and fit_alpha and the rows of sweep_J are solved, so a test can make a
chosen alpha fail, count the serial solves of a maximization or fit, or
keep the roots it solved. newton_rows yields each block as a list of
parts (rows, h, W), and the wrappers yield the same. A refinement solve of
the searches may carry a start, start= (the two roots at its bracket's
ends interpolated), which the wrappers pass on.
"""

from dataclasses import dataclass

import numpy as np

import chainfair.fairness as fairness_module
import chainfair.solver as solver_module
from chainfair.solver import _unfold


def force_failures(monkeypatch, bad):
    """Make the solves of maximize_J, fit_alpha and sweep_J fail for the alphas in bad.

    bad is a set of alphas or a predicate on alpha. The scans' batches and
    the refinements' one-alpha solves both go through newton_rows; a forced
    row is left out of its block and its part, as a failed one is.
    """
    fails = bad if callable(bad) else bad.__contains__
    real = fairness_module.newton_rows

    def rows(n, alphas, *args, **kwargs):
        alphas = list(alphas)
        for parts in real(n, alphas, *args, **kwargs):
            keep = [np.array([not fails(alphas[i]) for i in rows], dtype=bool) for rows, _, _ in parts]
            yield [(rows[k], h, W[k]) for (rows, h, W), k in zip(parts, keep) if k.any()]

    monkeypatch.setattr(fairness_module, "newton_rows", rows)


def off_grid(grid):
    """Predicate true for every alpha not in grid: the refinement's points."""
    points = {float(a) for a in grid}
    return lambda a: float(a) not in points


def count_solves(monkeypatch, cap=None):
    """Count the one-alpha newton_rows calls of the searches: their serial solves.

    With a cap, the solve after the cap-th raises AssertionError, so that a
    search that never ends fails instead of hanging.
    """
    calls = []
    real = fairness_module.newton_rows

    def rows(n, alphas, *args, **kwargs):
        alphas = list(alphas)
        if len(alphas) == 1:
            calls.append(alphas[0])
            assert cap is None or len(calls) <= cap, f"more than {cap} serial solves"
        return real(n, alphas, *args, **kwargs)

    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    return calls


def capture_roots(monkeypatch):
    """Keep the root of every row solved through newton_rows, unfolded, by alpha: the search's own roots."""
    roots = {}
    real = fairness_module.newton_rows

    def rows(n, alphas, *args, **kwargs):
        alphas = list(alphas)
        for parts in real(n, alphas, *args, **kwargs):
            for part_rows, h, W in parts:
                roots.update(zip([float(alphas[i]) for i in part_rows], _unfold(h, W, n)))
            yield parts

    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    return roots


@dataclass
class RefinementSolve:
    """One serial solve of a search: its alpha, the nearest alphas solved before it in its search on each side
    (its bracket's ends), the Newton steps it took, whether it solved and whether it carried a start."""

    alpha: float
    lo: float
    hi: float
    steps: int
    solved: bool
    started: bool


def refinement_solves(monkeypatch):
    """Record the one-alpha newton_rows calls of the searches as RefinementSolve, in order.

    Steps are counted as calls of solver._newton_step during the solve. A
    call of more alphas is a search's scan and starts a new search.
    """
    solves, solved, steps = [], [], [0]
    real_rows, real_step = fairness_module.newton_rows, solver_module._newton_step

    def step(*args):
        steps[0] += 1
        return real_step(*args)

    def rows(n, alphas, *args, **kwargs):
        alphas = [float(a) for a in alphas]
        if len(alphas) > 1:
            solved.clear()
        before = steps[0]
        out = list(real_rows(n, alphas, *args, **kwargs))
        solved.extend(alphas[i] for parts in out for rows, _, _ in parts for i in rows.tolist())
        if len(alphas) == 1:
            (a,) = alphas
            start = kwargs.get("start", args[1] if len(args) > 1 else None)
            lo, hi = max(b for b in solved if b < a), min(b for b in solved if b > a)
            solves.append(RefinementSolve(a, lo, hi, steps[0] - before, a in solved, start is not None))
        return iter(out)

    monkeypatch.setattr(solver_module, "_newton_step", step)
    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    return solves
