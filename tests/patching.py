"""Monkeypatch helpers that force solves to fail, count them or record them.

Each patches the two seams through which fairness solves: newton_rows, the
batch behind the scans of maximize_J and fit_alpha and the rows of
sweep_J, and _solve_part, the one-alpha solve behind each refinement point
of the searches and behind J and J_prime without x. So a test can make a
chosen alpha fail, count the serial solves of a maximization or fit, or
keep the roots it solved. newton_rows yields each block as a list of parts
(rows, h, W), and _solve_part returns one part (h, W) or raises
ConvergenceError; the wrappers do the same.
"""

from dataclasses import dataclass

import numpy as np

import chainfair.fairness as fairness_module
import chainfair.solver as solver_module
from chainfair import ConvergenceError
from chainfair.solver import _unfold


def force_failures(monkeypatch, bad):
    """Make the solves of maximize_J, fit_alpha and sweep_J fail for the alphas in bad.

    bad is a set of alphas or a predicate on alpha. A forced row of a scan
    is left out of its block and its part, as a failed one is; a forced
    one-alpha solve raises ConvergenceError, as a failed one does.
    """
    fails = bad if callable(bad) else bad.__contains__
    real_rows, real_part = fairness_module.newton_rows, fairness_module._solve_part

    def rows(n, alphas, *args):
        alphas = list(alphas)
        for parts in real_rows(n, alphas, *args):
            keep = [np.array([not fails(alphas[i]) for i in rows], dtype=bool) for rows, _, _ in parts]
            yield [(rows[k], h, W[k]) for (rows, h, W), k in zip(parts, keep) if k.any()]

    def part(params, *args, **kwargs):
        found = real_part(params, *args, **kwargs)
        if fails(params.alpha):
            raise ConvergenceError(f"forced failure (alpha={params.alpha})")
        return found

    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    monkeypatch.setattr(fairness_module, "_solve_part", part)


def off_grid(grid):
    """Predicate true for every alpha not in grid: the refinement's points."""
    points = {float(a) for a in grid}
    return lambda a: float(a) not in points


def count_solves(monkeypatch, cap=None):
    """Count the one-alpha solves through fairness._solve_part: the serial solves of the searches.

    With a cap, the solve after the cap-th raises AssertionError, so that a
    search that never ends fails instead of hanging.
    """
    calls = []
    real = fairness_module._solve_part

    def part(params, *args, **kwargs):
        calls.append(params.alpha)
        assert cap is None or len(calls) <= cap, f"more than {cap} serial solves"
        return real(params, *args, **kwargs)

    monkeypatch.setattr(fairness_module, "_solve_part", part)
    return calls


def capture_roots(monkeypatch):
    """Keep the root of every alpha solved through newton_rows or _solve_part, unfolded, by alpha: the search's own roots."""
    roots = {}
    real_rows, real_part = fairness_module.newton_rows, fairness_module._solve_part

    def rows(n, alphas, *args):
        alphas = list(alphas)
        for parts in real_rows(n, alphas, *args):
            for part_rows, h, W in parts:
                roots.update(zip([float(alphas[i]) for i in part_rows], _unfold(h, W, n)))
            yield parts

    def part(params, *args, **kwargs):
        h, W = real_part(params, *args, **kwargs)
        (roots[float(params.alpha)],) = _unfold(h, W, params.n)
        return h, W

    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    monkeypatch.setattr(fairness_module, "_solve_part", part)
    return roots


@dataclass
class RefinementSolve:
    """One serial solve of a search: its alpha, the nearest alphas solved before it in its search on each side
    (its bracket's ends), the Newton steps it took, whether it solved and whether it started from its bracket."""

    alpha: float
    lo: float
    hi: float
    steps: int
    solved: bool
    started: bool


def refinement_solves(monkeypatch):
    """Record the one-alpha solves through fairness._solve_part as RefinementSolve, in order.

    Steps are counted as calls of solver._newton_step during the solve; a
    solve started from its bracket when solver._start_rows did not run
    during it. A scan, through newton_rows, starts a new search.
    """
    solves, solved, steps, starts = [], [], [0], [0]
    real_rows, real_part = fairness_module.newton_rows, fairness_module._solve_part
    real_step, real_start = solver_module._newton_step, solver_module._start_rows

    def step(*args):
        steps[0] += 1
        return real_step(*args)

    def start_rows(*args):
        starts[0] += 1
        return real_start(*args)

    def rows(n, alphas, *args):
        alphas = [float(a) for a in alphas]
        solved.clear()
        out = list(real_rows(n, alphas, *args))
        solved.extend(alphas[i] for parts in out for rows, _, _ in parts for i in rows.tolist())
        return iter(out)

    def part(params, *args, **kwargs):
        a = float(params.alpha)
        lo, hi = max(b for b in solved if b < a), min(b for b in solved if b > a)
        before, first, found = steps[0], starts[0], None
        try:
            found = real_part(params, *args, **kwargs)
        finally:
            solves.append(RefinementSolve(a, lo, hi, steps[0] - before, found is not None, starts[0] == first))
        solved.append(a)
        return found

    monkeypatch.setattr(solver_module, "_newton_step", step)
    monkeypatch.setattr(solver_module, "_start_rows", start_rows)
    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    monkeypatch.setattr(fairness_module, "_solve_part", part)
    return solves
