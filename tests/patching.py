"""Monkeypatch helpers that force solves to fail or count them.

Both patch fairness.newton_rows, through which the searches of maximize_J
and fit_alpha and the rows of sweep_J are solved, so a test can make a
chosen alpha fail or count the serial solves of a maximization or fit.
"""

import numpy as np

import chainfair.fairness as fairness_module


def force_failures(monkeypatch, bad):
    """Make the solves of maximize_J, fit_alpha and sweep_J fail for the alphas in bad.

    bad is a set of alphas or a predicate on alpha. The scans' batches and
    the refinements' one-alpha solves both go through newton_rows; a forced
    row is left out of its block and its part, as a failed one is.
    """
    fails = bad if callable(bad) else bad.__contains__
    real = fairness_module.newton_rows

    def rows(n, alphas, *args):
        alphas = list(alphas)
        for indices, parts in real(n, alphas, *args):
            keep = [np.array([not fails(alphas[i]) for i in rows], dtype=bool) for rows, _, _ in parts]
            parts = [(rows[k], h, W[k]) for (rows, h, W), k in zip(parts, keep) if k.any()]
            yield indices[[not fails(alphas[i]) for i in indices]], parts

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

    def rows(n, alphas, *args):
        alphas = list(alphas)
        if len(alphas) == 1:
            calls.append(alphas[0])
            assert cap is None or len(calls) <= cap, f"more than {cap} serial solves"
        return real(n, alphas, *args)

    monkeypatch.setattr(fairness_module, "newton_rows", rows)
    return calls
