"""Monkeypatch helpers that force solves to fail or count them.

Both patch the bindings through which fairness and fit call the solver,
so a test can make a chosen alpha fail or count the serial solves of a
maximization or fit.
"""

import chainfair.fairness as fairness_module
from chainfair import ConvergenceError


def force_failures(monkeypatch, bad, module=fairness_module):
    """Make the solves in module fail for the alphas in bad.

    bad is a set of alphas or a predicate on alpha. Both the batched solves
    of the scans (newton_rows) and the one-alpha solves of the refinement
    (newton_solve) are patched.
    """
    fails = bad if callable(bad) else bad.__contains__
    real_rows, real_solve = module.newton_rows, module.newton_solve

    def rows(n, alphas, *args):
        alphas = list(alphas)
        start = 0
        for X, errors in real_rows(n, alphas, *args):
            for i in range(len(X)):
                if fails(alphas[start + i]):
                    errors[i] = ConvergenceError("forced failure", last=X[i], residual=1.0)
            start += len(X)
            yield X, errors

    def solve(params, *args):
        if fails(params.alpha):
            raise ConvergenceError("forced failure", residual=1.0)
        return real_solve(params, *args)

    monkeypatch.setattr(module, "newton_rows", rows)
    monkeypatch.setattr(module, "newton_solve", solve)


def off_grid(grid):
    """Predicate true for every alpha not in grid: the refinement's points."""
    points = {float(a) for a in grid}
    return lambda a: float(a) not in points


def count_solves(monkeypatch, module):
    """Count the one-alpha newton_solve calls made through module."""
    calls = []
    real = module.newton_solve

    def solve(params, *args):
        calls.append(params.alpha)
        return real(params, *args)

    monkeypatch.setattr(module, "newton_solve", solve)
    return calls
