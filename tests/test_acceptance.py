"""End-to-end correctness gates for the whole package.

Each test pins a published reference value or a cross-implementation
property at a stated tolerance, with wall-clock budgets where runtime is
part of the contract. These are the checks a release must keep green.
"""

import time

import numpy as np
import pytest

from chainfair import (
    ChainParams,
    FrameSpec,
    J,
    J_prime,
    SimConfig,
    alpha_of_packet,
    circle_backoff_mc,
    exact_stationary,
    fit_alpha,
    fixed_point_solve,
    flat_value,
    maximize_J,
    newton_solve,
    packet_for_alpha,
    ring_fixed_point,
    simulate,
    ThroughputTrace,
)

from reference import closed_form_n3, closed_form_n4

ALPHA_19 = [round(0.05 * k, 2) for k in range(1, 20)]


def test_closed_form_agreement_under_one_second():
    t0 = time.perf_counter()
    for alpha in ALPHA_19:
        for n, closed in ((3, closed_form_n3), (4, closed_form_n4)):
            ref = closed(alpha)
            p = ChainParams(n, alpha)
            assert np.max(np.abs(fixed_point_solve(p) - ref)) <= 1e-10
            assert np.max(np.abs(newton_solve(p) - ref)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_optimal_alpha_reproduction_under_sixty_seconds():
    t0 = time.perf_counter()
    targets = {10: 0.5536, 20: 0.5977, 100: 0.6826, 500: 0.7309}
    for n, ref in targets.items():
        res = maximize_J(n)
        assert res.unimodal
        assert res.alpha_hat == pytest.approx(ref, abs=2e-3), f"n={n}"
    assert time.perf_counter() - t0 < 60.0


def test_flat_area_reproduction_under_five_minutes():
    t0 = time.perf_counter()
    targets = {100: 0.3177, 500: 0.3290, 1000: 0.3313, 2000: 0.3325}
    centrals = {}
    for n, ref in targets.items():
        _, central = flat_value(n)
        centrals[n] = central
        assert central == pytest.approx(ref, abs=1e-3), f"n={n}"
    ordered = [centrals[n] for n in (100, 500, 1000, 2000)]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    assert max(ordered) <= 1 / 3 + 1e-6
    assert time.perf_counter() - t0 < 300.0


def test_ring_identities():
    assert abs(ring_fixed_point(0.75) - 1 / 3) <= 1e-12


def test_timing_mapping():
    assert alpha_of_packet(FrameSpec(1500, 2.0)) == pytest.approx(0.867, abs=1e-3)
    assert alpha_of_packet(FrameSpec(250, 2.0)) == pytest.approx(0.600, abs=1e-3)
    assert abs(packet_for_alpha(0.6, 2.0) - 250) <= 1


def test_adjoint_gradient_matches_finite_differences():
    h = 1e-6
    worst = 0.0
    for n in range(2, 31):
        for alpha in [round(0.1 * k, 1) for k in range(1, 10)]:
            fd = (J(alpha + h, n) - J(alpha - h, n)) / (2 * h)
            jp = J_prime(alpha, n)
            rel = abs(jp - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    assert worst <= 1e-6


def test_fit_round_trip_and_measured_trace():
    for n in range(3, 21):
        for alpha in (0.3, 0.5, 0.7, 0.862):
            trace = ThroughputTrace(rates=newton_solve(ChainParams(n, alpha)))
            res = fit_alpha(trace)
            assert res.alpha_fit == pytest.approx(alpha, abs=1e-3), f"n={n} a={alpha}"
    measured = ThroughputTrace(rates=[1.55, 0.04, 1.55])
    fitted = fit_alpha(measured).alpha_fit
    assert 0.842 <= fitted <= 0.882


def test_circle_monte_carlo_third_under_thirty_seconds():
    t0 = time.perf_counter()
    freq = circle_backoff_mc(101, 1_000_000, seed=7)
    assert np.max(np.abs(freq - 1 / 3)) <= 0.0015
    assert time.perf_counter() - t0 < 30.0


def test_simulation_matches_exact_oracle():
    # coverage: at least 95% of (n, alpha, seed, site) cells within 3 stderr
    total = 0
    hits = 0
    for n in range(2, 9):
        for alpha in (0.5, 0.8):
            exact = exact_stationary(n, alpha)
            for seed in range(20):
                est = simulate(
                    SimConfig(n=n, alpha=alpha, steps=200_000, burn_in=20_000, seed=seed)
                )
                ok = np.abs(est.x_hat - exact) <= 3.0 * est.stderr
                hits += int(np.sum(ok))
                total += n
    assert hits / total >= 0.95

    # the hard exclusion constraint holds in the state simulate ends on: with
    # burn_in = steps - 1 the averaging window is the last slot alone, so
    # x_hat is that 0/1 state
    for policy in ("random-single-site", "synchronous-random-order"):
        for s in range(1, 301):
            config = SimConfig(n=6, alpha=0.9, steps=s, burn_in=s - 1, seed=s, policy=policy)
            y = simulate(config).x_hat
            assert set(y) <= {0.0, 1.0}
            assert not np.any(y[:-1] * y[1:])


def test_parity_and_asymmetry_structure():
    x3 = newton_solve(ChainParams(3, 0.862))
    assert x3[1] / x3[0] <= 0.05

    x100 = newton_solve(ChainParams(100, 0.6826))
    central = x100[49]
    assert x100[0] > central
    evens = x100[[1, 3, 5, 7, 9]]
    assert all(b > a for a, b in zip(evens, evens[1:]))
