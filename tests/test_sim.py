import math
import tracemalloc

import numpy as np
import pytest

from chainfair import (
    ChainParams,
    DomainError,
    MarginalEstimate,
    SimConfig,
    exact_stationary,
    meanfield_gap,
    simulate,
)

from reference import closed_form_n3


def hardcore_marginals(n, alpha):
    """Transfer-matrix marginals of the hard-core measure on a path.

    The single-site kernel is a heat-bath sampler whose conditional law of
    an unblocked site is Bernoulli(alpha), i.e. activity lam = a/(1-a); the
    occupied-site marginal splits the path into two independent segments.
    Serves as an oracle for exact_stationary computed a different way.
    """
    lam = alpha / (1.0 - alpha)
    Z = {-1: 1.0, 0: 1.0}
    for k in range(1, n + 1):
        Z[k] = Z[k - 1] + lam * Z[k - 2]
    return np.array(
        [lam * Z[i - 2] * Z[n - i - 1] / Z[n] for i in range(1, n + 1)]
    )


def kernel_marginals(n, alpha):
    """Stationary marginals of the single-site chain from its transition matrix.

    The states are all 2^n bit vectors. From each one, a site i chosen with
    probability 1/n is redrawn as y_i = z (1 - y_{i-1})(1 - y_{i+1}) with
    z ~ Bernoulli(alpha); states with adjacent emitters are transient. The
    stationary row vector solves pi (P - I) = 0 with sum(pi) = 1 in one
    linear solve: the balance equations sum to zero, so one of them is
    replaced by the normalisation. Checks that the product form is the law
    of the simulated chain, not only a formula for the hard-core measure.
    """
    size = 1 << n
    bits = (np.arange(size)[:, None] >> np.arange(n)) & 1
    P = np.zeros((size, size))
    for s in range(size):
        for i in range(n):
            left = bits[s, i - 1] if i > 0 else 0
            right = bits[s, i + 1] if i < n - 1 else 0
            p_on = alpha * (1 - left) * (1 - right)
            P[s, s | (1 << i)] += p_on / n
            P[s, s & ~(1 << i)] += (1.0 - p_on) / n
    A = P.T - np.eye(size)
    A[-1] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs) @ bits


def reference_batch_sums(config):
    """Per-batch on-time sums of simulate's run, from the earlier two loops.

    The single-site loop adds each site's constant stretches into the
    batches they overlap; the sweep loop adds the whole state every slot.
    Returns the (batches x n) sums and the batch length, for the
    bit-identity check of simulate's one update loop.
    """
    n, steps = config.n, config.steps
    span = steps - config.effective_burn_in
    nbat = min(32, span)
    blen = span // nbat
    start = steps - blen * nbat
    rng = np.random.default_rng(config.seed)
    bsum = np.zeros((nbat, n))

    def flush(i, val, t0, t1):
        if not val or t1 <= t0:
            return
        for b in range((t0 - start) // blen, (t1 - 1 - start) // blen + 1):
            bsum[b, i] += min(t1, start + (b + 1) * blen) - max(t0, start + b * blen)

    if config.policy == "random-single-site":
        sites = rng.integers(0, n, size=steps).tolist()
        coins = (rng.random(steps) < config.alpha).tolist()
        y = [0] * n
        last_t = [start] * n
        for t in range(steps):
            i = sites[t]
            left = y[i - 1] if i > 0 else 0
            right = y[i + 1] if i < n - 1 else 0
            nv = 1 if (coins[t] and not left and not right) else 0
            if t >= start and nv != y[i]:
                flush(i, y[i], last_t[i], t)
                last_t[i] = t
            y[i] = nv
        for i in range(n):
            flush(i, y[i], max(last_t[i], start), steps)
        return bsum, blen
    y = np.zeros(n, dtype=np.int8)
    for t in range(steps):
        perm = rng.permutation(n)
        coins = rng.random(n) < config.alpha
        for k, i in enumerate(perm):
            left = y[i - 1] if i > 0 else 0
            right = y[i + 1] if i < n - 1 else 0
            y[i] = 1 if (coins[k] and not left and not right) else 0
        if t >= start:
            bsum[(t - start) // blen] += y
    return bsum, blen


class TestSimConfig:
    def test_default_burn_in_is_ten_percent(self):
        assert SimConfig(n=3, alpha=0.5, steps=1000).effective_burn_in == 100

    def test_explicit_burn_in(self):
        assert SimConfig(n=3, alpha=0.5, steps=1000, burn_in=7).effective_burn_in == 7

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 0, "alpha": 0.5, "steps": 100},
            {"n": 3, "alpha": 1.0, "steps": 100},
            {"n": 3, "alpha": 0.5, "steps": 0},
            {"n": 3, "alpha": 0.5, "steps": 100, "burn_in": 100},
            {"n": 3, "alpha": 0.5, "steps": 100, "burn_in": -1},
            {"n": 3, "alpha": 0.5, "steps": 100, "policy": "checkerboard"},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            SimConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 2.5, "alpha": 0.5, "steps": 100},
            {"n": 3.0, "alpha": 0.5, "steps": 100},
            {"n": 3, "alpha": 0.5, "steps": 100.5},
            {"n": 3, "alpha": 0.5, "steps": 100, "burn_in": 10.0},
            {"n": 3, "alpha": 0.5, "steps": 10, "seed": -1},
            {"n": 3, "alpha": 0.5, "steps": 10, "seed": 1.5},
        ],
    )
    def test_non_integer_sizes(self, kw):
        # these passed validation and then crashed simulate with a TypeError
        # (a negative seed with numpy's ValueError)
        with pytest.raises(DomainError):
            SimConfig(**kw)

    def test_numpy_integer_sizes(self):
        cfg = SimConfig(n=np.int64(3), alpha=0.5, steps=np.int64(100), burn_in=np.int32(5))
        assert simulate(cfg).x_hat.shape == (3,)

    @pytest.mark.parametrize("field", ["n", "steps", "seed", "burn_in"])
    def test_bool_sizes_refused(self, field):
        # SimConfig(n=True) simulated a one-pair chain
        kw = {"n": 3, "alpha": 0.5, "steps": 10, "seed": 0}
        kw[field] = True
        with pytest.raises(DomainError):
            SimConfig(**kw)


def final_state(n, alpha, s, policy="random-single-site"):
    """The 0/1 state after the last slot of a run of s slots seeded with s.

    With burn_in = s - 1 the averaging window is the last slot alone, so
    x_hat is the occupancy simulate holds when the run ends.
    """
    config = SimConfig(n=n, alpha=alpha, steps=s, burn_in=s - 1, seed=s, policy=policy)
    return simulate(config).x_hat


class TestSimStep:
    """The slot update of simulate keeps the state an independent set."""

    @pytest.mark.parametrize("policy", ["random-single-site", "synchronous-random-order"])
    def test_invariant_never_violated(self, policy):
        seen = set()
        for s in range(1, 301):
            y = final_state(6, 0.9, s, policy)
            assert set(y) <= {0.0, 1.0}
            assert not np.any(y[:-1] * y[1:]), (s, y)
            seen.add(tuple(y))
        # the check sees most of the 21 independent sets of the 6-path
        assert len(seen) >= 15

    def test_single_site_blocked_neighbor(self):
        # a site next to an emitter stays silent, whatever the coin
        seen = set()
        for s in range(1, 201):
            y = final_state(3, 0.99, s)
            assert not (y[0] and y[1]) and not (y[1] and y[2])
            seen.add(tuple(y))
        assert {(1.0, 0.0, 1.0), (0.0, 1.0, 0.0)} <= seen


class TestSimulate:
    def test_reproducible(self):
        config = SimConfig(n=4, alpha=0.6, steps=50_000, seed=11)
        a = simulate(config)
        b = simulate(config)
        assert isinstance(a, MarginalEstimate)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.stderr, b.stderr)

    def test_single_site_bernoulli(self):
        est = simulate(SimConfig(n=1, alpha=0.6, steps=1_000_000, seed=0))
        assert abs(est.x_hat[0] - 0.6) <= 3 * est.stderr[0]

    def test_two_pairs_match_exact(self):
        est = simulate(SimConfig(n=2, alpha=0.8, steps=1_000_000, seed=1))
        exact = exact_stationary(2, 0.8)
        assert np.all(np.abs(est.x_hat - exact) <= 3 * est.stderr)

    def test_symmetric_estimates(self):
        est = simulate(SimConfig(n=6, alpha=0.7, steps=400_000, seed=5))
        for i in range(6):
            j = 5 - i
            tol = 4 * (est.stderr[i] + est.stderr[j])
            assert abs(est.x_hat[i] - est.x_hat[j]) <= tol

    def test_sweep_policy_close_to_single_site(self):
        # sensitivity check, generous band: the two stationary laws agree
        a = simulate(SimConfig(n=3, alpha=0.5, steps=300_000, seed=2))
        b = simulate(
            SimConfig(n=3, alpha=0.5, steps=30_000, seed=2, policy="synchronous-random-order")
        )
        assert np.max(np.abs(a.x_hat - b.x_hat)) <= 0.05

    def test_sweep_policy_shares_exact_law(self):
        # every heat-bath update preserves the product form, so a sweep of
        # them does too; same coverage gate as the acceptance oracle test
        hits = cells = 0
        for n in (3, 5):
            exact = exact_stationary(n, 0.8)
            for seed in range(4):
                est = simulate(
                    SimConfig(n=n, alpha=0.8, steps=40_000, seed=seed, policy="synchronous-random-order")
                )
                hits += int(np.sum(np.abs(est.x_hat - exact) <= 3.0 * est.stderr))
                cells += n
        assert hits / cells >= 0.95

    def test_marginals_within_unit_box(self):
        est = simulate(SimConfig(n=5, alpha=0.9, steps=20_000, seed=3))
        assert np.all(est.x_hat >= 0.0) and np.all(est.x_hat <= 1.0)

    def test_short_run_stderr_nan(self):
        est = simulate(SimConfig(n=2, alpha=0.5, steps=2, burn_in=1, seed=0))
        assert np.all(np.isnan(est.stderr))


POLICIES = ("random-single-site", "synchronous-random-order")


class TestBitIdentity:
    """simulate returns bit for bit what the earlier per-policy loops did."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("shape", [(200_000, 20_000), (37, 5), (40, None)])
    def test_matches_reference(self, policy, n, alpha, shape):
        steps, burn_in = shape
        if policy == "synchronous-random-order" and steps > 1000:
            # a sweep slot makes n updates: keep the long run near 20k updates
            steps, burn_in = 20_000 // n, 2_000 // n
        for seed in range(3):
            config = SimConfig(n=n, alpha=alpha, steps=steps, burn_in=burn_in, seed=seed, policy=policy)
            bsum, blen = reference_batch_sums(config)
            means = bsum / blen
            est = simulate(config)
            assert np.array_equal(est.x_hat, means.mean(axis=0))
            if len(means) >= 2:
                assert np.array_equal(est.stderr, means.std(axis=0, ddof=1) / np.sqrt(len(means)))
            else:
                assert np.all(np.isnan(est.stderr))


class TestExactStationary:
    def test_bool_length_refused(self):
        with pytest.raises(DomainError):
            exact_stationary(True, 0.5)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_n1_is_alpha(self, alpha):
        assert exact_stationary(1, alpha)[0] == pytest.approx(alpha, abs=1e-13)

    def test_n2_hand_value(self):
        # lam = 1 at alpha = 1/2; three states weighted 1,1,1 so x = 1/3
        np.testing.assert_allclose(exact_stationary(2, 0.5), [1 / 3, 1 / 3], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.862])
    def test_matches_transfer_matrix(self, n, alpha):
        got = exact_stationary(n, alpha)
        want = hardcore_marginals(n, alpha)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("alpha", [0.3, 0.75, 0.95, 0.99])
    def test_matches_transition_kernel(self, n, alpha):
        got = exact_stationary(n, alpha)
        want = kernel_marginals(n, alpha)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_reversal_symmetry(self):
        x = exact_stationary(7, 0.7)
        assert np.max(np.abs(x - x[::-1])) <= 1e-12

    def test_bulk_density_at_three_quarters(self):
        x = exact_stationary(2001, 0.75)
        assert x[1000] == pytest.approx((13 - math.sqrt(13)) / 26, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_bulk_density_matches_ring(self, alpha):
        # the infinite path occupies a site with probability (mu-1)/(2mu-1),
        # mu the larger root of mu^2 = mu + lam
        lam = alpha / (1.0 - alpha)
        mu = (1.0 + math.sqrt(1.0 + 4.0 * lam)) / 2.0
        x = exact_stationary(4001, alpha)
        assert x[2000] == pytest.approx((mu - 1.0) / (2.0 * mu - 1.0), abs=1e-12)

    def test_long_chain(self):
        x = exact_stationary(100_000, 0.7)
        assert np.all((x > 0.0) & (x < 1.0))
        assert np.array_equal(x, x[::-1])

    def test_memory_linear_in_n(self):
        n = 5000
        tracemalloc.start()
        try:
            exact_stationary(n, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * 8

    @pytest.mark.parametrize(
        ("n", "alpha"), [(0, 0.5), (2.5, 0.5), (3, 0.0), (3, 1.0), (3, float("nan"))]
    )
    def test_invalid(self, n, alpha):
        with pytest.raises(DomainError):
            exact_stationary(n, alpha)

    def test_alpha_next_to_one(self):
        x = exact_stationary(50, 1.0 - 2.0 ** -52)
        assert np.all(np.isfinite(x))
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.array_equal(x, x[::-1])


class TestMeanfieldGap:
    def test_n1_zero(self):
        assert meanfield_gap(1, 0.77) == pytest.approx(0.0, abs=1e-12)

    def test_n2_exactness_pin(self):
        # mean field happens to be exact for two pairs; pinned as regression
        assert meanfield_gap(2, 0.5) <= 1e-10

    def test_n3_pin(self):
        assert meanfield_gap(3, 0.5) == pytest.approx(0.0284271247, abs=1e-6)

    def test_long_chain_at_three_quarters(self):
        assert meanfield_gap(1000, 0.75) == pytest.approx(0.1576, abs=1e-3)

    def test_n3_gap_is_against_closed_form(self):
        gap = meanfield_gap(3, 0.862)
        direct = np.max(np.abs(exact_stationary(3, 0.862) - closed_form_n3(0.862)))
        assert gap == pytest.approx(direct, abs=1e-9)
