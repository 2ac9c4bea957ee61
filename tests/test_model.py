import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfair import (
    ChainParams,
    DomainError,
    apply_F,
    entropy,
    jacobian_bands,
)
from chainfair.model import check_real, check_vector, grad_entropy_rows

from reference import closed_form_n3, closed_form_n4, jacobian_F

ALPHA_GRID = [0.05 * k for k in range(1, 20)]


class TestChainParams:
    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_bad_n(self, n):
        with pytest.raises(DomainError):
            ChainParams(n, 0.5)

    # "0.5" and None raised an untyped TypeError from the range comparison
    @pytest.mark.parametrize(
        "alpha",
        [0.0, 1.0, -0.2, 1.7, float("nan"), "0.5", None, True, np.array(True), np.array([0.5]), float("inf")],
    )
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            ChainParams(3, alpha)

    def test_frozen(self):
        p = ChainParams(3, 0.5)
        with pytest.raises(AttributeError):
            p.alpha = 0.6

    def test_bool_n_refused(self):
        # bool is a subclass of int; True passed as n = 1 and later broke
        # the solver with an untyped TypeError
        with pytest.raises(DomainError):
            ChainParams(True, 0.5)

    @pytest.mark.parametrize("alpha", [np.array(0.5), np.array(0.5, dtype=np.float32), np.float64(0.5)])
    def test_numpy_real_alpha_accepted(self, alpha):
        assert ChainParams(3, alpha).alpha == 0.5


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, -3, np.float32(2.0), np.int64(7), np.array(0.5), np.array(3)])
    def test_finite_reals_pass(self, value):
        check_real("v", value)

    @pytest.mark.parametrize(
        "value", ["1", None, True, np.bool_(True), np.array(False), np.array([1.0]), np.array(np.inf), complex(1, 0)]
    )
    def test_others_refused(self, value):
        with pytest.raises(DomainError, match="^v must be a finite real number"):
            check_real("v", value)


class TestCheckVector:
    def test_converts_to_a_float_vector(self):
        x = check_vector("v", [1, 2, 3], 3)
        assert x.dtype == float and x.tolist() == [1.0, 2.0, 3.0]

    # [True, False] and ["1.5", "2"] were read as numbers, [1.0, None] as
    # [1.0, nan], a bool among floats as 1.0 or 0.0, and a complex entry
    # as its real part
    @pytest.mark.parametrize(
        "value",
        [["a", "b"], [[1.0, 2.0], [3.0]], {1: 2}, None, 0.5, np.ones((2, 2)), [True, False], ["1.5", "2"],
         [1.0, None], np.array([b"1"]), [1.0, True], (0.5, np.False_, 2), [0.5 + 1j, 0.2], np.array([1j])],
    )
    def test_others_refused(self, value):
        with pytest.raises(DomainError, match="^v must be a"):
            check_vector("v", value)

    def test_length_checked_when_given(self):
        with pytest.raises(DomainError, match="^v must be a length-3 vector, got shape"):
            check_vector("v", [0.1, 0.2], 3)


@pytest.mark.parametrize("f", [apply_F, jacobian_bands])
def test_non_numeric_vector_refused(f):
    # numpy's ValueError leaked out for ["a", "b"]; apply_F returned
    # [nan, 0.] for [1.0, None]
    for x in (["a", "b"], [1.0, None]):
        with pytest.raises(DomainError):
            f(ChainParams(2, 0.5), x)


class TestApplyF:
    def test_all_idle(self):
        y = apply_F(ChainParams(3, 0.5), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(y, [0.5, 0.5, 0.5])

    def test_all_busy(self):
        y = apply_F(ChainParams(3, 0.5), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(y, [0.0, 0.0, 0.0])

    def test_uniform_third(self):
        y = apply_F(ChainParams(4, 0.75), [1 / 3] * 4)
        np.testing.assert_allclose(y, [0.5, 1 / 3, 1 / 3, 0.5], atol=1e-15)

    def test_n1_is_constant(self):
        assert apply_F(ChainParams(1, 0.7), [0.123]) == pytest.approx(0.7)

    def test_n2_cross_coupling(self):
        y = apply_F(ChainParams(2, 0.8), [0.25, 0.5])
        np.testing.assert_allclose(y, [0.8 * 0.5, 0.8 * 0.75])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            apply_F(ChainParams(3, 0.5), [0.1, 0.2])

    @given(
        n=st.integers(1, 12),
        alpha=st.floats(0.01, 0.99),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_maps_box_into_alpha_box(self, n, alpha, data):
        x = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
        )
        y = apply_F(ChainParams(n, alpha), x)
        assert np.all(y >= 0.0) and np.all(y <= alpha + 1e-15)

    @given(n=st.integers(1, 10), alpha=st.floats(0.05, 0.95), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_reversal(self, n, alpha, data):
        x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        p = ChainParams(n, alpha)
        np.testing.assert_allclose(apply_F(p, x[::-1]), apply_F(p, x)[::-1], atol=1e-15)


class TestJacobian:
    def test_all_ones_rows(self):
        a = 0.7
        jac = jacobian_F(ChainParams(3, a), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(jac, [[0, -a, 0], [0, 0, 0], [0, -a, 0]], atol=1e-15)

    def test_n2_at_origin(self):
        jac = jacobian_F(ChainParams(2, 0.5), [0.0, 0.0])
        np.testing.assert_allclose(jac, [[0, -0.5], [-0.5, 0]])

    def test_diagonal_zero_and_tridiagonal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=7)
        jac = jacobian_F(ChainParams(7, 0.6), x)
        assert np.all(np.diag(jac) == 0.0)
        mask = np.abs(np.arange(7)[:, None] - np.arange(7)[None, :]) == 1
        assert np.all(jac[~mask] == 0.0)

    def test_bands_match_dense(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=6)
        p = ChainParams(6, 0.45)
        sub, sup = jacobian_bands(p, x)
        jac = jacobian_F(p, x)
        np.testing.assert_allclose(sub, np.diag(jac, -1))
        np.testing.assert_allclose(sup, np.diag(jac, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, alpha, h = 5, 0.6, 1e-5
        x = rng.uniform(size=n)
        p = ChainParams(n, alpha)
        jac = jacobian_F(p, x)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            col = (apply_F(p, x + e) - apply_F(p, x - e)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], col, atol=1e-6)


class TestEntropy:
    def test_all_ones(self):
        assert entropy([1.0, 1.0, 1.0]) == 0.0

    def test_uniform_third(self):
        assert entropy([1 / 3] * 3) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_zero_times_log_zero(self):
        assert entropy([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("x", [[-0.1], [1.1], [0.5, 2.0]])
    def test_out_of_box(self, x):
        with pytest.raises(DomainError):
            entropy(x)

    def test_nan_refused(self):
        # returned -0.0: nan fails both x < 0 and x > 1
        with pytest.raises(DomainError):
            entropy([float("nan")])

    def test_nan_among_valid_entries_refused(self):
        with pytest.raises(DomainError):
            entropy([0.5, float("nan"), 0.25])

    def test_empty_is_negative_zero(self):
        # an empty x has no min or max to check: the empty sum, negated
        value = entropy([])
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("x", [np.full((2, 2), 0.5), 0.5, ["a", "b"]])
    def test_non_vector_refused(self, x):
        # a 2-D array was summed over all its entries; ["a", "b"] raised
        # numpy's ValueError
        with pytest.raises(DomainError):
            entropy(x)

    def test_maximal_at_inverse_e(self):
        best = entropy([1 / math.e] * 4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert entropy(rng.uniform(0.0, 1.0, size=4)) <= best + 1e-12


class TestGradEntropy:
    # grad_entropy_rows, the gradient J_prime takes, on one row
    def test_at_ones(self):
        np.testing.assert_allclose(grad_entropy_rows(np.ones(2)), [-1.0, -1.0])

    def test_at_inverse_e(self):
        np.testing.assert_allclose(grad_entropy_rows(np.full(2, 1 / math.e)), [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 0.95, size=4)
        g = grad_entropy_rows(x)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (entropy(x + e) - entropy(x - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)


class TestClosedForms:
    def test_n3_at_half(self):
        x = closed_form_n3(0.5)
        assert x[0] == pytest.approx((-0.5 + math.sqrt(0.5)) / 0.5, abs=1e-12)
        assert x[0] == pytest.approx(x[2])

    def test_n3_starvation_ratio(self):
        x = closed_form_n3(0.862)
        assert x[1] / x[0] == pytest.approx(0.0258, abs=0.015)

    def test_n4_at_half(self):
        x = closed_form_n4(0.5)
        assert x[0] == pytest.approx((1.5 - math.sqrt(1.25)) / 1.0, abs=1e-12)

    def test_n4_symmetry_exact(self):
        for a in ALPHA_GRID:
            x = closed_form_n4(a)
            assert x[0] == x[3] and x[1] == x[2]

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_n3_residual_and_range(self, alpha):
        x = closed_form_n3(alpha)
        y = apply_F(ChainParams(3, alpha), x)
        assert np.max(np.abs(x - y)) <= 1e-12
        assert np.all(x > 0.0) and np.all(x <= 1.0)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_n4_residual(self, alpha):
        x = closed_form_n4(alpha)
        y = apply_F(ChainParams(4, alpha), x)
        assert np.max(np.abs(x - y)) <= 1e-12

    @pytest.mark.parametrize("fn", [closed_form_n3, closed_form_n4])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
    def test_domain(self, fn, alpha):
        with pytest.raises(DomainError):
            fn(alpha)
