import inspect

import numpy as np
import pytest

from kantcheck.errors import DomainError, HermiticityError, ParameterError
from kantcheck.generators import (
    gen_hermitian_in_window,
    gen_positive_linear_map,
    haar_unitary,
)
from kantcheck.hermitian import SpectralWindow, loewner_leq
from kantcheck.posmaps import (
    PositiveLinearMap,
    apply_map,
    f_connection,
    sharp,
    tsallis_entropy,
)

W12 = SpectralWindow(1.0, 2.0)
POSITIVE = SpectralWindow(0.3, 3.0)


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=complex))


class TestApplyMap:
    def test_unitary_conjugation(self):
        u = haar_unitary(3, np.random.default_rng(1))
        phi = PositiveLinearMap((u,))
        x = gen_hermitian_in_window(3, W12, np.random.default_rng(2))
        assert np.max(np.abs(apply_map(phi, x) - u.conj().T @ x @ u)) < 1e-12

    def test_identity_is_preserved(self):
        phi = gen_positive_linear_map(4, 2, 3, 9)
        assert np.max(np.abs(apply_map(phi, np.eye(4)) - np.eye(2))) < 1e-10

    def test_pinching_zeroes_off_diagonal_blocks(self):
        p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        phi = PositiveLinearMap((p1, p2))
        x = gen_hermitian_in_window(4, W12, np.random.default_rng(3))
        out = apply_map(phi, x)
        assert np.max(np.abs(out[:2, 2:])) < 1e-14
        assert np.allclose(out[:2, :2], x[:2, :2])
        assert np.allclose(out[2:, 2:], x[2:, 2:])

    def test_dimension_mismatch(self):
        phi = gen_positive_linear_map(3, 2, 1, 4)
        with pytest.raises(ValueError):
            apply_map(phi, np.eye(4))

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 16, 64])
    def test_stack_maps_each_member_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        window = SpectralWindow(0.5, 4.0)
        for n_kraus in (1, 2, 3):
            phi = gen_positive_linear_map(dim, max(1, dim - 1), n_kraus, rng)
            for size in (1, 3, 4):
                stack = np.stack([gen_hermitian_in_window(dim, window, rng) for _ in range(size)])
                mapped = apply_map(phi, stack)
                assert mapped.shape == (size, phi.dim_out, phi.dim_out)
                for i in range(size):
                    assert np.array_equal(mapped[i], apply_map(phi, stack[i]))

    def test_stack_is_validated_as_a_whole(self):
        phi = gen_positive_linear_map(2, 2, 1, 4)
        stack = np.stack([diag(1, 2), diag(2, 3), diag(1, 3)])
        stack[1, 0, 1] = 1e-3
        with pytest.raises(HermiticityError):
            apply_map(phi, stack)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_map(phi, np.stack([np.eye(3)] * 2))

    def test_stack_of_operands_is_rejected(self):
        a = diag(1, 2)
        stack = np.stack([a, diag(2, 3)])
        with pytest.raises(ValueError, match="must be square"):
            sharp(a, stack, -1.0)
        with pytest.raises(ValueError, match="must be square"):
            sharp(stack, a, -1.0)
        with pytest.raises(ValueError, match="must be square"):
            f_connection(a, stack, np.sqrt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_entries_are_rejected(self, bad, entry):
        phi = gen_positive_linear_map(2, 2, 1, 4)
        stack = np.stack([diag(1, 2), diag(2, 3)])
        stack[1][entry] = bad
        for x in (stack[1], stack):
            with pytest.raises(ValueError, match="NaN or infinite"):
                apply_map(phi, x)

    def test_normalization_is_enforced(self):
        with pytest.raises(ValueError):
            PositiveLinearMap((2.0 * np.eye(2),))

    def test_a_nan_normalization_defect_is_rejected(self):
        # NaN > NORMALIZATION_TOL is False: the test must not read it as in bounds
        with pytest.raises(ValueError, match=r"^map is not normalized: .* = nan$"):
            PositiveLinearMap((np.full((2, 2), np.nan),))

    def test_dimensions_come_from_the_factors(self):
        w1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
        w2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
        phi = PositiveLinearMap((w1, w2))
        assert (phi.dim_in, phi.dim_out) == (3, 2)
        assert list(inspect.signature(PositiveLinearMap).parameters) == ["kraus"]

    @pytest.mark.parametrize("kraus, message", [
        ((), "nonempty"),
        ((np.ones(2),), "2-D"),
        ((np.eye(2), np.eye(3)), r"\(3, 3\) != \(2, 2\)"),
    ], ids=["empty", "1-D", "mismatched"])
    def test_malformed_factors_are_rejected(self, kraus, message):
        with pytest.raises(ValueError, match=message):
            PositiveLinearMap(kraus)

    def test_preserves_positive_cone(self):
        rng = np.random.default_rng(10)
        for i in range(1000):
            dim = 2 + i % 3
            phi = gen_positive_linear_map(dim, max(1, dim - 1), 1 + i % 2, rng)
            g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            psd = g.conj().T @ g
            psd = (psd + psd.conj().T) / 2
            out = apply_map(phi, psd)
            assert float(np.linalg.eigvalsh(out)[0]) >= -1e-10


class TestConnections:
    def test_identity_function_returns_b(self):
        rng = np.random.default_rng(4)
        a = gen_hermitian_in_window(3, POSITIVE, rng)
        b = gen_hermitian_in_window(3, POSITIVE, rng)
        assert np.max(np.abs(f_connection(a, b, lambda t: t) - b)) < 1e-10

    def test_constant_one_returns_a(self):
        rng = np.random.default_rng(5)
        a = gen_hermitian_in_window(3, POSITIVE, rng)
        b = gen_hermitian_in_window(3, POSITIVE, rng)
        assert np.max(np.abs(f_connection(a, b, lambda t: t ** 0.0) - a)) < 1e-10

    def test_commuting_diagonal_case(self):
        a = diag(1.0, 4.0)
        b = diag(2.0, 2.0)
        f = lambda t: t ** -0.5
        out = f_connection(a, b, f)
        expected = diag(1.0 * f(2.0 / 1.0), 4.0 * f(2.0 / 4.0))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_conditioning_guard(self):
        with pytest.raises(DomainError):
            f_connection(diag(1.0, 1e-12), np.eye(2), lambda t: t)


class TestSharp:
    def test_weight_endpoints(self):
        rng = np.random.default_rng(6)
        a = gen_hermitian_in_window(3, POSITIVE, rng)
        b = gen_hermitian_in_window(3, POSITIVE, rng)
        assert np.max(np.abs(sharp(a, b, 0.0) - a)) < 1e-10
        assert np.max(np.abs(sharp(a, b, 1.0) - b)) < 1e-10

    def test_equal_operands_fixed_point(self):
        a = gen_hermitian_in_window(3, POSITIVE, np.random.default_rng(7))
        for v in (-1.0, -0.5, 0.3, 2.0):
            assert np.max(np.abs(sharp(a, a, v) - a)) < 1e-9

    def test_scalar_geometric_mean(self):
        out = sharp(diag(1.0), diag(4.0), 0.5)
        assert out[0, 0].real == pytest.approx(2.0, abs=1e-12)

    def test_congruence_covariance(self):
        # T* (A #_v B) T = (T* A T) #_v (T* B T) for invertible T
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = gen_hermitian_in_window(3, POSITIVE, rng)
            b = gen_hermitian_in_window(3, POSITIVE, rng)
            t = gen_hermitian_in_window(3, SpectralWindow(0.5, 2.0), rng) \
                @ haar_unitary(3, rng)
            for v in (-1.0, -0.5, 0.5):
                lhs = t.conj().T @ sharp(a, b, v) @ t
                rhs = sharp(t.conj().T @ a @ t, t.conj().T @ b @ t, v)
                assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestTsallisEntropy:
    def test_equal_operands_vanish(self):
        a = gen_hermitian_in_window(3, POSITIVE, np.random.default_rng(9))
        assert np.max(np.abs(tsallis_entropy(a, a, -1.0))) < 1e-10

    def test_scalar_value(self):
        # (1 * (2/1)^(-1) - 1)/(-1) = 1/2
        out = tsallis_entropy(diag(1.0), diag(2.0), -1.0)
        assert out[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_commuting_diagonal_matches_scalar_formula(self):
        a = diag(1.0, 2.0, 0.5)
        b = diag(3.0, 1.0, 2.0)
        p = -0.5
        out = tsallis_entropy(a, b, p)
        expected = np.diag([(av * (bv / av) ** p - av) / p
                            for av, bv in ((1, 3), (2, 1), (0.5, 2))])
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_parameter_validation(self):
        a = np.eye(2)
        for p in (0.0, 0.5):
            with pytest.raises(ParameterError):
                tsallis_entropy(a, a, p)


class TestMapMeanInequalities:
    def _corpus(self, count):
        rng = np.random.default_rng(55)
        for i in range(count):
            dim = 2 + i % 3
            a = gen_hermitian_in_window(dim, POSITIVE, rng)
            b = gen_hermitian_in_window(dim, POSITIVE, rng)
            phi = gen_positive_linear_map(dim, max(2, dim - 1), 1 + i % 3, rng)
            yield a, b, phi

    def test_map_mean_forward_inequality(self):
        # Phi(A) #_p Phi(B) <= Phi(A #_p B) on 500 seeded instances, p in [-1, 0)
        for a, b, phi in self._corpus(500):
            for p in (-1.0, -0.5, -0.25):
                lhs = sharp(apply_map(phi, a), apply_map(phi, b), p)
                rhs = apply_map(phi, sharp(a, b, p))
                assert loewner_leq(lhs, rhs).min_slack >= -1e-8

    def test_entropy_forward_inequality(self):
        # Phi(T_p(A|B)) <= T_p(Phi(A)|Phi(B)) on the same corpus
        for a, b, phi in self._corpus(500):
            for p in (-1.0, -0.5, -0.25):
                lhs = apply_map(phi, tsallis_entropy(a, b, p))
                rhs = tsallis_entropy(apply_map(phi, a), apply_map(phi, b), p)
                assert loewner_leq(lhs, rhs).min_slack >= -1e-8
