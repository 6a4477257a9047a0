import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_oracle import jacobi_eigh
from kantcheck.errors import DomainError, HermiticityError, HypothesisError
from kantcheck.generators import gen_dominated_pair, gen_hermitian_in_window, haar_unitary
from kantcheck.hermitian import (
    SpectralWindow,
    apply_scalar_function,
    eig_hermitian,
    frobenius,
    geometric_interpolant,
    loewner_leq,
    loewner_verdicts,
    matrix_exp,
    matrix_from_json,
    matrix_log,
    matrix_power,
    matrix_to_json,
    require_hermitian,
    spectrum_in_window,
    superlog_bound,
)
from kantcheck.posmaps import sqrt_invsqrt

W12 = SpectralWindow(1.0, 2.0)


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=complex))


class TestEig:
    def test_diagonal_input(self):
        dec = eig_hermitian(diag(3, 1, 2))
        assert np.allclose(dec.eigenvalues, [1, 2, 3])
        # permutation eigenvectors: one unit entry per column, up to phase
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_identity(self):
        dec = eig_hermitian(np.eye(4))
        assert np.allclose(dec.eigenvalues, np.ones(4))

    def test_2x2_hand_solved(self):
        # char. polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l in {1, 3}
        dec = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
        expected = np.array([[1, 1], [-1, 1]]) / math.sqrt(2.0)
        for k in range(2):
            overlap = abs(np.vdot(dec.eigenvectors[:, k], expected[:, k]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 5, 8):
            a = gen_hermitian_in_window(dim, SpectralWindow(-2, 3), rng)
            dec = eig_hermitian(a)
            u = dec.eigenvectors
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10
            rebuilt = (u * dec.eigenvalues) @ u.conj().T
            assert np.max(np.abs(rebuilt - a)) < 1e-10 * (1 + np.max(np.abs(dec.eigenvalues)))

    def test_matches_jacobi_route(self):
        # independent eigensolver route: cyclic Jacobi rotations
        rng = np.random.default_rng(17)
        for dim in (2, 3, 4, 6):
            a = gen_hermitian_in_window(dim, SpectralWindow(0.5, 4.0), rng)
            jac_vals, jac_vecs = jacobi_eigh(a)
            dec = eig_hermitian(a)
            assert np.max(np.abs(jac_vals - dec.eigenvalues)) < 1e-11
            rebuilt = (jac_vecs * jac_vals) @ jac_vecs.conj().T
            assert np.max(np.abs(rebuilt - a)) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig_hermitian(np.eye(65))
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            loewner_leq(np.stack([diag(1, 2)] * 2), np.stack([diag(2, 3)] * 2))

    def test_one_matrix_entry_points_reject_a_stack(self):
        stack = np.stack([diag(1, 2), diag(1.5, 2)])
        for call in (lambda: require_hermitian(stack), lambda: matrix_power(stack, 2.0),
                     lambda: apply_scalar_function(stack, np.sqrt),
                     lambda: spectrum_in_window(stack, W12),
                     lambda: superlog_bound(stack, W12, 1.0, 2.0),
                     lambda: matrix_to_json(stack)):
            with pytest.raises(ValueError, match="must be square"):
                call()

    def test_stack_checks_and_decomposes_each_member(self):
        rng = np.random.default_rng(8)
        stack = np.stack([gen_hermitian_in_window(4, W12, rng) for _ in range(3)])
        dec = eig_hermitian(stack)
        for member, alone in zip(stack, dec.members()):
            fresh = eig_hermitian(member)
            assert np.array_equal(alone.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(alone.eigenvectors, fresh.eigenvectors)
        assert np.array_equal(dec.rebuild(dec.eigenvalues ** 2),
                              np.stack([matrix_power(m, 2.0) for m in dec.members()]))
        assert list(spectrum_in_window(dec, W12)) == [True, True, True]
        stack[1, 0, 3] += 1e-6
        with pytest.raises(HermiticityError):
            eig_hermitian(stack)


class TestFunctionalCalculus:
    def test_identity_function(self):
        a = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        assert np.allclose(apply_scalar_function(a, lambda t: t), a, atol=1e-14)

    def test_on_identity_matrix(self):
        out = apply_scalar_function(np.eye(3), lambda t: t ** 2 + 1.0)
        assert np.allclose(out, 2.0 * np.eye(3), atol=1e-14)

    def test_diagonal_sqrt(self):
        assert np.allclose(apply_scalar_function(diag(1, 4), np.sqrt), diag(1, 2), atol=1e-14)

    def test_undefined_at_eigenvalue(self):
        with pytest.raises(DomainError):
            apply_scalar_function(diag(-1, 1), math.log)
        with pytest.raises(DomainError):
            matrix_log(diag(-1, 1))
        with pytest.raises(DomainError):
            matrix_power(diag(0, 1), -1)

    def test_power_examples(self):
        assert np.allclose(matrix_power(diag(1, 2), 0.0), np.eye(2), atol=1e-14)
        assert np.allclose(matrix_power(diag(4), -1.0), diag(0.25), atol=1e-14)

    def test_log_exp_inverse_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = gen_hermitian_in_window(4, SpectralWindow(-5, 5), rng)
            assert np.max(np.abs(matrix_log(matrix_exp(a)) - a)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), dim=st.integers(1, 6))
    def test_composition_homomorphism(self, seed, dim):
        a = gen_hermitian_in_window(dim, SpectralWindow(-3, 3), np.random.default_rng(seed))
        composed = apply_scalar_function(a, lambda t: np.sqrt(np.exp(t)))
        chained = apply_scalar_function(matrix_exp(a), np.sqrt)
        assert np.max(np.abs(composed - chained)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), dim=st.integers(1, 6))
    def test_unitary_covariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = gen_hermitian_in_window(dim, SpectralWindow(0.5, 4.0), rng)
        u = haar_unitary(dim, rng)
        f = lambda t: t ** -0.5
        lhs = apply_scalar_function(u @ a @ u.conj().T, f)
        rhs = u @ apply_scalar_function(a, f) @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


SPECTRAL_FUNCTIONS = {
    "apply_scalar_function": lambda b: apply_scalar_function(b, np.sqrt),
    "matrix_power": lambda b: matrix_power(b, -0.75),
    "matrix_log": matrix_log,
    "matrix_exp": matrix_exp,
    "superlog_bound": lambda b: superlog_bound(b, SpectralWindow(1.0, 2.0), 1.0, 0.5),
    "sqrt": lambda b: sqrt_invsqrt(b)[0],
    "invsqrt": lambda b: sqrt_invsqrt(b)[1],
}


class TestDecompositionInput:
    """A spectral function given an operand's decomposition returns the same
    bits as given the operand, so a cached spectrum changes no report."""

    @pytest.mark.parametrize("name", sorted(SPECTRAL_FUNCTIONS))
    def test_same_array_as_from_the_matrix(self, name):
        pair = gen_dominated_pair(4, SpectralWindow(1.0, 2.0), seed=3)
        fn = SPECTRAL_FUNCTIONS[name]
        assert np.array_equal(fn(pair.spec_B), fn(pair.B))

    @pytest.mark.parametrize("dim", range(1, 65))
    def test_rebuild_of_value_rows_equals_each_row_alone(self, dim):
        rng = np.random.default_rng(100 + dim)
        dec = eig_hermitian(gen_hermitian_in_window(dim, SpectralWindow(0.5, 4.0), rng))
        for k in (1, 2, 3, 5):
            rows = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-6, 7, size=(k, 1))
            rows[rng.random(rows.shape) < 0.2] = -0.0
            stacked = dec.rebuild(rows)
            assert stacked.shape == (k, dim, dim)
            for row, member in zip(rows, stacked):
                assert member.tobytes() == dec.rebuild(row).tobytes(), k

    def test_window_test_on_a_decomposition(self):
        pair = gen_dominated_pair(4, SpectralWindow(1.0, 2.0), seed=3)
        for window in (SpectralWindow(1.0, 2.0), SpectralWindow(1.0, 1.01)):
            assert (spectrum_in_window(pair.spec_B, window)
                    == spectrum_in_window(pair.B, window))

    def test_spectra_are_cached_and_exact(self):
        pair = gen_dominated_pair(3, SpectralWindow(1.0, 2.0), seed=8)
        assert pair.spec_A is pair.spec_A
        fresh = eig_hermitian(pair.A)
        assert np.array_equal(pair.spec_A.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(pair.spec_A.eigenvectors, fresh.eigenvectors)


class TestLoewnerOrder:
    def test_reflexive(self):
        a = diag(1, 2)
        verdict = loewner_leq(a, a)
        assert verdict.holds and verdict.min_slack == 0.0

    def test_strictly_dominated_diagonal(self):
        verdict = loewner_leq(diag(1, 2), diag(2, 3))
        assert verdict.holds and verdict.min_slack == pytest.approx(1.0)

    def test_swap_fails(self):
        verdict = loewner_leq(diag(2, 1), diag(1, 2))
        assert not verdict.holds and verdict.min_slack == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(diag(1, 2), diag(1, 2, 3))

    def test_non_hermitian_argument_rejected(self):
        skew = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            loewner_leq(skew, diag(3, 3))
        with pytest.raises(HermiticityError):
            loewner_leq(diag(0, 0), skew)

    @pytest.mark.parametrize("dim", [2, 6, 64])
    def test_stacked_verdicts_equal_separate_calls(self, dim):
        for seed in range(4):
            pair = gen_dominated_pair(dim, W12, seed)
            lo = matrix_power(pair.spec_B, -1.0)
            mid = superlog_bound(pair.spec_B, W12, 1.0, 0.5)
            up = 1.125 * matrix_power(pair.spec_A, -1.0)
            tests = [(lo, mid), (mid, up), (lo, up), (up, lo)]
            assert loewner_verdicts(tests) == [loewner_leq(a, b) for a, b in tests]

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 16, 64])
    def test_stacked_tolerances_equal_one_norm_per_link(self, dim):
        """Each link's tolerance is rel_tol * (1 + frobenius(diff)) of its own
        difference, bit for bit, also where entries are exactly +0.0 or -0.0."""
        rng = np.random.default_rng(dim)
        for trial in range(20):
            k = 1 + trial % 7
            scale = 10.0 ** rng.integers(-8, 9, size=(k, 1, 1))
            x = scale * (rng.standard_normal((k, dim, dim))
                         + 1j * rng.standard_normal((k, dim, dim)))
            x[rng.random(x.shape) < 0.3] = 0.0
            x[rng.random(x.shape) < 0.3] = -0.0
            diffs = x + x.conj().swapaxes(-1, -2)
            if trial == 0:
                diffs[0] = -0.0
            # hermitize leaves an exactly Hermitian rhs - 0 as it is
            zero = np.zeros((dim, dim), dtype=complex)
            for rel_tol in (1e-8, 3e-13):
                verdicts = loewner_verdicts([(zero, diff) for diff in diffs], rel_tol)
                for diff, verdict in zip(diffs, verdicts):
                    assert verdict.tolerance_used == rel_tol * (1.0 + frobenius(diff)), (trial, k)

    def test_tolerance_policy_is_relative(self):
        a, b = diag(0, 0), diag(1e4, 1e4)
        verdict = loewner_leq(a, b, rel_tol=1e-8)
        assert verdict.tolerance_used == pytest.approx(1e-8 * (1.0 + frobenius(b - a)))

    def test_loewner_heinz_fractional_powers(self):
        # A <= B implies A^p <= B^p for p in [0, 1]: 1000 seeded pairs
        for seed in range(1000):
            pair = gen_dominated_pair(3, W12, seed)
            for p in (0.25, 0.5, 0.75, 1.0):
                verdict = loewner_leq(matrix_power(pair.A, p), matrix_power(pair.B, p))
                assert verdict.holds, (seed, p, verdict.min_slack)

    def test_squaring_breaks_the_order(self):
        # det(B0^2 - A0^2) = -1 < 0, so squaring must fail with real slack
        a = np.array([[1.0, 0.0], [0.0, 0.0]]) + 0.01 * np.eye(2)
        b = np.array([[2.0, 1.0], [1.0, 1.0]]) + 0.01 * np.eye(2)
        assert loewner_leq(a, b).holds
        verdict = loewner_leq(matrix_power(a, 2), matrix_power(b, 2))
        assert not verdict.holds
        assert verdict.min_slack <= -0.1


class TestSpectrumWindow:
    def test_examples(self):
        assert spectrum_in_window(diag(1, 2), W12)
        assert not spectrum_in_window(diag(0.5, 2), W12)
        assert spectrum_in_window(1.0 * np.eye(3), W12)

    def test_lower_endpoint(self):
        w = SpectralWindow(0.25, 7.0)
        assert spectrum_in_window(0.25 * np.eye(4), w)


class TestSuperlogBound:
    def test_left_endpoint(self):
        out = superlog_bound(1.0 * np.eye(3), W12, 5.0, 11.0)
        assert np.allclose(out, 5.0 * np.eye(3), atol=1e-12)

    def test_right_endpoint(self):
        out = superlog_bound(2.0 * np.eye(3), W12, 5.0, 11.0)
        assert np.allclose(out, 11.0 * np.eye(3), atol=1e-12)

    def test_two_route_evaluation(self):
        # the two affine terms commute, so the scalar-function route must
        # match the explicit matrix exponential of the affine combination
        rng = np.random.default_rng(9)
        for seed in range(10):
            b = gen_hermitian_in_window(4, W12, rng)
            fm, fM = 0.7, 3.1
            direct = superlog_bound(b, W12, fm, fM)
            eye = np.eye(4)
            exponent = ((W12.M * eye - b) * math.log(fm) + (b - W12.m * eye) * math.log(fM)) / W12.width
            assert np.max(np.abs(direct - matrix_exp(exponent))) < 1e-10

    def test_rejects_nonpositive_endpoint_values(self):
        with pytest.raises(DomainError):
            superlog_bound(np.eye(2), W12, 0.0, 1.0)
        with pytest.raises(DomainError):
            superlog_bound(np.eye(2), W12, 1.0, -2.0)

    def test_rejects_spectrum_outside_window(self):
        with pytest.raises(HypothesisError):
            superlog_bound(diag(0.5, 1.5), W12, 1.0, 2.0)

    def test_scalar_interpolation_double_inequality(self):
        # t^p <= G(t) <= chord(t) on dense samples, p in [-3, 0]
        rng = np.random.default_rng(31)
        for p in (-3.0, -2.0, -1.0, -0.4, 0.0):
            ts = W12.m + W12.width * rng.random(10_000)
            geo = (W12.m ** p) ** ((W12.M - ts) / W12.width) * (W12.M ** p) ** ((ts - W12.m) / W12.width)
            chord = ((W12.M ** p - W12.m ** p) * ts
                     + (W12.M * W12.m ** p - W12.m * W12.M ** p)) / W12.width
            assert float(np.min(geo - ts ** p)) >= -1e-12
            assert float(np.min(chord - geo)) >= -1e-12

    @pytest.mark.parametrize("window", [(1.0, 2.0), (0.05, 20.0), (10.0, 1000.0)])
    def test_geometric_interpolant_is_the_abstracts_formula(self, window):
        # G(t) = (m^p)^((M-t)/(M-m)) * (M^p)^((t-m)/(M-m)), written out with
        # powers instead of logarithms, on arrays and on single floats
        w = SpectralWindow(*window)
        m, M = w.m, w.M
        ts = np.linspace(m, M, 101)
        for p in (-3.0, -2.0, -1.0, -0.5, -0.1, 0.0):
            g = geometric_interpolant(w, math.log(m ** p), math.log(M ** p))
            expected = (m ** p) ** ((M - ts) / (M - m)) * (M ** p) ** ((ts - m) / (M - m))
            assert np.allclose(g(ts), expected, rtol=1e-12, atol=0.0), p
            for t in (m, float(ts[37]), 0.5 * (m + M), M):
                expected = (m ** p) ** ((M - t) / (M - m)) * (M ** p) ** ((t - m) / (M - m))
                assert math.isclose(g(t), expected, rel_tol=1e-12), (p, t)


class TestExchangeFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(77)
        a = gen_hermitian_in_window(5, SpectralWindow(-1, 2), rng)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_hermiticity_validation(self):
        broken = {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(HermiticityError):
            matrix_from_json(broken)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteEntries:
    """A NaN or infinite entry is malformed input, never a failed inequality."""

    CASES = [pytest.param(bad, entry, id=f"{name}-{where}")
             for bad, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"))
             for entry, where in (((0, 0), "diagonal"), ((0, 1), "off_diagonal"))]

    @staticmethod
    def _matrix(bad, entry):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[entry] = bad
        return a

    @pytest.mark.parametrize("bad, entry", CASES)
    def test_require_hermitian(self, bad, entry):
        with pytest.raises(ValueError, match="NaN or infinite"):
            require_hermitian(self._matrix(bad, entry), "A")

    @pytest.mark.parametrize("bad, entry", CASES)
    def test_matrix_from_json(self, bad, entry):
        re = [[1.0, 0.0], [0.0, 2.0]]
        re[entry[0]][entry[1]] = bad
        # Python's json reads the NaN and Infinity tokens as floats
        line = json.dumps({"dim": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ValueError, match="NaN or infinite"):
            matrix_from_json(json.loads(line))

    @pytest.mark.parametrize("bad, entry", CASES)
    def test_loewner_leq(self, bad, entry):
        with pytest.raises(ValueError, match="NaN or infinite"):
            loewner_leq(self._matrix(bad, entry), np.eye(2))
        with pytest.raises(ValueError, match="NaN or infinite"):
            loewner_leq(np.eye(2), self._matrix(bad, entry))

    @pytest.mark.parametrize("bad, entry", CASES)
    def test_eig_hermitian_stack_with_one_bad_member(self, bad, entry):
        stack = np.stack([diag(1, 2), self._matrix(bad, entry), diag(2, 3)])
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_hermitian(stack)
