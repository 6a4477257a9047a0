import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantcheck import constants
from kantcheck.constants import (
    ExtremumResult,
    alpha_ratio,
    beta_generic,
    beta_power_closed,
    chord_coefficients,
    grid_max_1d,
    kantorovich_C,
    kantorovich_C2,
    kantorovich_K,
    kantorovich_K2,
    power_fun,
)
from kantcheck.errors import DomainError, ParameterError
from kantcheck.hermitian import SpectralWindow, eval_scalar

W12 = SpectralWindow(1.0, 2.0)
WINDOWS = [SpectralWindow(1.0, 2.0), SpectralWindow(0.5, 4.0), SpectralWindow(2.0, 3.0)]
SQRT2 = math.sqrt(2.0)
# t^-1 is undefined at 0.0, the window's lower endpoint
ZERO_ENDED = SpectralWindow(0.0, 2.0)


def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestChord:
    def test_constant_function(self):
        c = chord_coefficients(lambda t: 4.5, W12)
        assert c.slope == 0.0 and c.intercept == 4.5

    def test_identity_function(self):
        c = chord_coefficients(lambda t: t, SpectralWindow(0.3, 5.0))
        assert c.slope == pytest.approx(1.0) and c.intercept == pytest.approx(0.0)

    def test_inverse_on_unit_window(self):
        # slope (1/2 - 1)/1 = -1/2, intercept 2*1 - 1*(1/2) = 3/2
        c = chord_coefficients(power_fun(-1.0), W12)
        assert c.slope == pytest.approx(-0.5, abs=1e-15)
        assert c.intercept == pytest.approx(1.5, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(0.1, 5.0), width=st.floats(0.1, 5.0), p=st.floats(-3.0, 3.0))
    def test_matches_endpoints(self, m, width, p):
        w = SpectralWindow(m, m + width)
        f = power_fun(p)
        c = chord_coefficients(f, w)
        assert rel_close(c.at(w.m), f(w.m), 1e-12)
        assert rel_close(c.at(w.M), f(w.M), 1e-12)

    def test_undefined_endpoint_raises_domain_error(self):
        with pytest.raises(DomainError, match="undefined at t=0.0"):
            chord_coefficients(power_fun(-1.0), ZERO_ENDED)
        with pytest.raises(DomainError, match="non-finite at t=2.0"):
            chord_coefficients(lambda t: math.inf if t == 2.0 else t, ZERO_ENDED)

    def test_intercept_nonnegative_for_nonpositive_exponents(self):
        # chord intercept of t^p is provably >= 0 on 0 < m < M when p <= 0
        for w in WINDOWS:
            for p in np.linspace(-3.0, 0.0, 13):
                assert chord_coefficients(power_fun(float(p)), w).intercept >= -1e-15


class TestGridMax:
    def test_interior_parabola(self):
        res = grid_max_1d(lambda t: -((t - 1.5) ** 2), W12)
        assert res.t_star == pytest.approx(1.5, abs=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_max(self):
        res = grid_max_1d(lambda t: t, W12)
        assert res.t_star == 2.0 and res.value == 2.0

    def test_interior_stationary_point(self):
        # d/dt(-t/2 + 3/2 - 1/t) = -1/2 + 1/t^2 = 0 at t = sqrt(2)
        res = grid_max_1d(lambda t: -0.5 * t + 1.5 - 1.0 / t, W12)
        assert res.t_star == pytest.approx(SQRT2, abs=1e-6)
        assert res.value == pytest.approx(1.5 - SQRT2, abs=1e-12)

    def test_result_holds_location_and_value(self):
        assert [f.name for f in dataclasses.fields(ExtremumResult)] == ["t_star", "value"]

    def test_non_finite_objective(self):
        with pytest.raises(DomainError):
            grid_max_1d(lambda t: 1.0 / (t - 1.5), W12)

    def test_undefined_endpoint_raises_domain_error(self):
        with pytest.raises(DomainError, match="non-finite at t=0.0"):
            grid_max_1d(power_fun(-1.0), ZERO_ENDED)


class TestBetaGeneric:
    def test_calibrated_alpha_gives_zero(self):
        alpha = (2.0 + 1.0) ** 2 / (4.0 * 2.0 * 1.0)  # 9/8
        res = beta_generic(power_fun(-1.0), power_fun(-1.0), alpha, W12)
        assert abs(res.value) < 1e-12

    def test_alpha_zero_reduces_to_chord_max(self):
        for p in (-2.0, -0.5):
            res = beta_generic(power_fun(p), power_fun(p), 0.0, W12)
            assert res.value == pytest.approx(max(W12.m ** p, W12.M ** p), abs=1e-12)

    def test_unit_alpha_inverse_pair(self):
        # oracle maximum of -t/2 + 3/2 - 1/t over [1, 2]: attained at sqrt(2)
        res = beta_generic(power_fun(-1.0), power_fun(-1.0), 1.0, W12)
        assert res.value == pytest.approx(1.5 - SQRT2, abs=1e-12)
        assert res.t_star == pytest.approx(SQRT2, abs=1e-6)

    def test_requires_positive_f(self):
        with pytest.raises(DomainError):
            beta_generic(lambda t: t - 1.5, power_fun(-1.0), 1.0, W12)

    def test_undefined_endpoint_raises_domain_error(self):
        with pytest.raises(DomainError, match="undefined at t=0.0"):
            beta_generic(power_fun(-1.0), power_fun(-0.5), 1.0, ZERO_ENDED)

    def test_f_is_evaluated_once_at_each_endpoint(self):
        # the positivity check's values of f(m) and f(M) also make the chord
        calls = []

        def f(t):
            calls.append(t)
            return t ** -1.0

        beta_generic(f, power_fun(-0.5), 1.0, W12)
        assert calls == [1.0, 2.0]


class TestBetaPowerClosed:
    def test_paper_zero_calibration(self):
        assert beta_power_closed(W12, -1.0, -1.0, 9.0 / 8.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_at_unit_alpha(self):
        assert beta_power_closed(W12, -1.0, -1.0, 1.0) == pytest.approx(1.5 - SQRT2, abs=1e-12)

    def test_interior_branch_against_oracle(self):
        closed = beta_power_closed(W12, -2.0, -1.0, 1.0)
        oracle = beta_generic(power_fun(-2.0), power_fun(-1.0), 1.0, W12).value
        assert rel_close(closed, oracle)

    def test_degenerate_exponent(self):
        # at q = 0 the gap chord(t^p) - alpha is linear, largest at m for p < 0
        for w in WINDOWS:
            for p in (-1.0, -2.5):
                for alpha in (0.5, 2.0):
                    assert beta_power_closed(w, p, 0.0, alpha) == w.m ** p - alpha
        # q = 1 lies outside the regime q <= 0
        with pytest.raises(ParameterError, match="q <= 0"):
            beta_power_closed(W12, -1.0, 1.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            beta_power_closed(W12, -1.0, -1.0, -2.0)
        with pytest.raises(ParameterError):
            beta_power_closed(W12, 0.5, -1.0, 1.0)


class TestKantorovichK:
    def test_inverse_exponent(self):
        # equals the classic (M+m)^2/(4Mm) at p = -1
        assert kantorovich_K(W12, -1.0) == pytest.approx(9.0 / 8.0, abs=1e-14)

    def test_square_exponent(self):
        assert kantorovich_K(W12, 2.0) == pytest.approx(9.0 / 8.0, abs=1e-14)

    def test_oracle_equivalence_both_regimes(self):
        for w in WINDOWS:
            for p in list(np.linspace(-3.0, -0.1, 9)) + list(np.linspace(1.1, 3.0, 7)):
                oracle = alpha_ratio(power_fun(float(p)), power_fun(float(p)), w).value
                assert rel_close(kantorovich_K(w, float(p)), oracle), (w, p)

    def test_degenerate_exponents(self):
        # chord(t^0)/t^0 = 1 and chord(t)/t = 1: K is 1 at both, exactly
        for w in WINDOWS:
            for p in (0.0, 1.0):
                assert kantorovich_K(w, p) == 1.0


class TestKantorovichK2:
    def test_endpoint_branch_value(self):
        # max of -t^{1.5}/2 + 3 t^{0.5}/2 on [1, 2] is attained at t = 1
        assert kantorovich_K2(W12, -1.0, -0.5) == pytest.approx(1.0, abs=1e-12)

    def test_classic_value(self):
        assert kantorovich_K2(W12, -1.0, -1.0) == pytest.approx(9.0 / 8.0, abs=1e-14)

    def test_equal_exponents_reduce_to_single_parameter_constant(self):
        for w in WINDOWS:
            for p in (-1.0, -0.5, -0.25, -2.0):
                assert abs(kantorovich_K2(w, p, p) - kantorovich_K(w, p)) < 1e-12

    def test_branch_seam_agreement(self):
        # at (1,2,-1,-0.5) the touch point sits exactly on t = m: both branch
        # expressions must agree there
        w, p, q = W12, -1.0, -0.5
        m, M = w.m, w.M
        num = m * M ** p - M * m ** p
        dpow = M ** p - m ** p
        interior = num / ((q - 1.0) * w.width) * ((q - 1.0) / q * dpow / num) ** q
        endpoint = max(m ** (p - q), M ** (p - q))
        assert abs(interior - endpoint) < 1e-8


class TestDifferenceConstants:
    def test_c2_inverse_pair(self):
        assert kantorovich_C2(W12, -1.0, -1.0) == pytest.approx(1.5 - SQRT2, abs=1e-12)

    def test_c2_equal_exponents_consistency(self):
        for w in WINDOWS:
            for p in (-1.0, -0.5, -2.0):
                assert abs(kantorovich_C2(w, p, p) - kantorovich_C(w, p)) < 1e-12

    def test_c2_against_oracle(self):
        closed = kantorovich_C2(W12, -2.0, -1.0)
        oracle = beta_generic(power_fun(-2.0), power_fun(-1.0), 1.0, W12).value
        assert rel_close(closed, oracle)

    def test_c_values(self):
        assert kantorovich_C(W12, -1.0) == pytest.approx(1.5 - SQRT2, abs=1e-12)
        oracle = beta_generic(power_fun(-0.5), power_fun(-0.5), 1.0, W12).value
        assert rel_close(kantorovich_C(W12, -0.5), oracle)

    def test_c_regime_validation(self):
        with pytest.raises(ParameterError):
            kantorovich_C(W12, 0.5)
        # chord(t^0) - t^0 = 0 on the whole window
        for w in WINDOWS:
            assert kantorovich_C(w, 0.0) == 0.0


# exponents at and beside the degenerate set {0, 1}, and windows up to
# (1e-13, 1), where K2's touch point at q = 0 sits within the branch slack
# of m
DEGENERATE_WINDOWS = [*WINDOWS, SpectralWindow(0.01, 100.0), SpectralWindow(1e-13, 1.0)]
DEGENERATE_PS = (-3.0, -1.0, -0.25, 0.0, -1e-13)


class TestDegenerateExponents:
    """Each closed form's endpoint branch is its constant's exact maximum at
    q within 1e-12 of 0 or 1 and at p = 0; the oracle agrees to 1e-6."""

    @pytest.mark.parametrize("w", DEGENERATE_WINDOWS, ids=repr)
    def test_ratio_constants_match_the_oracle(self, w):
        for p in DEGENERATE_PS:
            for q in (0.0, 1e-13, -1e-13, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, -1.0):
                oracle = alpha_ratio(power_fun(p), power_fun(q), w).value
                assert rel_close(kantorovich_K2(w, p, q), oracle), (p, q)
        for p in (0.0, 1e-13, -1e-13, 1.0, 1.0 + 1e-13, 1.0 - 1e-13):
            oracle = alpha_ratio(power_fun(p), power_fun(p), w).value
            assert rel_close(kantorovich_K(w, p), oracle), p

    @pytest.mark.parametrize("w", DEGENERATE_WINDOWS, ids=repr)
    def test_gap_constants_match_the_oracle(self, w):
        for p in DEGENERATE_PS:
            for q in (0.0, -1e-13, -1.0):
                for alpha in (0.5, 1.0, 2.0):
                    oracle = beta_generic(power_fun(p), power_fun(q), alpha, w).value
                    assert rel_close(beta_power_closed(w, p, q, alpha), oracle), (p, q, alpha)
                oracle = beta_generic(power_fun(p), power_fun(q), 1.0, w).value
                assert rel_close(kantorovich_C2(w, p, q), oracle), (p, q)
        for p in (0.0, -1e-13):
            oracle = beta_generic(power_fun(p), power_fun(p), 1.0, w).value
            assert rel_close(kantorovich_C(w, p), oracle), p

    def test_a_tolerance_routes_the_near_zero_q(self):
        # at q = 1e-13 on (1e-13, 1) K2's touch point q * num / den lies
        # inside the branch slack of m, where the interior formula's power
        # of a negative base is complex
        w = SpectralWindow(1e-13, 1.0)
        assert kantorovich_K2(w, -1.0, 1e-13) == max(w.m ** (-1.0 - 1e-13), w.M ** (-1.0 - 1e-13))


class TestAlphaRatio:
    def test_equal_functions_bounded_below_by_one(self):
        for p in (-2.0, -1.0, -0.3):
            assert alpha_ratio(power_fun(p), power_fun(p), W12).value >= 1.0 - 1e-12

    def test_affine_function_is_tight(self):
        res = alpha_ratio(lambda t: t, lambda t: t, W12)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_known_values(self):
        assert alpha_ratio(power_fun(-1.0), power_fun(-1.0), W12).value == pytest.approx(9.0 / 8.0, abs=1e-9)
        assert alpha_ratio(power_fun(-1.0), power_fun(-0.5), W12).value == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_g(self):
        with pytest.raises(DomainError):
            alpha_ratio(power_fun(-1.0), lambda t: t - 1.5, W12)

    def test_undefined_endpoint_raises_domain_error(self):
        with pytest.raises(DomainError, match="undefined at t=0.0"):
            alpha_ratio(power_fun(-1.0), power_fun(-0.5), ZERO_ENDED)

    def test_g_non_positive_at_one_grid_point_raises(self):
        # grid point 137 of (1, 2) is none of 2001 evenly spaced points, so
        # a sign test on such a probe misses it; the scan divides by it
        bad = float(constants._scan_arena(W12)[0][137])
        assert bad not in np.linspace(W12.m, W12.M, 2001)

        def g(t):
            return np.where(t == bad, -1.0, t ** -0.5)

        with pytest.raises(DomainError, match="^g must be positive on the window$"):
            alpha_ratio(power_fun(-1.0), g, W12)

    @pytest.mark.parametrize("w", [W12, SpectralWindow(0.05, 20.0)])
    def test_grid_values_are_the_objective_on_the_grid(self, monkeypatch, w):
        # the scans build chord(f) / g and chord(f) - alpha * g on the grid
        # in place, from g's grid values; those must be, bit for bit, the
        # values of the objective h that the golden-section steps evaluate
        seen = []
        real = constants._refine

        def spy(h, window, ts, ys):
            seen.append((h, ts, ys))
            return real(h, window, ts, ys)

        monkeypatch.setattr(constants, "_refine", spy)
        f = power_fun(-2.0)
        for e in (-1.0, -0.6):
            g = power_fun(e)
            alpha_ratio(f, g, w)
            for alpha in (1.0, 2.5, -0.5):
                beta_generic(f, g, alpha, w)
        assert len(seen) == 8
        grid = np.linspace(w.m, w.M, constants.GRID_RESOLUTION + 1)
        for h, ts, ys in seen:
            assert np.array_equal(ts, grid)
            assert np.array_equal(ys, eval_scalar(h, grid))


class TestScanArena:
    def test_scans_of_a_window_share_one_read_only_grid(self, monkeypatch):
        seen = []
        real = constants._refine

        def spy(h, window, ts, ys):
            seen.append(ts)
            return real(h, window, ts, ys)

        monkeypatch.setattr(constants, "_refine", spy)
        w = SpectralWindow(0.5, 4.0)
        alpha_ratio(power_fun(-1.0), power_fun(-0.5), w)
        grid, scratch = constants._scan_arena(w)
        beta_generic(power_fun(-2.0), power_fun(-0.25), 1.5, w)
        grid_max_1d(power_fun(-1.0), w)
        assert seen[0] is seen[1] is seen[2] is grid
        assert np.array_equal(grid, np.linspace(w.m, w.M, constants.GRID_RESOLUTION + 1))
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0
        # the scratch buffer is the window's too
        assert constants._scan_arena(w)[1] is scratch

    @pytest.mark.parametrize("w", [W12, SpectralWindow(0.05, 20.0)])
    def test_scratch_contents_do_not_reach_a_scan(self, w):
        f, g = power_fun(-2.0), power_fun(-0.6)
        scans = [lambda: alpha_ratio(f, g, w), lambda: beta_generic(f, g, 1.0, w),
                 lambda: beta_generic(f, g, -0.5, w)]
        clean = [scan() for scan in scans]
        for scan, want in zip(scans, clean):
            _, scratch = constants._scan_arena(w)
            scratch.fill(np.nan)
            got = scan()
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert np.float64(got.t_star).tobytes() == np.float64(want.t_star).tobytes()

    def test_arena_is_kept_for_the_last_window_only(self):
        constants._scan_arena.cache_clear()
        for w in (W12, W12, SpectralWindow(0.5, 4.0), W12):
            alpha_ratio(power_fun(-1.0), power_fun(-0.5), w)
        info = constants._scan_arena.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (3, 1, 1)


class TestGridPowers:
    """The campaign's scans of t^p against t^q read t^q on the grid from
    ``constants._grid_power`` and give the public scans' results bit for bit."""

    @pytest.mark.parametrize("w", [W12, SpectralWindow(0.5, 4.0), SpectralWindow(0.05, 20.0)],
                             ids=["1-2", "0.5-4", "0.05-20"])
    @pytest.mark.parametrize("p, q, alpha", [(-1.0, -1.0, 1.0), (-2.5, -0.5, 1.0),
                                             (-0.3, -0.8, 0.7), (-4.0, -1.0, 2.5)])
    def test_power_scans_equal_the_public_scans(self, w, p, q, alpha):
        f, g = power_fun(p), power_fun(q)
        for got, want in ((constants._power_ratio(w, p, q), alpha_ratio(f, g, w)),
                          (constants._power_gap(w, p, q, alpha), beta_generic(f, g, alpha, w))):
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert np.float64(got.t_star).tobytes() == np.float64(want.t_star).tobytes()

    def test_a_grid_power_is_evaluated_once_and_read_only(self, monkeypatch):
        constants._grid_power.cache_clear()
        evaluated = []
        real = constants.eval_scalar
        monkeypatch.setattr(constants, "eval_scalar", lambda g, ts: evaluated.append(g) or real(g, ts))
        w = SpectralWindow(0.5, 4.0)
        for p in (-1.0, -2.0, -3.0):
            constants._power_ratio(w, p, -0.5)
            constants._power_gap(w, p, -0.5, 1.0)
        assert len(evaluated) == 1
        ys = constants._grid_power(w, -0.5)
        assert np.array_equal(ys, constants._scan_arena(w)[0] ** -0.5)
        with pytest.raises(ValueError, match="read-only"):
            ys[0] = 0.0

    def test_four_grid_powers_are_kept(self):
        constants._grid_power.cache_clear()
        for q in (-0.25, -0.5, -0.75, -1.0, -0.25, -0.125, -0.5):
            constants._power_ratio(W12, -1.0, q)
        info = constants._grid_power.cache_info()
        # -0.25 is kept; -0.125 pushes out -0.5, which is then made again
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 6, 4, 4)


def _scalar_only(value):
    """A power t^-0.5 on arrays that, called on one float, returns ``value``,
    or raises ValueError if it is None."""
    def g(t):
        if np.ndim(t) == 0:
            if value is None:
                raise ValueError("scalar call")
            return value
        return t ** -0.5
    return g


class TestLeanScan:
    """The checks an oracle scan keeps however it builds its objective."""

    def test_infinite_g_at_one_grid_point_names_that_point(self):
        # chord - alpha * inf is -inf there: the grid's argmax alone misses it
        bad = float(constants._scan_arena(W12)[0][137])

        def g(t):
            return np.where(t == bad, np.inf, t ** -0.5)

        for alpha in (1.0, 2.5):
            with pytest.raises(DomainError, match=f"^scalar function non-finite at t={bad!r}$"):
                beta_generic(power_fun(-1.0), g, alpha, W12)

    @pytest.mark.parametrize("scan", [
        lambda g: alpha_ratio(power_fun(-1.0), g, W12),
        lambda g: beta_generic(power_fun(-1.0), g, 1.0, W12),
    ], ids=["ratio", "gap"])
    def test_infinite_g_off_the_positivity_probe_names_its_grid_point(self, scan):
        # chord / inf is a finite 0.0, so the ratio's objective passes its own
        # check there; g's grid values must show the infinity.  Grid point 137
        # of (1, 2) is none of 2001 evenly spaced points, as a sign probe
        # would take them.
        bad = float(constants._scan_arena(W12)[0][137])
        assert bad not in np.linspace(W12.m, W12.M, 2001)

        def g(t):
            return np.where(t == bad, np.inf, t ** -0.5)

        with pytest.raises(DomainError, match=f"^{re.escape(f'scalar function non-finite at t={bad!r}')}$"):
            scan(g)

    def test_each_scan_evaluates_g_on_the_grid_once_and_on_no_other_array(self):
        sizes = []

        def g(t):
            sizes.append(np.size(t))
            return t ** -0.5

        for alpha in (0.5, 1.0, 2.5):
            beta_generic(power_fun(-1.0), g, alpha, W12)
        alpha_ratio(power_fun(-1.0), g, W12)
        arrays = [size for size in sizes if size > 1]
        assert arrays == [constants.GRID_RESOLUTION + 1] * 4

    @pytest.mark.parametrize("scan", [
        lambda g: alpha_ratio(power_fun(-1.0), g, W12),
        lambda g: beta_generic(power_fun(-1.0), g, 1.0, W12),
        lambda g: beta_generic(power_fun(-1.0), g, 2.5, W12),
    ], ids=["ratio", "gap", "gap_alpha_2.5"])
    @pytest.mark.parametrize("value, message", [
        (None, "^function undefined at t="),
        (math.nan, "^function non-finite at t="),
    ], ids=["raises", "nan"])
    def test_golden_section_points_are_checked(self, scan, value, message):
        with pytest.raises(DomainError, match=message):
            scan(_scalar_only(value))

    @pytest.mark.parametrize("scan", [
        lambda g: alpha_ratio(power_fun(-1.0), g, W12),
        lambda g: beta_generic(power_fun(-1.0), g, 1.0, W12),
    ], ids=["ratio", "gap"])
    def test_infinite_g_at_a_golden_section_point(self, scan):
        # the gap turns g = inf into -inf; the ratio's chord / inf alone
        # would be a finite 0.0, so the ratio checks g itself
        with pytest.raises(DomainError, match=r"^function non-finite at t=1\.0000190983005626$"):
            scan(_scalar_only(math.inf))

    @pytest.mark.parametrize("w", [W12, SpectralWindow(0.5, 4.0), SpectralWindow(0.05, 20.0)])
    @pytest.mark.parametrize("e", [-1.0, -0.6])
    def test_scans_equal_grid_max_of_the_plain_objective(self, w, e):
        f, g = power_fun(-2.0), power_fun(e)
        chord = chord_coefficients(f, w)
        pairs = [(alpha_ratio(f, g, w), grid_max_1d(lambda t: chord.at(t) / g(t), w))]
        for alpha in (1.0, 2.5, -0.5):
            pairs.append((beta_generic(f, g, alpha, w),
                          grid_max_1d(lambda t: chord.at(t) - alpha * g(t), w)))
        for got, want in pairs:
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert np.float64(got.t_star).tobytes() == np.float64(want.t_star).tobytes()


class TestLockstep:
    """Many scans of one window refined in one golden-section pass."""

    def test_each_lane_is_the_lone_loop_bit_for_bit(self):
        # q = -1, 0.5 and 2 are where numpy's own power loops take fast paths
        rng = np.random.default_rng(7)
        qs = [-3.0, -1.0, -0.37, 0.5, 2.0, -2.2]
        lanes = []
        for w in WINDOWS:
            for p, q in zip(rng.uniform(-3.0, -0.05, len(qs)), qs):
                chord = chord_coefficients(power_fun(float(p)), w)
                lo = float(rng.uniform(w.m, w.M))
                lanes.append((lo, min(lo + 1e-3, w.M), chord.slope, chord.intercept, q))
        lo, hi, slope, intercept, q = (np.array(column * 2) for column in zip(*lanes))
        n = len(lanes)
        got = constants._golden_max_lockstep(lo, hi, slope, intercept, q, n)
        for k, (a, b, s, c, e) in enumerate(lanes * 2):
            if k < n:
                h = lambda t: (s * t + c) / t ** e
            else:
                h = lambda t: s * t + c - t ** e
            _, want = constants._golden_max(h, a, b, constants.GOLDEN_ITERS)
            assert np.float64(got[k]).tobytes() == np.float64(want).tobytes(), k

    @pytest.mark.parametrize("lo", [1e-120, 1e200], ids=["overflow", "underflow"])
    def test_a_non_finite_golden_value_raises(self, lo):
        # the second lane's t^-3 is inf, or 0.0 under a chord, at its golden points
        with pytest.raises(DomainError), np.errstate(all="ignore"):
            constants._golden_max_lockstep(np.array([1.0, lo]), np.array([2.0, 2.0 * lo]),
                                           np.ones(2), np.ones(2), np.array([-1.0, -3.0]), 2)

    @staticmethod
    def lone_scans(w, ps, qs):
        """What ``_chord_power_maxima`` returns, from the public scans."""
        def lone(p, e):
            f, g = power_fun(p), power_fun(e)
            return alpha_ratio(f, g, w).value, beta_generic(f, g, 1.0, w).value

        return [lone(p, p) for p in ps], [[lone(p, q) for p in ps] for q in qs]

    def test_maxima_are_the_lone_scans(self):
        # by_p[i] is p_i against itself, by_q[j][i] p_i against q_j; -1.0 is
        # in both grids
        w = SpectralWindow(0.5, 4.0)
        ps, qs = [-2.5, -1.0, -0.2], [-1.0, -0.6]
        by_p, by_q = constants._chord_power_maxima(w, ps, qs)
        assert len(by_p) == 3 and len(by_q) == 2 and all(len(row) == 3 for row in by_q)
        want_p, want_q = self.lone_scans(w, ps, qs)
        assert np.array(by_p).tobytes() == np.array(want_p).tobytes()
        assert np.array(by_q).tobytes() == np.array(want_q).tobytes()

    @pytest.mark.parametrize("w", WINDOWS + [SpectralWindow(0.05, 20.0)])
    def test_given_exponents_it_returns_the_public_scans_bit_for_bit(self, w):
        # q = -1, 0.5 and 2 are where numpy's own power loops take fast paths
        rng = np.random.default_rng(11)
        ps = [float(p) for p in rng.uniform(-3.0, -0.05, 5)]
        qs = [-1.0, 0.5, 2.0] + [float(q) for q in rng.uniform(-1.0, -0.05, 3)]
        got = constants._chord_power_maxima(w, ps, qs)
        want = self.lone_scans(w, ps, qs)
        for got_part, want_part in zip(got, want):
            assert np.array(got_part).tobytes() == np.array(want_part).tobytes()

    def test_a_failing_scan_is_made_again_alone(self):
        # on (-1, 1), g = t^-0.5 is not real at t = -1.0 and g = t^-2 is
        # inf at t = 0.0; t^0 is 1.0 everywhere, so p = 0 against itself
        # passes.  The lone scans run each p against itself, then every p
        # against each q, and the first failing one gives the error.
        w = SpectralWindow(-1.0, 1.0)
        lone = {}
        for e in (-0.5, -2.0):
            with pytest.raises(DomainError) as raised:
                alpha_ratio(power_fun(0.0), power_fun(e), w)
            lone[e] = str(raised.value)
        assert lone[-0.5] != lone[-2.0]
        for ps, qs, first in [([0.0], [-0.5, -2.0], -0.5), ([0.0], [-2.0, -0.5], -2.0),
                              ([0.0, -2.0], [-0.5], -2.0)]:
            with pytest.raises(DomainError) as lockstep:
                constants._chord_power_maxima(w, ps, qs)
            assert str(lockstep.value) == lone[first], (ps, qs)
        # t^2 is 0.0 at the grid point 0.0 of (-1, 1): the grid pass's own
        # sign check raises no message; the lone scan gives it
        assert 0.0 in constants._scan_arena(w)[0]
        with pytest.raises(DomainError) as bare:
            constants._maxima_in_lockstep(w, [2.0], [])
        assert str(bare.value) == ""
        with pytest.raises(DomainError, match="^g must be positive on the window$"):
            constants._chord_power_maxima(w, [2.0], [])


class TestModuleInvariants:
    def test_oracle_equivalence_grid(self):
        # reduced version of the acceptance grid; the acceptance suite runs
        # the full 25 x 20 resolution
        for w in WINDOWS:
            for p in np.linspace(-3.0, -0.05, 7):
                p = float(p)
                assert rel_close(kantorovich_K(w, p),
                                 alpha_ratio(power_fun(p), power_fun(p), w).value)
                assert rel_close(kantorovich_C(w, p),
                                 beta_generic(power_fun(p), power_fun(p), 1.0, w).value)
                for q in np.linspace(-1.0, -0.05, 5):
                    q = float(q)
                    assert rel_close(kantorovich_K2(w, p, q),
                                     alpha_ratio(power_fun(p), power_fun(q), w).value)
                    assert rel_close(kantorovich_C2(w, p, q),
                                     beta_generic(power_fun(p), power_fun(q), 1.0, w).value)
                    assert rel_close(beta_power_closed(w, p, q, 0.7),
                                     beta_generic(power_fun(p), power_fun(q), 0.7, w).value)

    def test_chord_tightness_of_k2(self):
        # K2 t^q must touch the chord of t^p from above: refined minimum of
        # the gap is zero
        for w in WINDOWS:
            for p, q in ((-1.0, -1.0), (-2.0, -0.5), (-0.5, -0.75)):
                k2 = kantorovich_K2(w, p, q)
                chord = chord_coefficients(power_fun(p), w)
                gap = lambda t: k2 * t ** q - chord.at(t)
                refined_min = -grid_max_1d(lambda t: -gap(t), w).value
                assert abs(refined_min) < 1e-8, (w, p, q)
                assert refined_min > -1e-8

    def test_ratio_objective_concavity(self):
        # h(t) = a t^(1-q) + b t^(-q) has h'' <= 0 for p <= 0, -1 <= q < 0
        ts = np.linspace(W12.m, W12.M, 1000)
        for p in (-3.0, -1.0, -0.25):
            chord = chord_coefficients(power_fun(p), W12)
            for q in (-1.0, -0.6, -0.1):
                hpp = (ts ** (-q - 2.0)
                       * (q * (q - 1.0) * chord.slope * ts + q * (q + 1.0) * chord.intercept))
                assert float(np.max(hpp)) <= 1e-10

    def test_beta_vanishes_at_calibrated_alpha(self):
        for w in WINDOWS:
            for p, q in ((-1.0, -1.0), (-2.0, -0.5), (-0.25, -0.75)):
                alpha = alpha_ratio(power_fun(p), power_fun(q), w).value
                res = beta_generic(power_fun(p), power_fun(q), alpha, w)
                assert abs(res.value) < 1e-9
