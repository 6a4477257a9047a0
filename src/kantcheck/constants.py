"""Kantorovich-type scalar constants and their maximization oracle.

Every closed-form constant in this module is defined by a univariate
maximum over a spectral window.  The brute-force route each closed form is
validated against scans the objective on GRID_RESOLUTION equal cells of
the window, then refines around the best grid point by golden section; the
two routes must agree to 1e-6 relative on the supported exponent grids.
Each closed form is its constant's one route: at a degenerate exponent
(q within _DEGENERATE_EPS of 0 or 1, or p = 0) the maximized objective is
linear or monotone in t, and the endpoint branch gives its exact maximum.
``grid_max_1d`` scans any objective.  ``alpha_ratio`` and ``beta_generic``
scan chord(f) / g and chord(f) - alpha * g: each makes f's chord,
evaluates g on the grid once, and hands both to its body (``_ratio_scan``,
``_gap_scan``), which builds the objective from g's grid values in place
and refines it (``_refine``), the step every scan ends in.  A lone scan
evaluates every golden-section point afresh, one step at a time
(``_golden_max``).  ``_power_ratio`` and ``_power_gap`` are the two scans
of t^p against t^q, bit for bit, with t^q's grid values read from
``_grid_power``, which keeps the last four (window, q) evaluated; the
campaign's scans share their grid powers through it.

``_chord_power_maxima`` makes the ratio and the gap (alpha = 1) of the
chords of powers t^p against powers over one window, as the sweep needs
them, from its two exponent grids alone (each t^p against itself, and
every t^p against each t^q): a grid pass evaluates each power on the
grid once and finds each scan's best grid point, then one
golden-section pass refines every scan in lockstep
(``_golden_max_lockstep``), each lane making a lone scan's float
operations in the same order, so every value is bit for bit the lone
scan's.  If any check of the window fails, its scans are made again one
at a time, which raise the lone error.

Where each check lives: a ratio or gap scan checks g's grid values for
being real and finite (``hermitian.eval_scalar``); a ratio scan needs
it, since chord / inf is a finite 0.0.  A ratio scan then checks the
same values for being positive, so g is positive at every grid point
the scan divides by.  ``_grid_bracket`` checks the grid objective for
being finite (its largest and its smallest value, so a -inf is caught
too), which catches an objective that overflows although g is finite,
and raises the message ``eval_scalar`` raises; ``real_values`` checks
``grid_max_1d``'s objective for being real.  ``_golden_max`` checks
each step's value for being defined and finite itself, without a helper
call per step.  The chord objectives there are closures over the
chord's slope and intercept, which do the float operations
``ChordCoefficients.at`` does; the ratio's objective multiplies by
g(t) / g(t), 1.0 where g(t) is finite and NaN where it is not, so an
infinite g at a golden-section point is caught as the gap's -inf is.
The lockstep pass checks every step's t^q and objective values for
being finite, and the grid pass makes a lone scan's other checks (f
positive at m and M, t^q finite and positive on the grid); a failure
there sends the window to the lone scans.

Every scan of a window reads one read-only grid and writes one
grid-sized scratch buffer, the window's scan arena.  The arena of the
last window scanned is kept, so a campaign's or a sweep's scans of one
window allocate no grid-sized buffer but g's values and their objective
(and, in ``_chord_power_maxima``, one chord shared by a ratio and a
gap), and at most two such arrays are kept whatever the number of
windows, besides the four grid powers ``_grid_power`` keeps.  Scans
share the scratch buffer, so two must not run at once from two threads.
Endpoint values f(m) and f(M) are evaluated through
the same checks as golden-section points, once per scan (once per f in
``_chord_power_maxima``): an undefined or non-finite endpoint value
raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .hermitian import SpectralWindow, eval_scalar, real_values

GRID_RESOLUTION = 20_000
GOLDEN_ITERS = 60
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TOUCH_EPS = 1e-12
_DEGENERATE_EPS = 1e-12


def power_fun(p: float) -> Callable:
    """The scalar map t -> t^p, usable on floats and numpy arrays."""
    p = float(p)
    return lambda t: t ** p


@dataclass(frozen=True)
class ChordCoefficients:
    """Slope and intercept of the chord of f over a window."""

    slope: float
    intercept: float

    def at(self, t):
        return self.slope * t + self.intercept


def chord_coefficients(f, window: SpectralWindow) -> ChordCoefficients:
    """Chord of f over [m, M]: slope (f(M)-f(m))/(M-m), matching endpoints."""
    return ChordCoefficients(*_chord(*_endpoint_values(f, window), window))


def _chord(fm: float, fM: float, window: SpectralWindow) -> tuple[float, float]:
    """The slope and intercept of the chord through (m, fm) and (M, fM)."""
    slope = (fM - fm) / window.width
    intercept = (window.M * fm - window.m * fM) / window.width
    return slope, intercept


@dataclass(frozen=True)
class ExtremumResult:
    """Location and value of a univariate maximum over a window."""

    t_star: float
    value: float


def _eval_one(h, t: float) -> float:
    try:
        y = float(h(float(t)))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise DomainError(f"function undefined at t={t!r}: {exc}") from exc
    if not math.isfinite(y):
        raise DomainError(f"function non-finite at t={t!r}")
    return y


def _endpoint_values(f, window: SpectralWindow) -> tuple[float, float]:
    """f(m) and f(M), each a finite float, else DomainError."""
    return _eval_one(f, window.m), _eval_one(f, window.M)


def _golden_max(h, a: float, b: float, iters: int) -> tuple[float, float]:
    """Golden-section maximum of h over [a, b] after ``iters`` steps.

    Each step's value is checked here, as ``_eval_one`` checks it, rather
    than through a call of it: the steps are most of an oracle scan's
    Python calls.  a and b are floats, so every point is one.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    hc = _eval_one(h, c)
    hd = _eval_one(h, d)
    for _ in range(iters):
        left = hc >= hd
        if left:
            b, d, hd = d, c, hc
            t = c = b - _INV_PHI * (b - a)
        else:
            a, c, hc = c, d, hd
            t = d = a + _INV_PHI * (b - a)
        try:
            y = float(h(t))
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise DomainError(f"function undefined at t={t!r}: {exc}") from exc
        if not math.isfinite(y):
            raise DomainError(f"function non-finite at t={t!r}")
        if left:
            hc = y
        else:
            hd = y
    return (c, hc) if hc >= hd else (d, hd)


@lru_cache(maxsize=1)
def _scan_arena(window: SpectralWindow) -> tuple[np.ndarray, np.ndarray]:
    """The window's oracle grid, GRID_RESOLUTION equal cells over [m, M]
    (read-only), and a grid-sized buffer any scan may overwrite; kept for
    the last window scanned.  A fresh temporary per scan, alive beside
    the scan's objective, makes glibc's malloc give the top of its heap
    back and fault it in again on every scan."""
    grid = np.linspace(window.m, window.M, GRID_RESOLUTION + 1)
    grid.flags.writeable = False
    return grid, np.empty_like(grid)


def _refine(h, window: SpectralWindow, ts: np.ndarray, ys: np.ndarray) -> ExtremumResult:
    """The maximum of h over [m, M] from its real values ys on the grid ts.

    A non-finite value in ys raises DomainError (``_grid_bracket``).
    GOLDEN_ITERS golden-section steps around the best grid point; the
    result is the golden point, or the grid point if its value is larger.
    The grid holds m and M, so no endpoint exceeds the grid point.
    """
    i, lo, hi = _grid_bracket(window, ts, ys)
    t, y = _golden_max(h, lo, hi, GOLDEN_ITERS)
    if ys[i] > y:
        t, y = ts[i], ys[i]
    return ExtremumResult(t_star=float(t), value=float(y))


def _grid_bracket(window: SpectralWindow, ts: np.ndarray, ys: np.ndarray) -> tuple[int, float, float]:
    """The index i of the first largest of the values ys on the grid ts,
    and the cells [lo, hi] around it, which golden section refines.

    A non-finite value in ys raises DomainError; the largest value and
    the smallest are finite only if all are (argmax alone misses -inf).
    """
    i = int(ys.argmax())
    if not (math.isfinite(ys[i]) and math.isfinite(ys.min())):
        bad = float(ts[np.flatnonzero(~np.isfinite(ys))[0]])
        raise DomainError(f"scalar function non-finite at t={bad!r}")
    lo = float(ts[i - 1]) if i > 0 else window.m
    hi = float(ts[i + 1]) if i < GRID_RESOLUTION else window.M
    return i, lo, hi


def grid_max_1d(h, window: SpectralWindow) -> ExtremumResult:
    """Maximize a scalar function over [m, M].

    Dense scan of GRID_RESOLUTION cells, then GOLDEN_ITERS golden-section
    steps around the best cell.  Accurate to ~1e-9 in value for C^2
    objectives.
    """
    ts, _ = _scan_arena(window)
    return _refine(h, window, ts, real_values(h, ts))


def beta_generic(f, g, alpha: float, window: SpectralWindow) -> ExtremumResult:
    """Oracle gap: max over [m, M] of chord_of_f(t) - alpha * g(t)."""
    chord = _positive_chord(f, window)
    alpha = float(alpha)
    return _gap_scan(chord, g, _grid_values(g, window), alpha, window)


def alpha_ratio(f, g, window: SpectralWindow) -> ExtremumResult:
    """Oracle ratio: max over [m, M] of chord_of_f(t) / g(t); needs g > 0
    at every grid point."""
    chord = _chord(*_endpoint_values(f, window), window)
    return _ratio_scan(chord, g, _grid_values(g, window), window)


def _positive_chord(f, window: SpectralWindow) -> tuple[float, float]:
    """The chord of f over the window, which must be positive at m and M."""
    fm, fM = _endpoint_values(f, window)
    if not (fm > 0.0 and fM > 0.0):
        raise DomainError("f must be positive at the window endpoints")
    return _chord(fm, fM, window)


def _grid_values(g, window: SpectralWindow) -> np.ndarray:
    """g on the window's oracle grid, checked real and finite."""
    return eval_scalar(g, _scan_arena(window)[0])


@lru_cache(maxsize=4)
def _grid_power(window: SpectralWindow, q: float) -> np.ndarray:
    """``_grid_values`` of t^q (read-only), kept for the last four (window,
    q) asked for, as the scan arena is kept: at most four grid-sized arrays
    whatever the number of scans."""
    ys = _grid_values(power_fun(q), window)
    ys.flags.writeable = False
    return ys


def _gap_scan(chord, g, ys: np.ndarray, alpha: float, window: SpectralWindow) -> ExtremumResult:
    """``beta_generic``'s scan from the chord (slope, intercept) of f and
    g's values ys on the window's grid; alpha is a float."""
    slope, intercept = chord
    grid, scratch = _scan_arena(window)

    def h(t):
        return slope * t + intercept - alpha * g(t)

    with np.errstate(all="ignore"):
        c = grid * slope
        c += intercept
        # ys * 1.0 is ys, bit for bit
        c -= ys if alpha == 1.0 else np.multiply(ys, alpha, out=scratch)
    return _refine(h, window, grid, c)


def _ratio_scan(chord, g, ys: np.ndarray, window: SpectralWindow) -> ExtremumResult:
    """``alpha_ratio``'s scan from the chord (slope, intercept) of f and
    g's values ys on the window's grid."""
    slope, intercept = chord
    if not ys.min() > 0.0:
        raise DomainError("g must be positive on the window")
    grid, _ = _scan_arena(window)

    def h(t):
        # chord / inf alone is a finite 0.0; y / y is 1.0 where y is
        # finite and NaN where it is not, so the step's check sees it
        y = g(t)
        return (slope * t + intercept) / y * (y / y)

    with np.errstate(all="ignore"):
        c = grid * slope
        c += intercept
        c /= ys
    return _refine(h, window, grid, c)


def _power_gap(window: SpectralWindow, p: float, q: float, alpha: float) -> ExtremumResult:
    """``beta_generic(power_fun(p), power_fun(q), alpha, window)`` bit for
    bit, with t^q's grid values from ``_grid_power``."""
    chord = _positive_chord(power_fun(p), window)
    alpha = float(alpha)
    return _gap_scan(chord, power_fun(q), _grid_power(window, q), alpha, window)


def _power_ratio(window: SpectralWindow, p: float, q: float) -> ExtremumResult:
    """``alpha_ratio(power_fun(p), power_fun(q), window)`` bit for bit,
    with t^q's grid values from ``_grid_power``."""
    chord = _chord(*_endpoint_values(power_fun(p), window), window)
    return _ratio_scan(chord, power_fun(q), _grid_power(window, q), window)


def _chord_power_maxima(window: SpectralWindow, ps, qs) -> tuple[list, list]:
    """The oracle ratio and gap of the chords of powers t^p against powers
    over one window, as the sweep needs them: ``(by_p, by_q)``.

    ``by_p[i]`` is the (ratio, gap) of t^p_i against itself and
    ``by_q[j][i]`` that of t^p_i against t^q_j, each ``(alpha_ratio(f, g,
    window).value, beta_generic(f, g, 1.0, window).value)`` bit for bit.

    A grid pass finds every scan's best grid point, and one golden-section
    pass refines all of them in lockstep.  If any of that raises, or meets
    a non-finite value, the scans are made again one at a time, each p
    against itself and then every p against each q in turn, so the error
    raised is the one the first failing lone call raises.
    """
    try:
        return _maxima_in_lockstep(window, ps, qs)
    except DomainError:
        pass
    fs = [power_fun(p) for p in ps]

    def lone(f, g):
        return alpha_ratio(f, g, window).value, beta_generic(f, g, 1.0, window).value

    return [lone(f, f) for f in fs], [[lone(f, power_fun(q)) for f in fs] for q in qs]


def _maxima_in_lockstep(window: SpectralWindow, ps, qs) -> tuple[list, list]:
    """``_chord_power_maxima`` through one grid pass and one lockstep
    golden-section pass, with each check a lone scan makes; a failing check
    raises a bare DomainError (the lone scans give its message).

    Each chord of t^p is made once, and each power of the window's scans
    is evaluated on the grid once.  Lane k of n holds the ratio of the
    k-th scan, each p against itself and then every p against each q, and
    lane n + k its gap; the two share the chord's grid values and write
    their objective into the scratch buffer in turn.
    """
    ts, scratch = _scan_arena(window)
    n_p = len(ps)
    n = n_p * (1 + len(qs))
    chords = np.empty((2, n_p))
    for j, p in enumerate(ps):
        fm, fM = _endpoint_values(power_fun(p), window)
        if not (fm > 0.0 and fM > 0.0):
            raise DomainError
        chords[:, j] = _chord(fm, fM, window)
    slope, intercept = np.tile(chords, 2 * (1 + len(qs)))
    exponent = np.tile(np.concatenate([ps, np.repeat(qs, n_p)]), 2)
    lo, hi, best = np.empty((3, 2 * n))
    chord = np.empty_like(ts)
    with np.errstate(all="ignore"):
        for k in range(n):
            if k < n_p or k % n_p == 0:  # each p's own power, then each q's
                y = eval_scalar(power_fun(exponent[k]), ts)
                if not y.min() > 0.0:
                    raise DomainError
            np.multiply(ts, slope[k], out=chord)
            chord += intercept[k]
            for lane, combine in ((k, np.divide), (n + k, np.subtract)):
                combine(chord, y, out=scratch)
                i, lo[lane], hi[lane] = _grid_bracket(window, ts, scratch)
                best[lane] = scratch[i]
        y_ref = _golden_max_lockstep(lo, hi, slope, intercept, exponent, n)
    # as ``_refine`` chooses: the larger of the golden point and the grid
    # point, the golden point on a tie
    value = np.where(best > y_ref, best, y_ref)
    ratio, gap = (v.reshape(1 + len(qs), n_p).tolist() for v in np.split(value, 2))
    by_p, *by_q = (list(zip(r, g)) for r, g in zip(ratio, gap))
    return by_p, by_q


def _golden_max_lockstep(a, b, slope, intercept, q, n: int) -> np.ndarray:
    """The value ``_golden_max`` finds on every lane at once: lane k
    maximizes (slope_k t + intercept_k) / t^q_k for k < n and
    slope_k t + intercept_k - t^q_k after, over [a_k, b_k].

    Every lane makes the lone loop's float operations in its order, its
    branch taken through ``np.where``.  t^q is ``np.float_power``, which
    is Python's ``t ** q`` bit for bit; ``ndarray ** q`` and ``np.power``
    are not (their SIMD loops and the -1, 0.5 and 2 fast paths differ in
    the last bit).  A non-finite t^q or objective value, where a lone
    scan raises, raises DomainError.
    """
    def h(t):
        tq = np.float_power(t, q)
        y = np.multiply(t, slope)
        y += intercept
        np.divide(y[:n], tq[:n], out=y[:n])
        y[n:] -= tq[n:]
        if not (np.isfinite(tq).all() and np.isfinite(y).all()):
            raise DomainError
        return y

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    hc = h(c)
    hd = h(d)
    for _ in range(GOLDEN_ITERS):
        left = hc >= hd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        kept, h_kept = np.where(left, c, d), np.where(left, hc, hd)
        t = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        y = h(t)
        c, hc = np.where(left, t, kept), np.where(left, y, h_kept)
        d, hd = np.where(left, kept, t), np.where(left, h_kept, y)
    return np.where(hc >= hd, hc, hd)


def _degenerate(q: float) -> bool:
    """Whether q is within _DEGENERATE_EPS of 0 or 1, where the interior branches divide by 0."""
    return abs(q) < _DEGENERATE_EPS or abs(q - 1.0) < _DEGENERATE_EPS


def _branch_slack(window: SpectralWindow) -> float:
    return _TOUCH_EPS * max(1.0, abs(window.m), abs(window.M))


def kantorovich_K(window: SpectralWindow, p: float) -> float:
    """Ratio constant K(m, M, p): closed form of max{chord(t^p)/t^p}.

    It is the two-exponent constant at q = p; K(m, M, 0) = K(m, M, 1) = 1.
    """
    return kantorovich_K2(window, p, p)


def kantorovich_K2(window: SpectralWindow, p: float, q: float) -> float:
    """Two-exponent ratio constant K(m, M, p, q) = max{chord(t^p)/t^q}.

    Piecewise closed form: the interior expression applies when the chord
    touch point lies inside the window, otherwise the larger endpoint ratio
    max{m^(p-q), M^(p-q)} is returned, as it is at p = 0 and at a degenerate
    q.  The supported regime is p <= 0 and -1 <= q <= 0; evaluation outside
    it is permitted for fuzzing and the callers record the regime breach.
    """
    w = window.require_positive()
    p, q = float(p), float(q)
    m, M = w.m, w.M
    num = m * M ** p - M * m ** p
    dpow = M ** p - m ** p
    den = (q - 1.0) * dpow
    if den == 0.0 or _degenerate(q):  # p == 0 makes the chord the constant 1
        return float(max(m ** (p - q), M ** (p - q)))
    t0 = q * num / den
    eps = _branch_slack(w)
    if m - eps <= t0 <= M + eps:
        return float(num / ((q - 1.0) * w.width) * ((q - 1.0) / q * dpow / num) ** q)
    return float(max(m ** (p - q), M ** (p - q)))


def kantorovich_C2(window: SpectralWindow, p: float, q: float) -> float:
    """Two-exponent difference constant C(m, M, p, q) = max{chord(t^p) - t^q}.

    Requires p <= 0 and q <= 0 (ParameterError otherwise); returns the
    larger endpoint difference when the interior touch point leaves the
    window or q is degenerate.  It is the gap constant at alpha = 1.
    """
    return beta_power_closed(window, p, q, 1.0)


def kantorovich_C(window: SpectralWindow, p: float) -> float:
    """One-exponent difference constant C(m, M, p); 0 on the endpoint branch, as at p = 0."""
    return kantorovich_C2(window, p, p)


def beta_power_closed(window: SpectralWindow, p: float, q: float, alpha: float) -> float:
    """Closed-form gap max{chord(t^p) - alpha * t^q} for p <= 0, q <= 0, alpha > 0,
    each tested before any power is taken (ParameterError); a degenerate q
    takes the endpoint branch, which is max(m^p, M^p) - alpha at q = 0."""
    w = window.require_positive()
    p, q, alpha = float(p), float(q), float(alpha)
    if alpha <= 0.0:
        raise ParameterError(f"gap constant needs alpha > 0, got alpha={alpha}")
    if p > 0.0:
        raise ParameterError(f"gap constant needs p <= 0, got p={p}")
    if q > 0.0:
        raise ParameterError(f"gap constant needs q <= 0, got q={q}")
    m, M = w.m, w.M
    if not _degenerate(q):
        ratio = (M ** p - m ** p) / (alpha * q * w.width)
        if ratio > 0.0:
            t0 = ratio ** (1.0 / (q - 1.0))
            eps = _branch_slack(w)
            if m - eps <= t0 <= M + eps:
                return float(alpha * (q - 1.0) * ratio ** (q / (q - 1.0))
                             + (M * m ** p - m * M ** p) / w.width)
    return float(max(m ** p - alpha * m ** q, M ** p - alpha * M ** q))
