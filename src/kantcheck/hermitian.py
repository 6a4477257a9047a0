"""Hermitian matrix calculus on small dense complex matrices.

Matrices are plain numpy arrays of shape (n, n) with n <= 64.  All
functional calculus goes through a full eigendecomposition, and every
result is re-symmetrized so that roundoff never leaks a non-Hermitian
part into later order checks.  The spectral functions also take a
SpectralDecomposition, so an operand is decomposed (and its Hermiticity
checked) once for every function applied to it.

Validation happens where a matrix enters the package: ``matrix_from_json``,
the public functions given a matrix, a hand-built pair's or family's
operands on first use, and the raw A and B a relative check reads.
``eig_hermitian``, ``posmaps.apply_map`` and ``posmaps.f_connection`` (and
through it ``posmaps.sharp``) validate their arguments and then call one
private body each, ``_eigh``, ``_apply_map`` and ``_f_connection``, as
``loewner_leq`` calls ``loewner_verdicts``.  The generators and the checks
call the bodies on the package's own intermediates, which are Hermitian
by construction, and a decomposition is never re-checked.

``hermitian`` validates a matrix, or each member of a stack (k, n, n) of
same-size matrices; ``require_hermitian`` takes one matrix.  ``hermitize``,
``eig_hermitian`` and ``posmaps.apply_map`` act on each member of a stack.  The
decomposition's ``rebuild``, ``matrix_power``, ``matrix_log``,
``matrix_exp`` and ``spectrum_in_window`` act on each member of the
stacked decomposition it returns, and ``rebuild`` also takes a stack of
value rows for one decomposition, so a check rebuilds each of its
decompositions once.  numpy's stacked eigensolvers and
products give each member the bits a call on that member alone gives.
Every other entry point, and any of these given an array, takes one
matrix.

``geometric_interpolant`` is the one scalar form of the chains'
interpolant G; ``superlog_bound`` applies it to a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, HermiticityError, HypothesisError

DIM_CAP = 64
HERMITICITY_RTOL = 1e-12
DEFAULT_REL_TOL = 1e-8

Array = np.ndarray


def frobenius(a: Array) -> float:
    return float(np.linalg.norm(a))


def _frobenius_norms(stack: Array) -> Array:
    """``frobenius`` of each member of a complex stack (k, n, n), bit for bit:
    each member's squared norm is the same two BLAS dot products
    ``np.linalg.norm`` takes, of its real and of its imaginary parts."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def hermitize(a: Array) -> Array:
    """Average away the non-Hermitian roundoff part of ``a`` (or of each member
    of a stack), a float or complex array.  The sum is halved in place: the
    same division, without a second temporary."""
    h = a + a.conj().swapaxes(-1, -2)
    h /= 2.0
    return h


def identity(dim: int) -> Array:
    return np.eye(dim, dtype=complex)


def hermitian(a, name: str = "matrix") -> Array:
    """Validate and return ``a``, a complex Hermitian matrix or a stack (k, n, n)
    of them: each member may deviate from conjugate symmetry by ``1e-12`` times
    its Frobenius norm.  Shape problems and NaN or infinite entries raise
    ValueError, symmetry problems raise HermiticityError."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be square, or a stack of them, got shape {arr.shape}")
    n = arr.shape[-1]
    if not 1 <= n <= DIM_CAP:
        raise ValueError(f"{name} dimension {n} outside supported range [1, {DIM_CAP}]")
    stack = arr.reshape(-1, n, n)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported below
        devs = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1))
    # only a nonzero deviation needs its norm; a NaN or inf entry makes it NaN or inf
    for i in np.flatnonzero(devs != 0.0):
        if not np.isfinite(devs[i]):
            raise ValueError(f"{name} has NaN or infinite entries")
        if devs[i] > HERMITICITY_RTOL * frobenius(stack[i]):
            raise HermiticityError(f"{name} deviates from Hermitian symmetry by {devs[i]:.3e}")
    return arr


def require_hermitian(a, name: str = "matrix") -> Array:
    """``hermitian`` for one matrix: a stack raises ValueError."""
    if np.ndim(a) != 2:
        raise ValueError(f"{name} must be square, got shape {np.shape(a)}")
    return hermitian(a, name)


@dataclass(frozen=True)
class SpectralWindow:
    """A spectral interval [m, M] with m < M."""

    m: float
    M: float

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "M", float(self.M))
        if not (math.isfinite(self.m) and math.isfinite(self.M)):
            raise ValueError(f"window bounds must be finite, got [{self.m}, {self.M}]")
        if not self.m < self.M:
            raise ValueError(f"window needs m < M, got [{self.m}, {self.M}]")

    @property
    def width(self) -> float:
        return self.M - self.m

    def require_positive(self) -> "SpectralWindow":
        if self.m <= 0.0:
            raise DomainError(f"window [{self.m}, {self.M}] must satisfy 0 < m")
        return self


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with a unitary eigenbasis (columns).

    A stacked decomposition holds (k, n) eigenvalues and (k, n, n)
    eigenvectors, one member per row.
    """

    eigenvalues: Array
    eigenvectors: Array

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[-1])

    def rebuild(self, values: Array) -> Array:
        """Assemble U diag(values) U* from new diagonal values.  Given a stack
        of value rows (k, n), a one-member decomposition assembles one matrix
        per row, each with the bits a rebuild of that row alone gives."""
        u = self.eigenvectors
        return hermitize((u * np.asarray(values)[..., None, :]) @ u.conj().swapaxes(-1, -2))

    def members(self) -> list:
        """The decomposition of each member of a stacked decomposition."""
        return [SpectralDecomposition(vals, vecs)
                for vals, vecs in zip(self.eigenvalues, self.eigenvectors)]


def eig_hermitian(a) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each member of a
    stack (k, n, n), eigenvalues ascending."""
    return _eigh(hermitian(a))


def _eigh(a: Array) -> SpectralDecomposition:
    """``eig_hermitian`` of the package's own complex Hermitian intermediate
    (or stack of them), which is not validated."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(vals, vecs)


def decompose(a) -> SpectralDecomposition:
    """``a`` if it is already a SpectralDecomposition, else ``eig_hermitian``
    of the one matrix ``a``."""
    if isinstance(a, SpectralDecomposition):
        return a
    if np.ndim(a) != 2:
        raise ValueError(f"matrix must be square, got shape {np.shape(a)}")
    return eig_hermitian(a)


def _eval_pointwise(f, xs: Array) -> Array:
    out = np.empty(xs.shape, dtype=float)
    for i, t in enumerate(xs):
        try:
            out[i] = float(f(float(t)))
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise DomainError(f"scalar function undefined at t={float(t)!r}: {exc}") from exc
    return out


def real_values(f, xs: Array) -> Array:
    """Evaluate a real scalar function on a 1-d float array, non-finite values kept.

    Tries a vectorized call first and falls back to per-point evaluation.
    Non-real results raise DomainError.
    """
    with np.errstate(all="ignore"):
        try:
            ys = np.asarray(f(xs))
            if ys.shape != xs.shape:
                raise TypeError("not vectorized")
        except DomainError:
            raise
        except Exception:
            ys = _eval_pointwise(f, xs)
    if np.iscomplexobj(ys):
        if float(np.max(np.abs(ys.imag))) > 0.0:
            raise DomainError("scalar function returned complex values")
        ys = ys.real
    return np.asarray(ys, dtype=float)


def eval_scalar(f, xs: Array) -> Array:
    """Evaluate a real scalar function on a 1-d array of points.

    Tries a vectorized call first and falls back to per-point evaluation.
    Non-finite or non-real results raise DomainError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = real_values(f, xs)
    if not np.all(np.isfinite(ys)):
        bad = float(xs[np.flatnonzero(~np.isfinite(ys))[0]])
        raise DomainError(f"scalar function non-finite at t={bad!r}")
    return ys


def apply_scalar_function(a, f) -> Array:
    """Apply a real scalar function to a Hermitian matrix spectrally."""
    dec = decompose(a)
    return dec.rebuild(eval_scalar(f, dec.eigenvalues))


def _require_positive_spectrum(dec: SpectralDecomposition, what: str) -> None:
    low = float(np.min(dec.eigenvalues[..., 0]))
    if low <= 0.0:
        raise DomainError(f"{what} needs a strictly positive spectrum; smallest eigenvalue is {low:.6e}")


def _power_values(dec: SpectralDecomposition, p: float) -> Array:
    """The eigenvalues of ``matrix_power``, after its positivity check."""
    _require_positive_spectrum(dec, f"matrix power p={p}")
    return dec.eigenvalues ** float(p)


def matrix_power(a, p: float) -> Array:
    """Spectral power A^p; the spectrum must be strictly positive."""
    dec = decompose(a)
    return dec.rebuild(_power_values(dec, p))


def matrix_log(a) -> Array:
    """Spectral logarithm; the spectrum must be strictly positive."""
    dec = decompose(a)
    _require_positive_spectrum(dec, "matrix logarithm")
    return dec.rebuild(np.log(dec.eigenvalues))


def matrix_exp(a) -> Array:
    """Spectral exponential of a Hermitian matrix."""
    dec = decompose(a)
    return dec.rebuild(np.exp(dec.eigenvalues))


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a numerical A <= B test in the positive-semidefinite order."""

    holds: bool
    min_slack: float
    tolerance_used: float


def loewner_leq(a, b, rel_tol: float = DEFAULT_REL_TOL) -> LoewnerVerdict:
    """Test A <= B: ``min_slack`` is the smallest eigenvalue of B - A.

    The verdict holds when min_slack >= -rel_tol * (1 + ||B - A||_F);
    the relative tolerance keeps chains with mixed magnitudes honest.
    """
    x = require_hermitian(a, "A")
    y = require_hermitian(b, "B")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return loewner_verdicts([(x, y)], rel_tol)[0]


def loewner_verdicts(pairs, rel_tol: float = DEFAULT_REL_TOL) -> list:
    """``loewner_leq`` for each (lhs, rhs) pair, with one stacked eigvalsh.

    The arguments are not validated: they must be complex Hermitian arrays
    of one shape, as the package's own intermediates are by construction.
    The tolerances of all differences come from one stacked norm, each
    bit for bit the one ``loewner_leq`` computes for that difference alone.
    """
    diffs = hermitize(np.stack([rhs - lhs for lhs, rhs in pairs]))
    slacks = np.linalg.eigvalsh(diffs)[:, 0].tolist()
    tols = (rel_tol * (1.0 + _frobenius_norms(diffs))).tolist()
    return [LoewnerVerdict(holds=slack >= -tol, min_slack=slack, tolerance_used=tol)
            for slack, tol in zip(slacks, tols)]


def spectrum_in_window(a, window: SpectralWindow, tol: float = 0.0):
    """True iff every eigenvalue lies in [m - tol, M + tol]; for a stack, a
    boolean array with one verdict per member."""
    vals = decompose(a).eigenvalues
    holds = (vals[..., 0] >= window.m - tol) & (vals[..., -1] <= window.M + tol)
    return bool(holds) if holds.ndim == 0 else holds


def geometric_interpolant(window: SpectralWindow, log_fm: float, log_fM: float):
    """The geometric endpoint interpolant G of the endpoint logarithms
    log_fm and log_fM: t -> exp(((M - t) log_fm + (t - m) log_fM) / (M - m)),
    on a float or an array.  G(m) = exp(log_fm), G(M) = exp(log_fM), and
    log G is affine between them."""
    m, M, width = window.m, window.M, window.width
    return lambda t: np.exp(((M - t) * log_fm + (t - m) * log_fM) / width)


def superlog_bound(b, window: SpectralWindow, fm: float, fM: float,
                   hypothesis_tol: float = 1e-9) -> Array:
    """Geometric endpoint interpolant applied spectrally to B.

    Computes G(B) for G(t) = fm^((M-t)/(M-m)) * fM^((t-m)/(M-m)), the
    operator separating f(B) from its chord bound whenever f is log-convex
    with endpoint values fm, fM.  G is ``geometric_interpolant`` of
    log fm and log fM.
    """
    dec = decompose(b)
    return dec.rebuild(_superlog_values(dec, window, fm, fM, hypothesis_tol))


def _superlog_values(dec: SpectralDecomposition, window: SpectralWindow, fm: float, fM: float,
                     hypothesis_tol: float) -> Array:
    """The eigenvalues of ``superlog_bound``, after its checks."""
    fm = float(fm)
    fM = float(fM)
    if not (fm > 0.0 and fM > 0.0):
        raise DomainError(f"endpoint values must be positive, got fm={fm}, fM={fM}")
    lam = dec.eigenvalues
    if lam[0] < window.m - hypothesis_tol or lam[-1] > window.M + hypothesis_tol:
        raise HypothesisError(
            f"spectrum [{float(lam[0]):.6g}, {float(lam[-1]):.6g}] not inside "
            f"window [{window.m}, {window.M}]")
    return geometric_interpolant(window, math.log(fm), math.log(fM))(lam)


def matrix_to_json(a) -> dict:
    """Exchange form: {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
    arr = require_hermitian(a)
    return {
        "dim": int(arr.shape[0]),
        "re": [[float(v) for v in row] for row in arr.real],
        "im": [[float(v) for v in row] for row in arr.imag],
    }


def matrix_from_json(obj: dict) -> Array:
    """Parse the exchange form back into a validated Hermitian array."""
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"re/im shapes {re.shape}/{im.shape} do not match dim={dim}")
    return require_hermitian(re + 1j * im)
