"""Normalized positive linear maps in Kraus form, operator connections,
weighted geometric-type means, and the relative operator entropy with a
negative parameter.

A map made by hand checks its normalization when it is made.  The
generators certify the normalization of a whole stack of maps in one
computation (``_normalization_defects``, the one body a map's own
``normalization_defect`` also runs, as a stack of one), raise the error
a map made alone raises (``_require_normalized``), and build each map
with ``PositiveLinearMap._certified``, which does not check it again.
Both the certificate and the generators' S = sum V_k* V_k are summed by
one Gram-sum body, ``_gram_sums``, over a whole stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, HypothesisError, ParameterError
from .hermitian import (
    Array,
    SpectralWindow,
    _eigh,
    decompose,
    eig_hermitian,
    eval_scalar,
    hermitian,
    hermitize,
    require_hermitian,
)

NORMALIZATION_TOL = 1e-10
CONDITION_FLOOR = 1e-10
WEIGHT_SUM_TOL = 1e-12
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class PositiveLinearMap:
    """Phi(X) = sum_i W_i* X W_i with sum_i W_i* W_i = I (Phi(I_in) = I_out).

    The Kraus factors W_i share one shape, (dim_in, dim_out), which sets the
    map's dimensions; positivity of Phi is automatic from the form,
    normalization is validated on construction.
    """

    kraus: tuple
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        ops = tuple(np.asarray(w, dtype=complex) for w in self.kraus)
        if not ops:
            raise ValueError("Kraus list must be nonempty")
        shape = ops[0].shape
        if len(shape) != 2:
            raise ValueError(f"Kraus factors must be 2-D, got shape {shape}")
        for w in ops:
            if w.shape != shape:
                raise ValueError(f"Kraus factor shape {w.shape} != {shape}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", shape[0])
        object.__setattr__(self, "dim_out", shape[1])
        _require_normalized(np.array([self.normalization_defect()]))

    @classmethod
    def _certified(cls, kraus: tuple) -> "PositiveLinearMap":
        """The map of a tuple of complex Kraus factors of one 2-D shape whose
        normalization its maker has already certified, built without the
        checks a map runs when it is made."""
        phi = object.__new__(cls)
        vars(phi).update(kraus=kraus, dim_in=kraus[0].shape[0], dim_out=kraus[0].shape[1])
        return phi

    def normalization_defect(self) -> float:
        """max |sum W_i* W_i - I|, as the map's own one-map stack."""
        return float(_normalization_defects([w[None] for w in self.kraus],
                                            np.array([len(self.kraus)]))[0])


def _gram_sums(columns: list, counts: Array) -> Array:
    """sum_k W_k* W_k of each map of a stack, from its Kraus columns: column
    k stacks the k-th factor of each map with more than k factors
    (``counts > k``), in map order.  Each sum is added up in Kraus order
    from zero, and numpy's stacked products give each member the bits a
    product of that member alone gives, so a map's sum does not depend on
    the stack it is in."""
    dim_out = columns[0].shape[-1]
    acc = np.zeros((len(counts), dim_out, dim_out), dtype=complex)
    for k, ws in enumerate(columns):
        acc[counts > k] += ws.conj().swapaxes(-1, -2) @ ws
    return acc


def _normalization_defects(columns: list, counts: Array) -> Array:
    """The normalization defect max |sum W_i* W_i - I| of each map of a
    stack, from the ``_gram_sums`` of its Kraus columns."""
    gram = _gram_sums(columns, counts)
    return np.max(np.abs(gram - np.eye(gram.shape[-1])), axis=(-2, -1))


def _require_normalized(defects: Array) -> None:
    """Raise for the first of an array of maps' normalization defects that
    exceeds NORMALIZATION_TOL or is NaN: the one error a map's own check
    raises."""
    over = np.flatnonzero(~(defects <= NORMALIZATION_TOL))
    if over.size:
        raise ValueError(f"map is not normalized: |sum W*W - I| = {defects[over[0]]:.3e}")


def apply_map(phi: PositiveLinearMap, x) -> Array:
    """Evaluate Phi(X) = sum_i W_i* X W_i, or Phi of each member of a stack (k, n, n),
    validated once; preserves Hermiticity and positivity.  The Kraus terms are added
    in order, so each member gets the bits a call on it alone gives."""
    return _apply_map(phi, hermitian(x, "X"))


def _apply_map(phi: PositiveLinearMap, arr: Array) -> Array:
    """``apply_map`` of the package's own complex Hermitian intermediate (or
    stack of them), which is not validated."""
    if arr.shape[-1] != phi.dim_in:
        raise ValueError(f"dimension mismatch: X is {arr.shape[-1]}, map expects {phi.dim_in}")
    acc = np.zeros(arr.shape[:-2] + (phi.dim_out, phi.dim_out), dtype=complex)
    for w in phi.kraus:
        acc += w.conj().T @ arr @ w
    return hermitize(acc)


def sqrt_invsqrt(a) -> tuple[Array, Array]:
    """A^(1/2) and A^(-1/2) for strictly positive, well-conditioned A.

    ``a`` is the matrix or its SpectralDecomposition.  Refuses when the
    smallest eigenvalue is below 1e-10 times the largest: the inequality
    chains amplify inversion error.
    """
    dec = decompose(a)
    lam = dec.eigenvalues
    if lam[0] <= 0.0 or lam[0] < CONDITION_FLOOR * lam[-1]:
        raise DomainError(
            f"matrix too ill-conditioned to invert: spectrum [{float(lam[0]):.3e}, {float(lam[-1]):.3e}]")
    root = np.sqrt(lam)
    rt, irt = dec.rebuild(np.array([root, 1.0 / root]))
    return rt, irt


def f_connection(a, b, f) -> Array:
    """A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) for strictly positive A."""
    return _f_connection(sqrt_invsqrt(a), require_hermitian(b, "B"), f)


def _f_connection(roots: tuple, b: Array, f) -> Array:
    """``f_connection`` from ``sqrt_invsqrt(A)`` and the package's own complex
    Hermitian intermediate B, which is not validated."""
    rt, irt = roots
    t = _eigh(hermitize(irt @ b @ irt))
    return hermitize(rt @ t.rebuild(eval_scalar(f, t.eigenvalues)) @ rt)


def sharp(a, b, v: float) -> Array:
    """Weighted geometric-type mean: the f-connection with f(t) = t^v.

    For v < 0 (and for fractional v) the inner operand must be strictly
    positive; violations surface as DomainError from the spectral calculus.
    """
    v = float(v)
    return f_connection(a, b, lambda t: t ** v)


def tsallis_entropy(a, b, p: float) -> Array:
    """Relative operator entropy (A #_p B - A) / p for p < 0."""
    p = float(p)
    if not p < 0.0:
        raise ParameterError(f"entropy parameter must be negative, got p={p}")
    base = require_hermitian(a, "A")
    mean = _f_connection(sqrt_invsqrt(_eigh(base)), require_hermitian(b, "B"), lambda t: t ** p)
    return hermitize((mean - base) / p)


@dataclass(frozen=True)
class WeightedFamily:
    """Positive weights summing to 1, each with a map and a window-bounded operator.

    seed is the integer the family was drawn from, 0 when it was not drawn
    from one; reports carry it so a report line can regenerate its family.
    """

    items: tuple
    window: SpectralWindow
    seed: int = 0

    @cached_property
    def spectra(self) -> tuple:
        """Eigendecomposition of each operator in item order, made on first
        use and kept: the items are never modified after construction."""
        return tuple(eig_hermitian(op) for _, _, op in self.items)

    def validate(self) -> "WeightedFamily":
        if not self.items:
            raise HypothesisError("weighted family is empty")
        total = 0.0
        dim_in = self.items[0][1].dim_in
        dim_out = self.items[0][1].dim_out
        for (weight, phi, _), dec in zip(self.items, self.spectra):
            if weight <= 0.0:
                raise HypothesisError(f"weights must be positive, got {weight}")
            total += weight
            if phi.dim_in != dim_in or phi.dim_out != dim_out:
                raise HypothesisError("all maps must share input and output dimensions")
            if dec.dim != dim_in:
                raise HypothesisError("operator dimension does not match the maps")
            lam = dec.eigenvalues
            tol = SPECTRUM_TOL * max(1.0, abs(self.window.M))
            if lam[0] < self.window.m - tol or lam[-1] > self.window.M + tol:
                raise HypothesisError(
                    f"operator spectrum [{float(lam[0]):.6g}, {float(lam[-1]):.6g}] outside "
                    f"window [{self.window.m}, {self.window.M}]")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise HypothesisError(f"weights sum to {total!r}, expected 1")
        return self

