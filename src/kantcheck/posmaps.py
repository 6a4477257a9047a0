"""Normalized positive linear maps in Kraus form, operator connections,
weighted geometric-type means, and the relative operator entropy with a
negative parameter.
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
        defect = self.normalization_defect()
        if defect > NORMALIZATION_TOL:
            raise ValueError(f"map is not normalized: |sum W*W - I| = {defect:.3e}")

    def normalization_defect(self) -> float:
        acc = sum(w.conj().T @ w for w in self.kraus)
        return float(np.max(np.abs(acc - np.eye(self.dim_out))))


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
    rt, irt = dec.rebuild(np.stack([root, 1.0 / root]))
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

