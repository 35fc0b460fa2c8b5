"""Symmetric-matrix helpers, the small-time rate normalizer, and the scalar
pieces of the gamma-constrained pricing operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INV_E = math.exp(-1.0)


class DomainError(ValueError):
    """An argument lies outside a function's stated domain."""


def lil_normalizer(t):
    """Small-time normalizer 2*t*log(log(1/t)).

    Valid for 0 < t < 1/e, where the inner logarithm is positive.  The
    evaluation goes through log(-log(t)), so times down to 1e-300 stay
    finite.  Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= INV_E)):
        raise DomainError("lil_normalizer requires 0 < t < 1/e")
    out = 2.0 * arr * np.log(-np.log(arr))
    return float(out) if np.ndim(t) == 0 else out


@dataclass
class SymMatrix:
    """Symmetric d x d matrix; entries are symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise ValueError("SymMatrix requires a square d x d array with d >= 1")
        if not np.all(np.isfinite(e)):
            raise ValueError("SymMatrix entries must be finite")
        self.entries = 0.5 * (e + e.T)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def operator_norm(m) -> float:
    """Largest singular value, sup |m y| over unit y."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return float(np.linalg.norm(a, 2))


@dataclass
class GammaBand:
    """Band [lower, upper] constraining the cash gamma S^2 * gamma.

    Either bound may be disabled with the explicit sentinel -inf / +inf;
    never substitute a large finite float.
    """

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        lo, up = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(up):
            raise ValueError("GammaBand bounds must not be NaN")
        if not lo < up:
            raise ValueError("GammaBand requires lower < upper")
        self.lower, self.upper = lo, up

    @property
    def has_lower(self) -> bool:
        return math.isfinite(self.lower)

    @property
    def has_upper(self) -> bool:
        return math.isfinite(self.upper)

    @classmethod
    def unbounded(cls) -> "GammaBand":
        return cls(-math.inf, math.inf)

    @classmethod
    def upper_only(cls, upper: float) -> "GammaBand":
        return cls(-math.inf, upper)

    @classmethod
    def lower_only(cls, lower: float) -> "GammaBand":
        return cls(lower, math.inf)

    def clamp(self, x):
        # np.clip's values (x itself on a tie, since np.maximum/np.minimum
        # return their second argument then) at about two thirds of its call
        # overhead on the hedge step's blocks of cash gamma
        return np.minimum(self.upper, np.maximum(self.lower, x))


def dpe_operator_f(p, a, sigma: float, band: GammaBand):
    """min(-p - sigma^2/2 * a, upper - a, a - lower); disabled bounds drop out.

    F and F-hat are the pricing operator of the paper's gamma-constrained
    super-replication problem, the reference for the DPE solver's step.
    Accepts scalars or arrays; scalar arguments give a float.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    val = -p - 0.5 * sigma * sigma * a
    # np.minimum returns its second argument on ties, so val keeps the sign
    # of a zero tie as the scalar min(val, ...) did
    if band.has_upper:
        val = np.minimum(band.upper - a, val)
    if band.has_lower:
        val = np.minimum(a - band.lower, val)
    return float(val) if np.ndim(val) == 0 else val


def dpe_operator_fhat(p, a, sigma: float, band: GammaBand):
    """sup over beta >= 0 of dpe_operator_f(p, a + beta, ...), in closed form.

    The first two branches of F decrease in a while the third increases, so
    the envelope over a + beta is either F itself (when a is already past
    the crossing point of the decreasing and increasing parts) or the value
    at that crossing.  Accepts scalars or arrays like dpe_operator_f.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    f = dpe_operator_f(p, a, sigma, band)
    if not band.has_lower:
        # without a lower bound the third branch never binds and F decreases
        # in a, so beta = 0 is optimal
        return f
    bstar = (band.lower - p) / (1.0 + 0.5 * sigma * sigma)
    if band.has_upper:
        bstar = np.minimum(0.5 * (band.upper + band.lower), bstar)
    val = np.where(a >= bstar, f, bstar - band.lower)
    return float(val) if np.ndim(val) == 0 else val
