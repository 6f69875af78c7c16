"""Finite-dimensional commutative associative algebras over C in a Cartan basis.

The basis I_1..I_n splits into m idempotents (I_u^2 = I_u, I_u I_v = 0) and
n-m nilpotents.  Each nilpotent I_s is absorbed by exactly one idempotent
I_{u_s}, and nilpotent products are encoded by structure constants
gamma(r, s, k) = coefficient of I_k in I_r * I_s, defined for k > max(r, s).
All structure indices are 1-based; coefficient arrays store the I_k
coefficient at slot k-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "AlgebraError",
    "StructuralError",
    "NonInvertibleError",
    "AlgebraSpec",
    "AlgElement",
    "ValidationReport",
    "PropositionReport",
    "validate_algebra",
    "check_propositions",
    "multiply",
    "functional_f",
    "norm_euclid",
    "invert_direct",
    "unit_element",
    "basis_element",
    "mult_matrix",
    "algebra_from_json",
]


class AlgebraError(Exception):
    """Base class of every monalg error."""


class StructuralError(AlgebraError):
    """Malformed spec: indices outside their admissible ranges."""


class NonInvertibleError(AlgebraError):
    """Element is not invertible; carries the functional index that vanished."""

    def __init__(self, message: str, u: int | None = None):
        super().__init__(message)
        self.u = u


# The ten shorthands of the closed forms at indices m+1..m+4, each the
# structure constant gamma(m+i, m+j, m+k) at the offsets (i, j, k) given here.
_SHORTHAND_OFFSETS = {
    "A": (1, 1, 2), "B2": (1, 1, 3), "C": (1, 2, 3), "D": (2, 2, 3),
    "E": (1, 1, 4), "F": (1, 2, 4), "G": (1, 3, 4), "H": (2, 2, 4),
    "J": (2, 3, 4), "K": (3, 3, 4),
}


@dataclass(frozen=True)
class CouplingPlan:
    """The fixed sums over the structure constants that the closed forms read,
    built once by AlgebraSpec from its table, so no evaluation scans the
    gamma(r, s, k) triples.  Indices are 1-based, gamma values complex.

    solve: (s, u_s, ((r, k, gamma(r, k, s)), ...)) per nilpotent s, ascending,
        r then k ascending in m+1..s-1, the nonzero gamma only: row s of N v
        is T_s v_{u_s} + sum gamma T_k v_r, N the nilpotent part of an
        element (resolvent._nilpotent_row).
    orders: per u, the largest k with N^(k-1) I_u not identically zero (1 if
        none), the moments the representation takes at x_u: the largest
        depth(s) = max(2, 1 + depth(r)) over the r of its terms, u_s = u.
    heights: per nilpotent s, the largest j with I_s N^j not identically
        zero, max(0, 1 + height(t)) over the t whose terms read row s: a
        Horner step followed by more steps than that need not form row s.
    shorthands: the ten constants A, B2, C, D, E, F, G, H, J, K of the
        closed forms at indices m+1..m+4 (_SHORTHAND_OFFSETS; 0.0 past n).
    The sigma forms take no entry: sigma_k is coefficient k of
    zeta^{-1} d zeta, which the frame's sums map gives from the table.
    """

    solve: tuple
    orders: tuple
    heights: tuple
    shorthands: Mapping[str, complex]


@dataclass(frozen=True)
class AlgebraSpec:
    """Multiplication data for an algebra A_n^m.

    gamma maps (r, s, k) -> complex with r, s, k in m+1..n and k > max(r, s);
    it is the coefficient of I_k in I_r * I_s.  Only one of (r, s, k) /
    (s, r, k) needs to be present; storing both with different values is
    allowed so that validate_algebra can report the asymmetry.  A
    non-finite gamma value raises ValueError naming its (r, s, k).
    u_map maps each nilpotent index s in m+1..n to its idempotent u_s in 1..m.
    """

    n: int
    m: int
    gamma: Mapping[tuple[int, int, int], complex] = field(default_factory=dict)
    u_map: Mapping[int, int] = field(default_factory=dict)
    name: str = ""
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _plan: CouplingPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise StructuralError(f"m must satisfy 1 <= m <= n, got m={self.m}, n={self.n}")
        if set(self.u_map) != set(range(self.m + 1, self.n + 1)):
            raise StructuralError("u_map must have exactly the keys m+1..n")
        for s, u in self.u_map.items():
            if not 1 <= u <= self.m:
                raise StructuralError(f"u_map[{s}] = {u} outside 1..{self.m}")
        for (r, s, k), v in self.gamma.items():
            for idx in (r, s, k):
                if not 1 <= idx <= self.n:
                    raise StructuralError(f"gamma index {idx} outside 1..{self.n}")
            if r <= self.m or s <= self.m or k <= self.m:
                raise StructuralError(f"gamma key ({r},{s},{k}) must use nilpotent indices only")
            if not np.isfinite(v):
                raise ValueError(f"gamma({r},{s},{k}) = {v} is not finite")
        object.__setattr__(self, "_table", self._build_table())
        object.__setattr__(self, "_plan", self._build_plan())

    def _build_table(self) -> np.ndarray:
        n, m = self.n, self.m
        tab = np.zeros((n, n, n), dtype=complex)
        for u in range(1, m + 1):
            tab[u - 1, u - 1, u - 1] = 1.0
        for s in range(m + 1, n + 1):
            u = self.u_map[s]
            tab[u - 1, s - 1, s - 1] = 1.0
            tab[s - 1, u - 1, s - 1] = 1.0
        for r in range(m + 1, n + 1):
            for s in range(m + 1, n + 1):
                for k in range(m + 1, n + 1):
                    v = self.gamma.get((r, s, k))
                    if v is None:
                        v = self.gamma.get((s, r, k), 0.0)
                    tab[r - 1, s - 1, k - 1] = v
        return tab

    def _build_plan(self) -> CouplingPlan:
        n, m = self.n, self.m

        def g(r, s, k):
            return complex(self._table[r - 1, s - 1, k - 1])

        solve = tuple((s, self.u_map[s], tuple((r, k, g(r, k, s)) for r in range(m + 1, s)
                                               for k in range(m + 1, s) if g(r, k, s) != 0))
                      for s in range(m + 1, n + 1))
        depth, orders = {}, [1] * m
        for s, u, terms in solve:
            depth[s] = max([2, *(1 + depth[r] for r, _, _ in terms)])
            orders[u - 1] = max(orders[u - 1], depth[s])
        height = dict.fromkeys(range(m + 1, n + 1), 0)
        for s, _, terms in reversed(solve):
            for r, _, _ in terms:
                height[r] = max(height[r], 1 + height[s])
        shorthands = {name: g(m + i, m + j, m + k) if m + k <= n else 0.0
                      for name, (i, j, k) in _SHORTHAND_OFFSETS.items()}
        return CouplingPlan(solve, tuple(orders), tuple(height.values()), shorthands)

    @property
    def plan(self) -> CouplingPlan:
        """The coupling plan the closed forms evaluate (see CouplingPlan)."""
        return self._plan

    def gamma_coeff(self, r: int, s: int, k: int) -> complex:
        """Coefficient of I_k in I_r * I_s (0 outside the stored table)."""
        return complex(self._table[r - 1, s - 1, k - 1])

    @property
    def table(self) -> np.ndarray:
        """(n, n, n) tensor: table[j, k, l] = coefficient of I_{l+1} in I_{j+1}·I_{k+1}."""
        return self._table

    @property
    def unit_coeffs(self) -> np.ndarray:
        c = np.zeros(self.n, dtype=complex)
        c[: self.m] = 1.0
        return c


@dataclass(frozen=True)
class AlgElement:
    """Element of an algebra: a length-n complex coefficient vector over {I_k}."""

    spec: AlgebraSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.spec.n,):
            raise AlgebraError(f"coefficient vector has shape {c.shape}, expected ({self.spec.n},)")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement(self.spec, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement(self.spec, self.coeffs - other.coeffs)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.spec, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return multiply(self, other)
        return AlgElement(self.spec, self.coeffs * complex(other))

    __rmul__ = __mul__

    def coeff(self, k: int) -> complex:
        """Coefficient of I_k (1-based)."""
        return complex(self.coeffs[k - 1])


def unit_element(spec: AlgebraSpec) -> AlgElement:
    """The unit, represented explicitly as sum of all idempotents."""
    return AlgElement(spec, spec.unit_coeffs)


def basis_element(spec: AlgebraSpec, k: int) -> AlgElement:
    c = np.zeros(spec.n, dtype=complex)
    c[k - 1] = 1.0
    return AlgElement(spec, c)


def _mul_coeffs(spec: AlgebraSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays (n,) or (N, n), broadcast against each other.

    Two stacked vector-matrix products, one small BLAS call per point: a
    gives the rows of its multiplication matrix, and b times them is a * b.
    A point's product is the same whether it comes alone or in a batch, and
    no call is large enough for OpenBLAS to hand to a second thread.
    """
    return (b[..., None, :] @ _mult_rows(spec, a))[..., 0, :]


def multiply(a: AlgElement, b: AlgElement) -> AlgElement:
    """Bilinear extension of the basis multiplication table."""
    spec = a.spec
    if b.spec is not spec and b.spec != spec:
        raise AlgebraError("factors belong to different algebras")
    if a.coeffs.shape != b.coeffs.shape:
        raise AlgebraError("dimension mismatch between factors")
    return AlgElement(spec, _mul_coeffs(spec, a.coeffs, b.coeffs))


def functional_f(u: int, a: AlgElement) -> complex:
    """The multiplicative functional f_u: coefficient of I_u."""
    if not 1 <= u <= a.spec.m:
        raise AlgebraError(f"functional index {u} outside 1..{a.spec.m}")
    return complex(a.coeffs[u - 1])


def norm_euclid(a: AlgElement) -> float:
    """Euclidean norm over the 2n real coordinates (Re and Im of each
    coefficient): 2^e np.linalg.norm(2^-e coordinates), e the exponent of the
    largest, an exact scaling, so no square underflows or overflows."""
    parts = np.ascontiguousarray(a.coeffs).view(float)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(parts, -e).view(complex))), e)


def _mult_rows(spec: AlgebraSpec, coeffs: np.ndarray) -> np.ndarray:
    """Transposed matrices of multiplication by coeffs (..., n): row k is a * I_{k+1}."""
    n = spec.n
    return (coeffs[..., None, :] @ spec.table.reshape(n, n * n)).reshape(coeffs.shape[:-1] + (n, n))


def _mult_matrices(spec: AlgebraSpec, coeffs: np.ndarray) -> np.ndarray:
    """(..., n, n) matrices of multiplication by coeffs (..., n): column k is a * I_{k+1}."""
    return _mult_rows(spec, coeffs).swapaxes(-1, -2)


def mult_matrix(a: AlgElement) -> np.ndarray:
    """n x n complex matrix of multiplication by a: column k is a * I_{k+1}."""
    return _mult_matrices(a.spec, a.coeffs)


def _invert_direct_batch(spec: AlgebraSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverses of the rows of coeffs (N, n) by one stacked dense solve.

    Raises NonInvertibleError for the first row, in order, with an f_u equal
    to 0, carrying its smallest such u.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    f = coeffs[:, : spec.m]
    if np.count_nonzero(f) != f.size:
        i, u0 = np.argwhere(f == 0)[0]
        where = f" at row {i}" if len(coeffs) > 1 else ""
        raise NonInvertibleError(f"f_{u0 + 1}(a) = 0{where}: element not invertible",
                                 u=int(u0) + 1)
    # the unit as an explicit (N, n, 1) stack: numpy < 2 reads an (n, 1) b as n vectors
    unit = np.zeros(coeffs.shape + (1,), dtype=complex)
    unit[:, : spec.m] = 1.0
    try:
        return np.linalg.solve(_mult_matrices(spec, coeffs), unit)[..., 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by f_u check
        raise NonInvertibleError(str(exc)) from exc


def invert_direct(a: AlgElement) -> AlgElement:
    """Inverse by dense linear solve; the oracle all closed forms are tested against."""
    return AlgElement(a.spec, _invert_direct_batch(a.spec, a.coeffs[None])[0])


@dataclass
class ValidationReport:
    """All violated constraints of a spec; empty list means the spec is valid."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:  # truthy iff valid
        return self.ok


def validate_algebra(spec: AlgebraSpec) -> ValidationReport:
    """Check every rule of the multiplication table; lists all violations, never fail-fast.
    Products count as equal, or as zero, to within 1e-12."""
    n, m = spec.n, spec.m
    tol = 1e-12
    tab = spec.table
    report = ValidationReport()

    for (r, s, k), v in spec.gamma.items():
        if k <= max(r, s):
            report.violations.append(
                f"gamma-k-range: gamma({r},{s},{k}) = {v} has k <= max(r, s)"
            )
        w = spec.gamma.get((s, r, k))
        if w is not None and r != s and w != v:
            report.violations.append(
                f"gamma-symmetry: gamma({r},{s},{k}) = {v} but gamma({s},{r},{k}) = {w}"
            )

    nil = range(m + 1, n + 1)
    for r in nil:
        for s in nil:
            if np.max(np.abs(tab[r - 1, s - 1] - tab[s - 1, r - 1])) > tol:
                report.violations.append(f"commutativity: I_{r} I_{s} != I_{s} I_{r}")

    # each check is one batched product; a batch row is bit for bit its single product
    eye = np.eye(n, dtype=complex)

    def assoc(label: str, left) -> None:
        triples = [(i, s, p) for i in left for s in nil for p in nil]
        if not triples:
            return
        ii, ss, pp = (np.array(col) - 1 for col in zip(*triples))
        lhs = _mul_coeffs(spec, tab[ii, ss], eye[pp])
        rhs = _mul_coeffs(spec, eye[ii], tab[ss, pp])
        bad = np.max(np.abs(lhs - rhs), axis=1) > tol * (1 + np.max(np.abs(lhs), axis=1))
        for (i, s, p), b in zip(triples, bad):
            if b:
                report.violations.append(
                    f"assoc-{label}: (I_{i} I_{s}) I_{p} != I_{i} (I_{s} I_{p})")

    assoc("A1", nil)
    assoc("A2", range(1, m + 1))

    unit_off = np.max(np.abs(_mul_coeffs(spec, spec.unit_coeffs, eye) - eye), axis=1)
    for k in np.flatnonzero(unit_off > tol).tolist():
        report.violations.append(f"unit: (sum I_u) I_{k + 1} != I_{k + 1}")

    # nilpotency: span of (n-m+1)-fold products of nilpotent basis vectors must be 0
    if n > m:
        span = eye[m:]
        for _ in range(n - m):
            # every span vector times every nilpotent basis vector, in that order
            prods = _mul_coeffs(spec, np.repeat(span, n - m, axis=0),
                                np.tile(eye[m:], (len(span), 1)))
            span = prods[np.max(np.abs(prods), axis=1) > tol]
            if span.size == 0:
                break
        if span.size != 0:
            report.violations.append(
                f"nilpotency: some product of {n - m + 1} nilpotent basis vectors is nonzero"
            )
    return report


@dataclass
class PropositionReport:
    """Applicability of the two structural propositions for a spec."""

    prop1_applies: bool
    prop2_applies: bool
    prop2_contradictions: list[str] = field(default_factory=list)


def check_propositions(spec: AlgebraSpec) -> PropositionReport:
    """Proposition 1: constant u_map (a single absorbing idempotent) makes (A2) automatic.

    Proposition 2: injective u_map forces all nilpotent products to vanish;
    any nonzero product under an injective u_map is reported as a contradiction.
    """
    values = [spec.u_map[s] for s in sorted(spec.u_map)]
    prop1 = len(set(values)) <= 1
    prop2 = len(set(values)) == len(values)
    contradictions: list[str] = []
    if prop2:
        for r in range(spec.m + 1, spec.n + 1):
            for s in range(spec.m + 1, spec.n + 1):
                prod = spec.table[r - 1, s - 1]
                if np.max(np.abs(prod)) > 0:
                    contradictions.append(f"I_{r} I_{s} != 0 despite all u_s distinct")
    return PropositionReport(prop1, prop2, contradictions)


def algebra_from_json(data: dict) -> AlgebraSpec:
    """Build a spec from the JSON object format (complex numbers as [re, im] pairs)."""
    n, m = int(data["n"]), int(data["m"])
    u_list = data.get("u_map", [])
    u_map = {m + 1 + i: int(u) for i, u in enumerate(u_list)}
    gamma = {}
    for r, s, k, re, im in data.get("gamma", []):
        gamma[(int(r), int(s), int(k))] = complex(re, im)
    return AlgebraSpec(n=n, m=m, gamma=gamma, u_map=u_map, name=data.get("name", ""))
