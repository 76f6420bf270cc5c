"""Finite-rank locally finite root systems of types A, B, C, D.

Roots are sparse integer vectors in the epsilon-basis of the dual.  Cartan
vectors, functionals and the finite parts of weights share one exact vector
type, `CartanVector`, stored like `cyclo.Cyc`: a dense integer tuple (index j
at position j - 1, trailing zeros dropped) over one positive denominator in
lowest terms.  The E-basis is orthonormal, so the transport eps_j -> E_j is
the identity on coordinates and `Functional` names the same class.  Sums,
scalings, pairings and signed permutations compute in integers; all values
are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul

from . import DomainError
from .jsonio import json_field, rational_from_json

KINDS = ("A", "B", "C", "D")
MAX_RANK = 50  # the largest base rank a request may name; W(B_n) alone has 2^n n! elements


@dataclass(frozen=True)
class RootSystem:
    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown root system kind {self.kind!r}")
        if self.rank < 2:
            raise DomainError("rank must be at least 2")

    def to_json(self):
        return {"kind": self.kind, "rank": self.rank}

    @staticmethod
    def from_json(obj) -> "RootSystem":
        kind = json_field(obj, "kind", "root system", str)
        rank = json_field(obj, "rank", "root system", int)
        if rank > MAX_RANK:
            raise IOError(f"root system rank {rank} is above MAX_RANK = {MAX_RANK}")
        return RootSystem(kind, rank)


def _canon(items) -> tuple:
    out = tuple(sorted((int(j), v) for j, v in items if v))
    for j, _ in out:
        if j < 1:
            raise ValueError("indices are 1-based")
    return out


@dataclass(frozen=True)
class Root:
    """A root, as a sparse integer vector in the epsilon-basis."""

    coeffs: tuple  # sorted tuple of (index, coefficient)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs))
        if not self.coeffs:
            raise ValueError("a root is nonzero")
        if len(self.coeffs) > 2 or any(abs(c) not in (1, 2) for _, c in self.coeffs):
            raise ValueError(f"not a type A-D root pattern: {self.coeffs}")
        if len(self.coeffs) == 2 and any(abs(c) == 2 for _, c in self.coeffs):
            raise ValueError(f"not a type A-D root pattern: {self.coeffs}")

    def __neg__(self) -> "Root":
        return Root(tuple((j, -c) for j, c in self.coeffs))

    def support(self) -> tuple:
        return tuple(j for j, _ in self.coeffs)

    def functional(self) -> "Functional":
        """The root as a functional; built once per root."""
        return self._functional

    @cached_property
    def _functional(self) -> "Functional":
        return Functional(self.coeffs)

    def to_json(self):
        return {"coeffs": {str(j): c for j, c in self.coeffs}}


class CartanVector:
    """An exact rational vector indexed by 1..rank: coordinate j is num[j - 1] / den.

    The form is canonical (trailing zeros dropped, den > 0 and coprime to the
    entries), so equal vectors have equal num, den and hash, and zero is
    ((), 1).  Arithmetic and pairings run in integers.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coords=()):
        """From a dict or (index, value) pairs of rationals."""
        coords = {int(j): Fraction(v) for j, v in dict(coords).items()}
        if any(j < 1 for j in coords):
            raise ValueError("indices are 1-based")
        den = lcm(*(v.denominator for v in coords.values()))
        num = [0] * max(coords, default=0)
        for j, v in coords.items():
            num[j - 1] = v.numerator * (den // v.denominator)
        return int_vector(num, den)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def coords(self) -> tuple:
        """The nonzero coordinates as sorted (index, Fraction) pairs."""
        return tuple((j, Fraction(x, self.den)) for j, x in enumerate(self.num, 1) if x)

    def __getitem__(self, j: int) -> Fraction:
        return Fraction(self.num[j - 1], self.den) if 0 < j <= len(self.num) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.num

    def support(self) -> tuple:
        return tuple(j for j, x in enumerate(self.num, 1) if x)

    def __eq__(self, other):
        return type(other) is CartanVector and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return combine(self, 1, other, 1)

    def __sub__(self, other):
        return combine(self, 1, other, -1)

    def __neg__(self):
        return int_vector([-x for x in self.num], self.den)

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return int_vector([c.numerator * x for x in self.num], self.den * c.denominator)

    def sharp(self) -> "CartanVector":
        """The transport eps_j -> E_j: the E-basis is orthonormal, so the vector itself."""
        return self

    def __call__(self, h: "CartanVector") -> Fraction:
        return pairing(self, h)

    def __repr__(self):
        return "CartanVector(" + (" + ".join(f"{v}*[{j}]" for j, v in self.coords) or "0") + ")"

    def to_json(self):
        return {"coords": {str(j): str(v) for j, v in self.coords}}

    @staticmethod
    def from_json(obj, rank: int | None = None) -> "CartanVector":
        """Parse {"coords": {"j": rational}} with decimal indices j, at most rank when given.

        A malformed or out-of-range index or value raises IOError (exit 2);
        input from outside passes a rank, so no index sizes an allocation.
        """
        where = "malformed vector coordinate"
        coords = {}
        for key, v in json_field(obj, "coords", "vector", dict).items():
            j = str(key)
            if not (j.isascii() and j.isdigit()) or int(j) < 1:
                raise IOError(f"{where}: index {j!r} is not a positive integer")
            if rank is not None and int(j) > rank:
                raise IOError(f"{where}: index {j!r} is above the rank {rank}")
            coords[int(j)] = rational_from_json(v, where)
        return CartanVector(coords)


#: functionals in the epsilon-basis are Cartan vectors under the orthonormal transport
Functional = CartanVector


def int_vector(num, den: int = 1) -> CartanVector:
    """The vector with coordinates num[j - 1] / den, for integers num and den > 0."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    g = gcd(den, *num[:n])
    v = object.__new__(CartanVector)
    object.__setattr__(v, "num", tuple(x // g for x in num[:n]) if g > 1 else tuple(num[:n]))
    object.__setattr__(v, "den", den // g)
    return v


def combine(u: CartanVector, a: int, v: CartanVector, b: int) -> CartanVector:
    """a u + b v for integers a and b."""
    a, b, den = a * v.den, b * u.den, u.den * v.den
    x, y = u.num, v.num
    if len(x) < len(y):
        x, y, a, b = y, x, b, a
    num = [a * s + b * t for s, t in zip(x, y)]
    num.extend(a * s for s in x[len(y):])
    return int_vector(num, den)


def common_rows(vectors, rank: int) -> tuple[list, int]:
    """Integer rows of length rank and one denominator d with vectors[i] = rows[i] / d."""
    den = lcm(*(v.den for v in vectors))
    rows = [[x * (den // v.den) for x in v.num] + [0] * (rank - len(v.num)) for v in vectors]
    return rows, den


def pairing(u: CartanVector, v: CartanVector) -> Fraction:
    """The positive-definite form with p(E_j, E_k) = delta_jk."""
    return Fraction(sum(map(mul, u.num, v.num)), u.den * v.den)


def sharp(f: Functional) -> CartanVector:
    """Transport eps_j -> E_j from functionals to Cartan vectors: the identity."""
    return f


def inner(a, b) -> Fraction:
    """Euclidean product of epsilon-coordinates, for roots or functionals."""
    fa = a.functional() if isinstance(a, Root) else a
    fb = b.functional() if isinstance(b, Root) else b
    return pairing(fa, fb)


def coroot(a: Root) -> CartanVector:
    """(2 / (a,a)) times the sharp of a; the root takes value 2 on it."""
    f = a.functional()
    return int_vector([2 * x for x in f.num], sum(x * x for x in f.num))


def reflect_finite(a: Root, h: CartanVector) -> CartanVector:
    """Reflection of a Cartan vector in the hyperplane where the root vanishes."""
    return h - coroot(a).scale(a.functional()(h))


def enumerate_roots(system: RootSystem) -> list[Root]:
    """All roots of the system, in a fixed lexicographic order."""
    n = system.rank
    roots: list[Root] = []
    if system.kind == "A":
        for j, k in combinations(range(1, n + 1), 2):
            roots.append(Root(((j, 1), (k, -1))))
            roots.append(Root(((j, -1), (k, 1))))
    else:
        if system.kind == "B":
            for j in range(1, n + 1):
                roots.append(Root(((j, 1),)))
                roots.append(Root(((j, -1),)))
        if system.kind == "C":
            for j in range(1, n + 1):
                roots.append(Root(((j, 2),)))
                roots.append(Root(((j, -2),)))
        for j, k in combinations(range(1, n + 1), 2):
            for sj in (1, -1):
                for sk in (1, -1):
                    roots.append(Root(((j, sj), (k, sk))))
    return sorted(roots, key=lambda r: r.coeffs)
