"""Finite-rank locally finite root systems of types A, B, C, D.

Everything lives in exact rational coordinates: roots in the epsilon-basis
of the dual, Cartan vectors in the orthonormal E-basis, with the transport
map eps_j -> E_j realising the duality.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

KINDS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class RootSystem:
    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown root system kind {self.kind!r}")
        if self.rank < 2:
            raise ValueError("rank must be at least 2")

    def to_json(self):
        return {"kind": self.kind, "rank": self.rank}

    @staticmethod
    def from_json(obj) -> "RootSystem":
        return RootSystem(str(obj["kind"]), int(obj["rank"]))


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

    @staticmethod
    def from_dict(d) -> "Root":
        return Root(tuple((int(j), int(c)) for j, c in d.items()))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple((j, -c) for j, c in self.coeffs))

    def support(self) -> tuple:
        return tuple(j for j, _ in self.coeffs)

    def functional(self) -> "Functional":
        return Functional(tuple((j, Fraction(c)) for j, c in self.coeffs))

    def belongs_to(self, system: RootSystem) -> bool:
        if any(j > system.rank for j, _ in self.coeffs):
            return False
        pat = tuple(abs(c) for _, c in self.coeffs)
        if system.kind == "A":
            return pat == (1, 1) and self.coeffs[0][1] + self.coeffs[1][1] == 0
        if system.kind == "B":
            return pat in ((1,), (1, 1))
        if system.kind == "C":
            return pat in ((2,), (1, 1))
        return pat == (1, 1)

    def to_json(self):
        return {"coeffs": {str(j): c for j, c in self.coeffs}}

    @staticmethod
    def from_json(obj) -> "Root":
        return Root(tuple((int(j), int(c)) for j, c in obj["coeffs"].items()))


def _sparse_add(a: tuple, b: tuple) -> tuple:
    out = dict(a)
    for j, v in b:
        out[j] = out.get(j, 0) + v
    return tuple(sorted((j, v) for j, v in out.items() if v))


class _SparseQVector:
    """Shared behaviour of exact sparse rational vectors indexed by 1..rank."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        if isinstance(coords, dict):
            coords = coords.items()
        converted = ((int(j), Fraction(v)) for j, v in coords)
        object.__setattr__(self, "coords", tuple(sorted(jv for jv in converted if jv[1])))
        for j, _ in self.coords:
            if j < 1:
                raise ValueError("indices are 1-based")

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def as_dict(self) -> dict:
        return dict(self.coords)

    def __getitem__(self, j: int) -> Fraction:
        for k, v in self.coords:
            if k == j:
                return v
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coords

    def support(self) -> tuple:
        return tuple(j for j, _ in self.coords)

    def __eq__(self, other):
        return type(self) is type(other) and self.coords == other.coords

    def __hash__(self):
        return hash((type(self).__name__, self.coords))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(_sparse_add(self.coords, other.coords))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(tuple((j, -v) for j, v in self.coords))

    def scale(self, c):
        c = Fraction(c)
        return type(self)(tuple((j, c * v) for j, v in self.coords))

    def __repr__(self):
        if not self.coords:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{v}*[{j}]" for j, v in self.coords)
        return f"{type(self).__name__}({body})"

    def to_json(self):
        return {"coords": {str(j): str(v) for j, v in self.coords}}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple((int(j), Fraction(v)) for j, v in obj["coords"].items()))


class CartanVector(_SparseQVector):
    """An element of the real Cartan model, in the orthonormal E-basis."""


class Functional(_SparseQVector):
    """A linear functional on the Cartan model, in the epsilon-basis."""

    def sharp(self) -> CartanVector:
        return CartanVector(self.coords)

    def __call__(self, h: CartanVector) -> Fraction:
        return pairing(self.sharp(), h)


def pairing(u: CartanVector, v: CartanVector) -> Fraction:
    """The positive-definite form with p(E_j, E_k) = delta_jk."""
    dv = dict(v.coords)
    return sum((c * dv[j] for j, c in u.coords if j in dv), Fraction(0))


def sharp(f: Functional) -> CartanVector:
    """Transport eps_j -> E_j from functionals to Cartan vectors."""
    return f.sharp()


def inner(a, b) -> Fraction:
    """Euclidean product of epsilon-coordinates, for roots or functionals."""
    fa = a.functional() if isinstance(a, Root) else a
    fb = b.functional() if isinstance(b, Root) else b
    return pairing(fa.sharp(), fb.sharp())


def coroot(a: Root) -> CartanVector:
    """(2 / (a,a)) times the sharp of a; the root takes value 2 on it."""
    n = inner(a, a)
    return a.functional().sharp().scale(Fraction(2, 1) / n)


def reflect_finite(a: Root, h: CartanVector) -> CartanVector:
    """Reflection of a Cartan vector in the hyperplane where the root vanishes."""
    val = a.functional()(h)
    return h - coroot(a).scale(val)


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
