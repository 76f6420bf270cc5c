"""The affine Weyl group: translations by scaled coroots, signed permutations on top.

Elements are kept in the normal form (translation, finite part).  The finite
part acts on the H-component only (the unslanted action); the slanted action
of a spec with slant nu is its conjugate by the shear translation along the
sharp of nu, matching the affine reflections of the spec exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from operator import mul

from .affine import (
    KINDS,
    AffineRoot,
    AffinisationSpec,
    ExtCartanVector,
    Weight,
    admissible_mode_step,
    affine_coroot,
    ext_cartan_basis,
    lars_finite_parts,
    root_weight,
    slant_shift,
)
from .rootdata import (
    CartanVector,
    Functional,
    Root,
    RootSystem,
    combine,
    common_rows,
    coroot,
    inner,
    int_vector,
    pairing,
    reflect_finite,
)


@dataclass(frozen=True)
class FiniteWeylElement:
    """A signed permutation: E_j -> signs[j] * E_perm[j], 1-based."""

    perm: tuple  # perm[j-1] = image index of j
    signs: tuple  # signs[j-1] in {1, -1}

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)) or len(self.signs) != n:
            raise ValueError("not a signed permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @staticmethod
    def identity(rank: int) -> "FiniteWeylElement":
        return FiniteWeylElement(tuple(range(1, rank + 1)), (1,) * rank)

    @property
    def rank(self) -> int:
        return len(self.perm)

    def apply(self, h: CartanVector) -> CartanVector:
        num = [0] * self.rank
        for j, x in enumerate(h.num):
            num[self.perm[j] - 1] = self.signs[j] * x
        return int_vector(num, h.den)

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        # composition: (self * other) acts as self after other
        perm = tuple(self.perm[other.perm[j] - 1] for j in range(self.rank))
        signs = tuple(other.signs[j] * self.signs[other.perm[j] - 1] for j in range(self.rank))
        return FiniteWeylElement(perm, signs)

    def inverse(self) -> "FiniteWeylElement":
        perm = [0] * self.rank
        signs = [1] * self.rank
        for j in range(self.rank):
            perm[self.perm[j] - 1] = j + 1
            signs[self.perm[j] - 1] = self.signs[j]
        return FiniteWeylElement(tuple(perm), tuple(signs))

    def num_sign_flips(self) -> int:
        return sum(1 for s in self.signs if s == -1)

    def allowed_in(self, kind: str) -> bool:
        rule = KINDS[kind].sign_flips
        if rule == "any":
            return True
        flips = self.num_sign_flips()
        return flips == 0 if rule == "none" else flips % 2 == 0


def reflection_element(a: Root, rank: int) -> FiniteWeylElement:
    """The finite reflection r_a as a signed permutation."""
    perm = list(range(1, rank + 1))
    signs = [1] * rank
    cs = a.coeffs
    if len(cs) == 1:
        j = cs[0][0]
        signs[j - 1] = -1
    else:
        (j, cj), (k, ck) = cs
        perm[j - 1], perm[k - 1] = k, j
        if cj * ck > 0:  # eps_j + eps_k type: swap with both signs flipped
            signs[j - 1] = signs[k - 1] = -1
    return FiniteWeylElement(tuple(perm), tuple(signs))


def finite_weyl_group(kind: str, rank: int) -> tuple[FiniteWeylElement, ...]:
    """All finite Weyl elements of the kind, deterministic order; built once per (kind, rank).

    No `src/` path scans the group: `energy._distinct_images` enumerates the
    orbit of the character and finds, per image, the first element of this
    order.  The group stays as the tests' reference for that enumeration;
    perfbench/tracer.py and perfbench/run.py also resolve it by name.
    """
    return _finite_weyl_group(kind, rank)


@lru_cache(maxsize=None)
def _finite_weyl_group(kind: str, rank: int) -> tuple[FiniteWeylElement, ...]:
    # the sign vectors the kind admits, in product order, under each permutation
    ident = tuple(range(1, rank + 1))
    signs = [s for s in product((1, -1), repeat=rank) if FiniteWeylElement(ident, s).allowed_in(kind)]
    return tuple(FiniteWeylElement(perm, s) for perm in permutations(range(1, rank + 1)) for s in signs)


@dataclass(frozen=True)
class Translation:
    """A Weyl translation, stored by its i-picture direction vector."""

    y: CartanVector


@dataclass(frozen=True)
class AffWeylElement:
    trans: Translation
    fin: FiniteWeylElement

    @staticmethod
    def identity(rank: int) -> "AffWeylElement":
        return AffWeylElement(Translation(CartanVector()), FiniteWeylElement.identity(rank))

    def __mul__(self, other: "AffWeylElement") -> "AffWeylElement":
        # semidirect product: (y, w)(y', w') = (y + w.y', ww')
        return AffWeylElement(
            Translation(self.trans.y + self.fin.apply(other.trans.y)),
            self.fin * other.fin,
        )

    def inverse(self) -> "AffWeylElement":
        winv = self.fin.inverse()
        return AffWeylElement(Translation(winv.apply(-self.trans.y)), winv)

    def to_json(self):
        return {
            "translation": self.trans.y.to_json(),
            "perm": list(self.fin.perm),
            "signs": list(self.fin.signs),
        }


# -- actions -------------------------------------------------------------


def translate(spec: AffinisationSpec, y, v: ExtCartanVector) -> ExtCartanVector:
    """i-picture transport of the Weyl translation along y (a vector or Translation)."""
    if isinstance(y, Translation):
        y = y.y
    return ExtCartanVector(
        v.z - pairing(v.h, y) + v.t * pairing(y, y) / 2,
        v.h - y.scale(v.t),
        v.t,
    )


def act(spec: AffinisationSpec, w: AffWeylElement, v: ExtCartanVector) -> ExtCartanVector:
    """Unslanted action: signed permutation on H, then the translation."""
    moved = ExtCartanVector(v.z, w.fin.apply(v.h), v.t)
    return translate(spec, w.trans.y, moved)


def act_slanted(spec: AffinisationSpec, nu: Functional, w: AffWeylElement, v: ExtCartanVector) -> ExtCartanVector:
    """nu-slanted action: the unslanted action conjugated by the shear along nu sharp."""
    shifted = translate(spec, -nu, v)
    moved = act(spec, w, shifted)
    return translate(spec, nu, moved)


class AffineReflection:
    """The reflection v -> v - r(v) r-check in a compact affine root r, with the spec's slant.

    r as a weight, r(v) = alpha(H) + shift T, and its coroot are built once
    per (spec, r).  A reflection computes in integers and builds one
    Fraction, the new Z.
    """

    __slots__ = ("alpha", "shift", "coroot", "rank")

    def __init__(self, spec: AffinisationSpec, r: AffineRoot):
        if not r.is_compact():
            raise ValueError("cannot reflect in a non-compact root")
        weight = root_weight(spec, r)
        self.alpha, self.shift = weight.l0, weight.ld
        self.coroot = affine_coroot(spec, r)
        self.rank = spec.base.rank

    def __call__(self, v: ExtCartanVector) -> ExtCartanVector:
        h, t, s, zc = v.h, v.t, self.shift, self.coroot.z
        if len(h.num) > self.rank:
            raise ValueError("vector support exceeds the base rank")
        # r(v) = p / q over the denominators of alpha(H) and shift T
        hq, sq = self.alpha.den * h.den, s.denominator * t.denominator
        p = sum(map(mul, self.alpha.num, h.num)) * sq + s.numerator * t.numerator * hq
        if not p:
            return v
        q = hq * sq
        zq = v.z.denominator * q * zc.denominator
        z = Fraction(v.z.numerator * q * zc.denominator - p * zc.numerator * v.z.denominator, zq)
        return ExtCartanVector(z, combine(h, q, self.coroot.h, -p, q), t)


def reflect_affine(spec: AffinisationSpec, r: AffineRoot, v: ExtCartanVector) -> ExtCartanVector:
    """Reflection in a compact affine root, with the spec's slant."""
    return AffineReflection(spec, r)(v)


def reflection_aff_element(spec: AffinisationSpec, r: AffineRoot) -> AffWeylElement:
    """Normal form of r_(a,n): translation by (n/N) a-check, then r_a."""
    if not r.is_compact():
        raise ValueError("cannot reflect in a non-compact root")
    y = coroot(r.root).scale(Fraction(r.mode, spec.twist_order))
    return AffWeylElement(Translation(y), reflection_element(r.root, spec.base.rank))


def word_reduce(spec: AffinisationSpec, word: list[AffineRoot]) -> AffWeylElement:
    """Normal form of a product of affine reflections, written left to right.

    The word multiplies like the written product: the last letter acts first.
    The result is verified against the step-by-step slanted reflections on a
    basis of the extended Cartan model.
    """
    out = AffWeylElement.identity(spec.base.rank)
    for letter in word:
        out = out * reflection_aff_element(spec, letter)

    reflections = [AffineReflection(spec, letter) for letter in reversed(word)]
    for v in ext_cartan_basis(spec.base.rank):
        direct = v
        for reflect in reflections:
            direct = reflect(direct)
        if act_slanted(spec, spec.slant, out, v) != direct:
            raise AssertionError("word reduction does not match the composed reflections")
    return out


def f_word(spec: AffinisationSpec, nu: Functional, letters: list[Root], v: ExtCartanVector) -> CartanVector:
    """Finite-part displacement of a word of mode-0 reflections applied first-to-last.

    Composing the slanted mode-0 reflections of the letters (first letter
    acting first) moves v by exactly (nu(f), -f, 0) for the returned f.
    """
    out = CartanVector()
    nletters = len(letters)
    for s in range(nletters):
        a = letters[s]
        coeff = a.functional()(v.h) + v.t * inner(nu, a.functional())
        vec = coroot(a)
        for k in range(s + 1, nletters):
            vec = reflect_finite(letters[k], vec)
        out = out + vec.scale(coeff)
    return out


def translation_lattice(spec: AffinisationSpec) -> tuple[CartanVector, ...]:
    """A Z-basis of the lattice of Weyl translation vectors for a standard spec."""
    if not spec.is_standard():
        raise ValueError("translation lattice is defined for standard specs")
    return _translation_lattice(spec.lars, spec.base)


@lru_cache(maxsize=None)
def _translation_lattice(kind: str, base: RootSystem) -> tuple[CartanVector, ...]:
    gens = []
    for a in lars_finite_parts(kind, base):
        res, step = admissible_mode_step(kind, a)
        gens.append(coroot(a).scale(Fraction(gcd(res, step), KINDS[kind].twist_order)))
    return _lattice_reduce(gens, base.rank)


def _lattice_reduce(gens: list[CartanVector], rank: int) -> tuple[CartanVector, ...]:
    """Hermite-style Z-basis of the group generated by the given vectors."""
    rows, den = common_rows(gens, rank)
    # integer row reduction: Euclid on each column, pivots made positive
    mat = [r for r in rows if any(r)]
    basis = []
    for col in range(rank):
        pool = [r for r in mat if r[col]]
        mat = [r for r in mat if not r[col]]
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[col]))
            piv = pool[0]
            reduced = [[x - r[col] // piv[col] * y for x, y in zip(r, piv)] for r in pool[1:]]
            mat += [r for r in reduced if not r[col] and any(r)]
            pool = [piv] + [r for r in reduced if r[col]]
        if pool:
            basis.append(pool[0] if pool[0][col] > 0 else [-x for x in pool[0]])
    return tuple(int_vector(row, den) for row in basis)


def lattice_contains(basis: list[CartanVector], y: CartanVector, rank: int) -> bool:
    """Membership of y in the lattice spanned by an upper-triangular-style basis."""
    rem = y
    for b in basis:
        lead = next((j for j in range(1, rank + 1) if b[j]), None)
        if lead is None:
            continue
        c = rem[lead] / b[lead]
        if c.denominator != 1:
            return False
        rem = rem - b.scale(c)
    return rem.is_zero()


def unslanted_action_check(
    spec: AffinisationSpec,
    nu: Functional,
    w: AffWeylElement,
    lam: Weight,
    chi: ExtCartanVector,
) -> tuple[Fraction, Fraction]:
    """Both sides of the slanted/unslanted comparison; the contract is lhs == rhs.

    lhs evaluates lam on the nu-slanted orbit displacement of chi; rhs evaluates
    the nu-shifted weight on the unslanted displacement of the nu-shifted vector.
    """
    lhs = lam(act_slanted(spec, nu, w, chi) - chi)
    lam_nu, chi_nu = slant_shift(lam, chi, nu)
    rhs = lam_nu(act(spec, w, chi_nu) - chi_nu)
    return lhs, rhs
