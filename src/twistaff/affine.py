"""Affine roots over the seven locally affine root system kinds.

``KINDS`` holds one ``LarsKind`` row per kind: the finite base, the admissible
modes of each root pattern, the matrix model layout, the pairings of the
defining involution, the standard twist and the antilinear structure map, the
sign-flip rule of the finite Weyl group and the translation lattice.  Every
other module reads a kind's facts from its row.

An affinisation context couples a finite base system with a twist order and
two slant functionals.  Cartan-side data is stored in the i-picture: a triple
(Z, H, T) standing for the complex triple (iZ, H, -iT), under which root
evaluation, coroots, translations and the Weyl action all become real
rational formulas.  Z and T (and the central and scaling values of a weight)
are `Fraction`s; H and every slant or finite weight part is the integer
vector `rootdata.CartanVector`.  ``lars_finite_parts`` enumerates the finite
parts of a realization once per (kind, base) and process: it and
``_finite_part_set`` are module-level caches that outlive a request, so only
the first request of a process for a (kind, base) builds its ``Root``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import DomainError
from .jsonio import json_field, rational_from_json
from .rootdata import CartanVector, Functional, Root, RootSystem, coroot, enumerate_roots, inner


@dataclass(frozen=True)
class LarsKind:
    """The facts that fix one standard affinisation; everything else derives from them.

    ``short``, ``long`` and ``pair`` are the admissible modes (residue, step),
    n = residue mod step, at a root +-eps_j, +-2 eps_j and +-eps_j +- eps_k, or None
    where the kind has no such roots.  The matrix model lays out a plus block of
    weights eps_1..eps_r, ``zeros`` weight-zero vectors and, when ``mirrored``, a
    minus block of weights -eps_1..-eps_r.  Its pairing Q maps each plus vector to
    its mirror and fixes the zero vectors: "exchange" maps each minus vector back,
    "symplectic" to minus the plus vector.  ``involution`` names the pairing of the
    defining involution x -> -Q x^T Q^-1 (None: the full matrix algebra),
    ``twist`` the standard twist ("flip": conjugation by the reflection negating
    the second zero vector, a pairing: x -> -Q x^T Q^-1), ``structure`` the
    pairing whose Q is the linear part of the antilinear structure map, and
    ``psi_kind`` the certificates' name of the standard twist.  The finite Weyl
    group takes the signed permutations whose number of sign flips
    ``sign_flips`` allows ("none", "even" or "any"); the translation lattice is
    scale * (Z^n | D_n | A_(n-1)) for ``lattice`` = (shape, scale).
    """

    name: str
    base: str
    lattice: tuple
    short: tuple | None = None
    long: tuple | None = None
    pair: tuple | None = None
    zeros: int = 0
    mirrored: bool = True
    involution: str | None = None
    twist: str | None = None
    structure: str | None = None
    psi_kind: str = "identity"
    sign_flips: str = "any"

    @property
    def twist_order(self) -> int:
        return 1 if self.twist is None else 2


_ALL, _EVEN, _ODD = (0, 1), (0, 2), (1, 2)  # admissible modes: all, even, odd

#: the seven standard affinisations, by name
KINDS = {
    kind.name: kind
    for kind in (
        LarsKind("A1", "A", pair=_ALL, mirrored=False, sign_flips="none", lattice=("A", 1)),
        LarsKind(
            "B1", "B", short=_ALL, pair=_ALL, zeros=1, involution="exchange", lattice=("D", 1)
        ),
        LarsKind(
            "C1", "C", long=_ALL, pair=_ALL, involution="symplectic", structure="symplectic",
            lattice=("Z", 1),
        ),
        LarsKind("D1", "D", pair=_ALL, involution="exchange", sign_flips="even", lattice=("D", 1)),
        LarsKind(
            "B2", "B", short=_ALL, pair=_EVEN, zeros=2, involution="exchange", twist="flip",
            psi_kind="standard_B", lattice=("Z", 1),
        ),
        LarsKind(
            "C2", "C", long=_EVEN, pair=_ALL, twist="symplectic", structure="symplectic",
            psi_kind="standard_C", lattice=("D", Fraction(1, 2)),
        ),
        LarsKind(
            "BC2", "B", short=_ALL, long=_ODD, pair=_ALL, zeros=1, twist="exchange",
            structure="exchange", psi_kind="standard_BC", lattice=("Z", Fraction(1, 2)),
        ),
    )
}
LARS_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class AffinisationSpec:
    """Base system + affine kind + twist order + the two slant functionals."""

    base: RootSystem
    lars: str
    twist_order: int = 0  # 0 means: the standard order of the kind
    slant_mu: Functional = field(default_factory=Functional)
    slant_nu: Functional = field(default_factory=Functional)

    def __post_init__(self):
        kind = KINDS.get(self.lars)
        if kind is None:
            raise DomainError(f"unknown affine kind {self.lars!r}")
        if kind.base != self.base.kind:
            raise DomainError(f"kind {self.lars} needs a base of type {kind.base}")
        if self.twist_order == 0:
            object.__setattr__(self, "twist_order", kind.twist_order)
        if self.twist_order < 1:
            raise DomainError("twist order must be positive")

    @cached_property
    def slant(self) -> Functional:
        """Total slant entering root evaluation."""
        return self.slant_mu + self.slant_nu

    def is_standard(self) -> bool:
        return self.twist_order == KINDS[self.lars].twist_order

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "lars": self.lars,
            "twist_order": self.twist_order,
            "slant_mu": self.slant_mu.to_json(),
            "slant_nu": self.slant_nu.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "AffinisationSpec":
        where = "affinisation spec"
        base = RootSystem.from_json(json_field(obj, "base", where, dict))
        lars, twist_order = json_field(obj, "lars", where, str), json_field(obj, "twist_order", where, int, 0)
        slant_mu, slant_nu = (
            Functional.from_json(json_field(obj, key, where, dict, {"coords": {}}), base.rank)
            for key in ("slant_mu", "slant_nu")
        )
        return AffinisationSpec(base, lars, twist_order, slant_mu, slant_nu)


def standard_spec(kind: str, rank: int, mu=None, nu=None) -> AffinisationSpec:
    return AffinisationSpec(
        base=RootSystem(KINDS[kind].base, rank),
        lars=kind,
        slant_mu=mu if mu is not None else Functional(),
        slant_nu=nu if nu is not None else Functional(),
    )


@dataclass(frozen=True)
class AffineRoot:
    """A pair (finite part, mode); a zero finite part encodes the non-compact roots."""

    root: Root | None
    mode: int

    def __post_init__(self):
        if self.root is None and self.mode == 0:
            raise ValueError("(0, 0) is not a root")

    def is_compact(self) -> bool:
        return self.root is not None

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(None if self.root is None else -self.root, -self.mode)

    def to_json(self):
        return {"root": None if self.root is None else self.root.to_json(), "mode": self.mode}


@dataclass(frozen=True)
class ExtCartanVector:
    """i-picture triple (Z, H, T) in the extended Cartan model."""

    z: Fraction
    h: CartanVector
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "z", _rational(self.z))
        object.__setattr__(self, "t", _rational(self.t))

    def __add__(self, other: "ExtCartanVector") -> "ExtCartanVector":
        return ExtCartanVector(self.z + other.z, self.h + other.h, self.t + other.t)

    def __sub__(self, other: "ExtCartanVector") -> "ExtCartanVector":
        return ExtCartanVector(self.z - other.z, self.h - other.h, self.t - other.t)

    def __neg__(self) -> "ExtCartanVector":
        return ExtCartanVector(-self.z, -self.h, -self.t)

    def scale(self, c) -> "ExtCartanVector":
        c = Fraction(c)
        return ExtCartanVector(c * self.z, self.h.scale(c), c * self.t)

    def to_json(self):
        return {"z": str(self.z), "h": self.h.to_json(), "t": str(self.t)}


def _rational(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class Weight:
    """A weight of the extended algebra, split as (central value, finite part, scaling value)."""

    lc: Fraction
    l0: Functional
    ld: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lc", _rational(self.lc))
        object.__setattr__(self, "ld", _rational(self.ld))

    def __call__(self, v: ExtCartanVector) -> Fraction:
        return self.lc * v.z + self.l0(v.h) + self.ld * v.t

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.lc - other.lc, self.l0 - other.l0, self.ld - other.ld)

    def to_json(self):
        return {"lc": str(self.lc), "l0": self.l0.to_json(), "ld": str(self.ld)}

    @staticmethod
    def from_json(obj, rank: int | None = None) -> "Weight":
        where = "malformed weight"
        lc, ld = (rational_from_json(json_field(obj, key, where), where) for key in ("lc", "ld"))
        return Weight(lc, Functional.from_json(json_field(obj, "l0", where, dict), rank), ld)


def slant_shift(lam: Weight, chi: ExtCartanVector, nu: Functional):
    """The unslanting substitution: the weight minus lc nu, the vector (or character) plus T nu.

    The nu-slanted orbit values of (lam, chi) are the unslanted ones of the
    shifted pair; chi keeps its type, so an `energy.Character` stays one.
    """
    lam_nu = Weight(lam.lc, lam.l0 - nu.scale(lam.lc), lam.ld)
    return lam_nu, type(chi)(chi.z, chi.h + nu.scale(chi.t), chi.t)


# -- membership in the seven realizations ------------------------------------


@lru_cache(maxsize=None)
def lars_finite_parts(kind: str, base: RootSystem) -> tuple[Root, ...]:
    """All finite parts occurring in the realization (the non-reduced union for BC2)."""
    roots = enumerate_roots(base)
    row = KINDS[kind]
    if row.long and row.short:  # non-reduced: the long roots join the B roots
        roots += [Root(((j, s),)) for j in range(1, base.rank + 1) for s in (2, -2)]
    return tuple(sorted(roots, key=lambda r: r.coeffs))


@lru_cache(maxsize=None)
def _finite_part_set(kind: str, base: RootSystem) -> frozenset:
    return frozenset(lars_finite_parts(kind, base))


_PATTERNS = {(1,): "short", (2,): "long", (1, 1): "pair"}


def admissible_mode_step(kind: str, a: Root) -> tuple[int, int]:
    """The modes admissible for a finite part, as a residue class (r, s): n = r mod s."""
    pattern = _PATTERNS.get(tuple(abs(c) for _, c in a.coeffs))
    step = getattr(KINDS[kind], pattern) if pattern else None
    if step is None:
        raise ValueError(f"{a} has no admissible modes in kind {kind}")
    return step


def lars_contains(kind: str, r: AffineRoot, base: RootSystem) -> bool:
    """Membership of (finite part, mode) in the realization of the given kind."""
    if r.root is None:
        return r.mode != 0
    if r.root not in _finite_part_set(kind, base):
        return False
    res, step = admissible_mode_step(kind, r.root)
    return r.mode % step == res % step


#: the most (root, mode) pairs a listing may span: finite parts times the 2 window + 1 modes
MAX_ROOT_MODES = 100_000


def check_root_window(parts, window: int) -> None:
    """Refuse a window whose (root, mode) pairs over the finite parts exceed MAX_ROOT_MODES."""
    pairs = len(parts) * (2 * window + 1)
    if pairs > MAX_ROOT_MODES:
        raise IOError(
            f"window {window} spans {pairs} (root, mode) pairs over {len(parts)} finite parts, "
            f"above MAX_ROOT_MODES = {MAX_ROOT_MODES}"
        )


def enumerate_affine_roots(kind: str, base: RootSystem, window: int) -> list[AffineRoot]:
    """Compact affine roots with |mode| <= window, deterministic order; see check_root_window."""
    parts = lars_finite_parts(kind, base)
    check_root_window(parts, window)
    out = []
    for a in parts:
        res, step = admissible_mode_step(kind, a)
        for n in range(-window, window + 1):
            if n % step == res % step:
                out.append(AffineRoot(a, n))
    return out


# -- evaluation and coroots --------------------------------------------------


def root_weight(spec: AffinisationSpec, r: AffineRoot) -> Weight:
    """The affine root as a weight: its value is alpha(H) + T*(n/N + slant(alpha sharp))."""
    shift = Fraction(r.mode, spec.twist_order)
    if r.root is None:
        return Weight(0, Functional(), shift)
    f = r.root.functional()
    return Weight(0, f, shift + inner(spec.slant, f))


def affine_coroot(spec: AffinisationSpec, r: AffineRoot) -> ExtCartanVector:
    """The coroot of a compact affine root, in the i-picture."""
    if not r.is_compact():
        raise ValueError("non-compact affine roots have no coroot")
    f = r.root.functional()
    norm = inner(f, f)
    zc = -2 * (Fraction(r.mode, spec.twist_order) + inner(spec.slant, f)) / norm
    return ExtCartanVector(zc, coroot(r.root), 0)
