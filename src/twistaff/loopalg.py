"""Fourier-polynomial loop algebra over a matrix model, with its double extension.

Elements carry finitely many modes, each a matrix over a cyclotomic field.
The bracket realizes the two-step extension: a central cocycle term pairing
opposite modes through the invariant trace form and the diagonal derivation,
a loop term, and a derivation coordinate that acts but never grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import AffinisationSpec
from .cyclo import (
    Cyc,
    IntMatrix,
    Matrix,
    mat_add,
    mat_eq,
    mat_is_zero,
    mat_product_sum,
    mat_scale,
)
from .models import StandardModel, standard_model
from .rootdata import Functional


def _model_of(spec: AffinisationSpec) -> StandardModel:
    return standard_model(spec.lars, spec.base.rank)


@dataclass(frozen=True)
class LoopElement:
    """Finitely many Fourier modes, each a square cyclotomic matrix."""

    terms: tuple  # sorted tuple of (mode, Matrix), zero matrices pruned

    def __post_init__(self):
        pruned = tuple(sorted((int(n), m) for n, m in self.terms if not mat_is_zero(m)))
        object.__setattr__(self, "terms", pruned)

    def modes(self) -> tuple:
        return tuple(n for n, _ in self.terms)

    def __add__(self, other: "LoopElement") -> "LoopElement":
        out = dict(self.terms)
        for n, m in other.terms:
            out[n] = mat_add(out[n], m) if n in out else m
        return LoopElement(tuple(out.items()))

    def __neg__(self) -> "LoopElement":
        return LoopElement(tuple((n, mat_scale(Cyc.rational(m[0][0].L, -1), m)) for n, m in self.terms))

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c: Cyc) -> "LoopElement":
        return LoopElement(tuple((n, mat_scale(c, m)) for n, m in self.terms))

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(
            na == nb and mat_eq(ma, mb) for (na, ma), (nb, mb) in zip(self.terms, other.terms)
        )


@dataclass(frozen=True)
class DoubleExtElement:
    """(central coordinate, loop part, derivation coordinate)."""

    z: Cyc
    loop: LoopElement
    t: Cyc

    @staticmethod
    def zero(L: int) -> "DoubleExtElement":
        return DoubleExtElement(Cyc.zero(L), LoopElement(()), Cyc.zero(L))

    @staticmethod
    def central(L: int) -> "DoubleExtElement":
        return DoubleExtElement(Cyc.one(L), LoopElement(()), Cyc.zero(L))

    @staticmethod
    def scaling(L: int) -> "DoubleExtElement":
        return DoubleExtElement(Cyc.zero(L), LoopElement(()), Cyc.one(L))

    @staticmethod
    def from_loop(L: int, mode: int, m: Matrix) -> "DoubleExtElement":
        return DoubleExtElement(Cyc.zero(L), LoopElement(((mode, m),)), Cyc.zero(L))

    def __add__(self, other: "DoubleExtElement") -> "DoubleExtElement":
        return DoubleExtElement(self.z + other.z, self.loop + other.loop, self.t + other.t)

    def __sub__(self, other: "DoubleExtElement") -> "DoubleExtElement":
        return DoubleExtElement(self.z - other.z, self.loop - other.loop, self.t - other.t)

    def __neg__(self) -> "DoubleExtElement":
        return DoubleExtElement(-self.z, -self.loop, -self.t)

    def scale(self, c: Cyc) -> "DoubleExtElement":
        return DoubleExtElement(c * self.z, self.loop.scale(c), c * self.t)

    def is_zero(self) -> bool:
        return self.z.is_zero() and self.t.is_zero() and not self.loop.terms

    def __eq__(self, other):
        if not isinstance(other, DoubleExtElement):
            return NotImplemented
        return self.z == other.z and self.t == other.t and self.loop == other.loop


def validate_element(spec: AffinisationSpec, a: DoubleExtElement, residues=None) -> None:
    """Check the mode-eigenspace invariant against the spec's standard twist.

    For pre-standardization elements, pass `residues(root) -> admissible residue
    tuple mod the twist order` from a certificate instead.
    """
    model = _model_of(spec)
    for n, m in a.loop.terms:
        if len(m) != model.dim:
            raise ValueError(f"matrix dimension {len(m)} does not match the model ({model.dim})")
        if residues is None:
            if not model.in_mode(m, n):
                raise ValueError(f"mode {n} matrix is not in the twist eigenspace")
        else:
            for root, comp in model.weight_components(m):
                allowed = residues(root)
                if n % spec.twist_order not in tuple(r % spec.twist_order for r in allowed):
                    raise ValueError(f"mode {n} has a weight component outside its residue class")


def loop_pairing(spec: AffinisationSpec, x: LoopElement, y: LoopElement, L: int = 0) -> Cyc:
    """Invariant bilinear form: opposite modes pair through the trace form."""
    model = _model_of(spec)
    if not L:
        L = _conductor_of(x, y)
    acc = Cyc.zero(L)
    ydict = dict(y.terms)
    for n, m in x.terms:
        if -n in ydict:
            acc = acc + model.bilinear_form(m, ydict[-n])
    return acc


def _conductor_of(*items) -> int:
    for it in items:
        if isinstance(it, LoopElement):
            for _, m in it.terms:
                return m[0][0].L
        if isinstance(it, DoubleExtElement):
            return it.z.L
    raise ValueError("cannot infer a conductor from zero loop elements")


def _derivation(spec: AffinisationSpec, nu: Functional, L: int, scale: Cyc | None = None):
    """The map (n, m) -> scale * D(m) of the nu-diagonal derivation D on mode n.

    D multiplies the entry (r, c) of a mode-n matrix by i (n/N + w_r - w_c),
    where w are the slant values of the basis vectors.  With the integer
    numerators W = nu.den * w that factor is i k / Q for Q = N nu.den and the
    integer k = n nu.den + N W_r - N W_c, and each distinct factor (times
    ``scale``) is built once.
    """
    model, N = _model_of(spec), spec.twist_order
    Q = N * nu.den
    padded = (0, *nu.num, *(0,) * model.dim)  # padded[j] = nu.den * nu_j for j >= 1
    w = [N * padded[x] if x >= 0 else -N * padded[-x] for x in model.weights]
    unit = Cyc.i(L) if scale is None else Cyc.i(L) * scale
    factors: dict[int, Cyc] = {}

    def derive(n: int, m: Matrix) -> Matrix:
        shift = n * nu.den
        rows = []
        for wr, row in zip(w, m):
            out = []
            for wc, v in zip(w, row):
                if any(v.num):
                    k = shift + wr - wc
                    f = factors.get(k)
                    if f is None:
                        f = factors[k] = unit * Cyc.rational(L, Fraction(k, Q))
                    v = v * f
                out.append(v)
            rows.append(tuple(out))
        return tuple(rows)

    return derive


def apply_derivation(spec: AffinisationSpec, nu: Functional, a: DoubleExtElement) -> DoubleExtElement:
    """The diagonal derivation: i(n/N + nu(weight sharp)) on each weight component."""
    L = a.z.L
    derive = _derivation(spec, nu, L)
    loop = LoopElement(tuple((n, derive(n, m)) for n, m in a.loop.terms))
    return DoubleExtElement(Cyc.zero(L), loop, Cyc.zero(L))


def bracket(spec: AffinisationSpec, a: DoubleExtElement, b: DoubleExtElement) -> DoubleExtElement:
    """Exact Lie bracket of the double extension.

    [a, b] = (kappa(D a, b), sum of [a_n, b_m] at mode n + m + a.t D b - b.t D a, 0)
    for the slant derivation D.
    """
    L = a.z.L
    if b.z.L != L:
        raise ValueError("conductor mismatch between elements")
    derive = _derivation(spec, spec.slant, L)
    # the cocycle pairs D(a_n) with b_-n, so D(a) is needed on those modes only
    paired = set(b.loop.modes())
    da = LoopElement(tuple((n, derive(n, m)) for n, m in a.loop.terms if -n in paired))
    z = loop_pairing(spec, da, b.loop, L)
    # every mode pair (n, n2) adds [a_n, b_n2] to mode n + n2; each output
    # mode sums all of its commutators in one integer product kernel call
    b_modes = [(n2, IntMatrix(m2)) for n2, m2 in b.loop.terms]
    by_mode: dict[int, list] = {}
    for n, m in a.loop.terms:
        x = IntMatrix(m)
        for n2, y in b_modes:
            by_mode.setdefault(n + n2, []).extend(((1, x, y), (-1, y, x)))
    lp = LoopElement(tuple((k, mat_product_sum(prods)) for k, prods in by_mode.items()))
    if a.t:
        derive_b = _derivation(spec, spec.slant, L, a.t)
        lp = lp + LoopElement(tuple((n, derive_b(n, m)) for n, m in b.loop.terms))
    if b.t:
        derive_a = _derivation(spec, spec.slant, L, -b.t)
        lp = lp + LoopElement(tuple((n, derive_a(n, m)) for n, m in a.loop.terms))
    return DoubleExtElement(z, lp, Cyc.zero(L))


def kappa_form(spec: AffinisationSpec, a: DoubleExtElement, b: DoubleExtElement) -> Cyc:
    """The invariant symmetric form of the quadratic Lie algebra."""
    return loop_pairing(spec, a.loop, b.loop, a.z.L) + a.z * b.t + b.z * a.t


def weight_decompose(spec: AffinisationSpec, x: Matrix):
    """Split a matrix into Cartan-weight components (sum reconstructs the input)."""
    return _model_of(spec).weight_components(x)


def phi_hat(cert, spec_src: AffinisationSpec, spec_dst: AffinisationSpec, a: DoubleExtElement) -> DoubleExtElement:
    """The untwisting isomorphism: relabel each weight component's mode.

    A weight-a component at source mode n moves to the certificate's
    ``image_mode(a, n)``, which is an integer exactly when the certificate is
    valid.  Central and derivation coordinates are fixed.
    """
    model = _model_of(spec_dst)
    out: dict[int, Matrix] = {}
    for n, m in a.loop.terms:
        for root, comp in model.weight_components(m):
            target = cert.image_mode(root, n)
            if target.denominator != 1:
                raise ValueError(
                    f"relabeled mode {target} is not an integer: invalid certificate or element"
                )
            k = int(target)
            out[k] = mat_add(out[k], comp) if k in out else comp
    return DoubleExtElement(a.z, LoopElement(tuple(out.items())), a.t)
