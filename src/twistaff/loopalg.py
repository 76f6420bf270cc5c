"""Fourier-polynomial loop algebra over a matrix model, with its double extension.

Elements carry finitely many modes, each an integer ``cyclo.ModeMatrix``.
The bracket realizes the two-step extension: a central cocycle term pairing
opposite modes through the invariant trace form and the diagonal derivation,
a loop term, and a derivation coordinate that acts but never grows.
``bracket_sum`` sums brackets over pairs with one product-kernel call per
output mode; ``bracket`` is one pair.  Sums, scalings, the derivation, the
pairing, validation and the untwisting relabel run in integers; the
coordinates z and t are ``Cyc`` scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffinisationSpec
from .cyclo import Cyc, ModeMatrix, cyc_product, mat_product_sum
from .models import StandardModel, standard_model
from .rootdata import Functional


def _model_of(spec: AffinisationSpec) -> StandardModel:
    return standard_model(spec.lars, spec.base.rank)


@dataclass(frozen=True)
class LoopElement:
    """Finitely many Fourier modes, each a square ModeMatrix."""

    terms: tuple  # (mode, ModeMatrix) pairs in mode order, zero matrices pruned

    def __post_init__(self):
        terms = ((int(n), m) for n, m in self.terms if m)
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: t[0])))

    def modes(self) -> tuple:
        return tuple(n for n, _ in self.terms)

    def __add__(self, other: "LoopElement") -> "LoopElement":
        out = dict(self.terms)
        for n, m in other.terms:
            out[n] = out[n] + m if n in out else m
        return LoopElement(tuple(out.items()))

    def __neg__(self) -> "LoopElement":
        return LoopElement(tuple((n, -m) for n, m in self.terms))

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c: Cyc) -> "LoopElement":
        return LoopElement(tuple((n, m.scale(c)) for n, m in self.terms))


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
    def from_loop(L: int, mode: int, m: ModeMatrix) -> "DoubleExtElement":
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


def validate_element(spec: AffinisationSpec, a: DoubleExtElement) -> None:
    """Check the mode-eigenspace invariant against the spec's standard twist."""
    model = _model_of(spec)
    for n, m in a.loop.terms:
        if len(m.rows) != model.dim:
            raise ValueError(f"matrix dimension {len(m.rows)} does not match the model ({model.dim})")
        if not model.in_mode(m, n):
            raise ValueError(f"mode {n} matrix is not in the twist eigenspace")


def loop_pairing(spec: AffinisationSpec, x: LoopElement, y: LoopElement, L: int) -> Cyc:
    """Invariant bilinear form at conductor L: opposite modes pair through the trace form."""
    model, ydict = _model_of(spec), dict(y.terms)
    return sum((model.bilinear_form(m, ydict[-n]) for n, m in x.terms if -n in ydict), Cyc.zero(L))


def _derivation(spec: AffinisationSpec, nu: Functional, L: int, scale: Cyc | None = None):
    """The map (n, m) -> scale * D(m) of the nu-diagonal derivation D on mode n.

    D multiplies the entry (r, c) of a mode-n matrix by i (n/N + w_r - w_c),
    where w are the slant values of the basis vectors.  With the integer
    numerators W = nu.den * w that factor is i k / Q for Q = N nu.den and the
    integer k = n nu.den + N W_r - N W_c, so each entry is multiplied in
    integers by k times i (times ``scale``), and the denominator by Q.
    """
    model, N = _model_of(spec), spec.twist_order
    Q = N * nu.den
    padded = (0, *nu.num, *(0,) * model.dim)  # padded[j] = nu.den * nu_j for j >= 1
    w = [N * padded[x] if x >= 0 else -N * padded[-x] for x in model.weights]
    unit = Cyc.i(L) if scale is None else Cyc.i(L) * scale
    factors: dict[int, tuple] = {}  # k -> the integers of k * unit

    def derive(n: int, m: ModeMatrix) -> ModeMatrix:
        shift = n * nu.den
        rows = [{} for _ in m.rows]
        for wr, row, out in zip(w, m.rows, rows):
            for c, num in row.items():
                k = shift + wr - w[c]
                if k:
                    f = factors.get(k) or factors.setdefault(k, tuple(k * x for x in unit.num))
                    out[c] = cyc_product(L, num, f)
        return ModeMatrix(L, m.ncols, m.den * Q * unit.den, rows)

    return derive


def apply_derivation(spec: AffinisationSpec, nu: Functional, a: DoubleExtElement) -> DoubleExtElement:
    """The diagonal derivation: i(n/N + nu(weight sharp)) on each weight component."""
    L = a.z.L
    derive = _derivation(spec, nu, L)
    loop = LoopElement(tuple((n, derive(n, m)) for n, m in a.loop.terms))
    return DoubleExtElement(Cyc.zero(L), loop, Cyc.zero(L))


def bracket_sum(spec: AffinisationSpec, pairs) -> DoubleExtElement:
    """Exact sum of the brackets [a, b] of the double extension over a sequence of pairs (a, b).

    [a, b] = (kappa(D a, b), sum of [a_n, b_m] at mode n + m + a.t D b - b.t D a, 0)
    for the slant derivation D.  One ``mat_product_sum`` call per output mode
    takes the commutators of every pair: its one integer accumulator holds
    each product over the lcm of all their denominators, so its canonical
    result equals the sum of the pairs' own commutator sums.
    """
    L = pairs[0][0].z.L
    if any(x.z.L != L for pair in pairs for x in pair):
        raise ValueError("conductor mismatch between elements")
    derive = _derivation(spec, spec.slant, L)
    z, by_mode = Cyc.zero(L), {}
    for a, b in pairs:
        # the cocycle pairs D(a_n) with b_-n, so D(a) is needed on those modes only
        paired = set(b.loop.modes())
        da = LoopElement(tuple((n, derive(n, m)) for n, m in a.loop.terms if -n in paired))
        z = z + loop_pairing(spec, da, b.loop, L)
        for n, x in a.loop.terms:
            for n2, y in b.loop.terms:
                by_mode.setdefault(n + n2, []).extend(((1, x, y), (-1, y, x)))
    lp = LoopElement(tuple((k, mat_product_sum(prods)) for k, prods in by_mode.items()))
    for a, b in pairs:
        for scale, x in ((a.t, b), (-b.t, a)):  # a.t D b - b.t D a
            if scale:
                derive_x = _derivation(spec, spec.slant, L, scale)
                lp = lp + LoopElement(tuple((n, derive_x(n, m)) for n, m in x.loop.terms))
    return DoubleExtElement(z, lp, Cyc.zero(L))


def bracket(spec: AffinisationSpec, a: DoubleExtElement, b: DoubleExtElement) -> DoubleExtElement:
    """Exact Lie bracket [a, b] of the double extension (``bracket_sum`` of one pair)."""
    return bracket_sum(spec, ((a, b),))


def kappa_form(spec: AffinisationSpec, a: DoubleExtElement, b: DoubleExtElement) -> Cyc:
    """The invariant symmetric form of the quadratic Lie algebra."""
    return loop_pairing(spec, a.loop, b.loop, a.z.L) + a.z * b.t + b.z * a.t


def phi_hat(cert, spec_src: AffinisationSpec, spec_dst: AffinisationSpec, a: DoubleExtElement) -> DoubleExtElement:
    """The untwisting isomorphism: relabel each weight component's mode.

    A weight-a component at source mode n moves to the certificate's
    ``image_mode(a, n)``, which is an integer exactly when the certificate is
    valid.  Central and derivation coordinates are fixed.
    """
    model = _model_of(spec_dst)
    out: dict[int, ModeMatrix] = {}
    for n, m in a.loop.terms:
        for w, part in model.weight_components(m):
            target = cert.image_mode(w, n)
            if target.denominator != 1:
                raise ValueError(
                    f"relabeled mode {target} is not an integer: invalid certificate or element"
                )
            k = int(target)
            out[k] = out[k] + part if k in out else part
    return DoubleExtElement(a.z, LoopElement(tuple(out.items())), a.t)
