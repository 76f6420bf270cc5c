"""Fourier-polynomial loop algebra over a matrix model, with its double extension.

Elements carry finitely many modes, each an integer ``cyclo.ModeMatrix``.
The bracket realizes the two-step extension: a central cocycle term pairing
opposite modes through the invariant trace form and the diagonal derivation,
a loop term, and a derivation coordinate that acts but never grows.
``bracket_sum`` sums brackets over pairs with one kernel call per output
mode: at conductor 4 (every bracket-check) this module's Gaussian-integer
sum, which also takes the derivation terms, and elsewhere
``cyclo.mat_product_sum``.  ``bracket`` is one pair.  The orthogonal and
symplectic models are fixed sets of P(x) = -Q x^T Q^-1 (the models'
``_paired_table``); P(x y) = -P(y) P(x), so y x = -e e' P(x y) for P(x) = e x
and P(y) = e' y, and a commutator takes one product on the sigma path:
conductor 4 and B1, C1, D1, B2 (e = 1) or standard C2, BC2 (e = (-1)^n on
mode n), where the model's ``check_fixed`` refuses an input off its sign.
``validate_element`` runs the model's ``check_mode``: every mode-n matrix is
fixed by the involution and in the standard twist's (-1)^n eigenspace.
Sums, scalings, the derivation, the pairing, validation and the untwisting
relabel run in integers; z and t are ``Cyc`` scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .affine import AffinisationSpec
from .cyclo import Cyc, ModeMatrix, conductor_degree, cyc_product, mat_product_sum
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
    """Check that every mode-n matrix has the model's size and lies in the model algebra's
    mode-n space: fixed by its involution, in the standard twist's (-1)^n eigenspace."""
    model = _model_of(spec)
    for n, m in a.loop.terms:
        if len(m.rows) != model.dim:
            raise ValueError(f"matrix dimension {len(m.rows)} does not match the model ({model.dim})")
        model.check_mode(m, n)


def loop_pairing(spec: AffinisationSpec, x: LoopElement, y: LoopElement, L: int) -> Cyc:
    """Invariant bilinear form at conductor L: opposite modes pair through the trace form."""
    model, ydict = _model_of(spec), dict(y.terms)
    return sum((model.bilinear_form(m, ydict[-n]) for n, m in x.terms if -n in ydict), Cyc.zero(L))


def _slant_weights(spec: AffinisationSpec, nu: Functional, L: int) -> tuple[Cyc, list[int]]:
    """(i / Q, w) of the nu-diagonal derivation D on the spec's model at conductor L.

    D multiplies the entry (r, c) of a mode-n matrix by i (n/N + w_r - w_c),
    where w are the slant values of the basis vectors.  With the integer
    numerators W = nu.den * w that factor is (i / Q) k for Q = N nu.den and the
    integer k = n nu.den + N W_r - N W_c; the list w holds the N W_r.
    """
    model, N = _model_of(spec), spec.twist_order
    padded = (0, *nu.num, *(0,) * model.dim)  # padded[j] = nu.den * nu_j for j >= 1
    w = [N * padded[x] if x >= 0 else -N * padded[-x] for x in model.weights]
    return Cyc(L, Cyc.i(L).num, N * nu.den), w


def _weighted(L: int, shift: int, w: list[int], m: ModeMatrix, c: Cyc) -> ModeMatrix:
    """c (shift + w_r - w_c) m_rc at each entry (r, c) of m, in integers.

    With c = i / Q and shift = n nu.den (``_slant_weights``) it is D(m) on mode n.
    """
    factors: dict[int, tuple] = {}  # k -> the integers of k * c
    rows = [{} for _ in m.rows]
    for wr, row, out in zip(w, m.rows, rows):
        u = shift + wr
        for col, num in row.items():
            k = u - w[col]
            if k:
                f = factors.get(k) or factors.setdefault(k, tuple(k * x for x in c.num))
                out[col] = cyc_product(L, num, f)
    return ModeMatrix(L, m.ncols, m.den * c.den, rows)


def _weighted_trace(L: int, shift: int, w: list[int], x: ModeMatrix, y: ModeMatrix) -> Cyc:
    """The sum over entries (r, c) of (shift + w_r - w_c) x_rc y_cr, in integers.

    With shift = n nu.den it is tr(D(x) y) / (i / Q) for x on mode n
    (``_slant_weights``), without building D(x).
    """
    acc, yrows = (0,) * conductor_degree(L), y.rows
    for r, (wr, row) in enumerate(zip(w, x.rows)):
        u = shift + wr
        for col, num in row.items():
            k = u - w[col]
            if k and r in yrows[col]:
                acc = tuple(s + k * t for s, t in zip(acc, cyc_product(L, num, yrows[col][r])))
    return Cyc(L, acc, x.den * y.den)


def _gaussian_sum(n: int, m: int, products, weighted=(), shift: int = 0, w=(), fold=None) -> ModeMatrix:
    """An n x m sum at conductor 4, where every entry is a Gaussian integer (re, im) over a denominator.

    It adds s A B for each product (s, A, B) with an integer s.  A fold
    (orbits, s) then turns that sum T into T + s P(T) in place, where P moves
    (a, b) to (i, j) times t and back for each (a, b, i, j, t) in
    ``StandardModel._paired_orbits``.  Then it adds, for each weighted term
    (s, c, X), s times ``_weighted``'s c (shift + w_r - w_c) X_rc at each entry
    (r, c) of X.  One accumulator of (re, im) integer pairs per entry holds
    every term over the lcm D of the terms' denominators, each
    entry product multiplied inline (Phi_4 = x^2 + 1, so nothing is left to
    reduce), and the sum is one canonical ``ModeMatrix``.  At phi = 2 the
    generic ``mat_product_sum`` takes about twice as long on the same products
    (1.8-2.0 times, on those of a seed-0 ``lie-brackets`` cycle, 2-core host).
    """
    den = lcm(*(a.den * b.den for _, a, b in products), *(c.den * x.den for _, c, x in weighted))
    re, im = [[0] * m for _ in range(n)], [[0] * m for _ in range(n)]
    for s, a, b in products:
        f, brows = s * (den // (a.den * b.den)), b.rows
        for arow, racc, iacc in zip(a.rows, re, im):
            for j, (a0, a1) in arow.items():
                if f != 1:
                    a0, a1 = f * a0, f * a1
                for k, (b0, b1) in brows[j].items():
                    racc[k] += a0 * b0 - a1 * b1
                    iacc[k] += a0 * b1 + a1 * b0
    if fold:
        orbits, s = fold
        for acc in (re, im):
            for a, b, i, j, t in orbits:
                x, y = acc[a][b], acc[i][j]
                acc[a][b], acc[i][j] = (x + y, x + y) if t == s else (x - y, y - x)
    for s, c, x in weighted:
        f = s * (den // (c.den * x.den))
        g0, g1 = f * c.num[0], f * c.num[1]
        for wr, xrow, racc, iacc in zip(w, x.rows, re, im):
            u = shift + wr
            for k, (x0, x1) in xrow.items():
                e = u - w[k]
                if e:
                    h0, h1 = e * g0, e * g1
                    racc[k] += h0 * x0 - h1 * x1
                    iacc[k] += h0 * x1 + h1 * x0
    rows = [{k: v for k, v in enumerate(zip(racc, iacc)) if v[0] or v[1]} for racc, iacc in zip(re, im)]
    return ModeMatrix(4, m, den, rows)


def apply_derivation(spec: AffinisationSpec, nu: Functional, a: DoubleExtElement) -> DoubleExtElement:
    """The diagonal derivation: i(n/N + nu(weight sharp)) on each weight component."""
    L = a.z.L
    iq, w = _slant_weights(spec, nu, L)
    loop = LoopElement(tuple((n, _weighted(L, n * nu.den, w, m, iq)) for n, m in a.loop.terms))
    return DoubleExtElement(Cyc.zero(L), loop, Cyc.zero(L))


def bracket_sum(spec: AffinisationSpec, pairs) -> DoubleExtElement:
    """Exact sum of the brackets [a, b] of the double extension over a sequence of pairs (a, b).

    [a, b] = (kappa(D a, b), sum of [a_n, b_m] at mode n + m + a.t D b - b.t D a, 0)
    for the slant derivation D.  Each output mode k collects every pair's signed
    commutator products (1, x, y), (-1, y, x) and derivation terms
    (1, a.t i / Q, b_n), (-1, b.t i / Q, a_n) (``_weighted``): at conductor 4
    one ``_gaussian_sum`` call takes them all; elsewhere one
    ``mat_product_sum`` call takes the products and the derivation matrices
    are added.  On the sigma path (module docstring) mode k collects only the
    products (1, x, y), whose sum T_k ``_gaussian_sum`` folds into
    T_k + s_k P(T_k) for s_k = e on mode k; an input x at mode n with
    P(x) != s_n x raises ValueError naming n.  The cocycle takes tr(D(a_n) b_-n)
    for each mode n of a that meets -n in b from the entries
    (``_weighted_trace``), never building D(a_n).  Every ``ModeMatrix`` and
    ``Cyc`` is canonical, so the result equals the sum of the pairs' own brackets.
    """
    L = pairs[0][0].z.L
    if any(x.z.L != L for pair in pairs for x in pair):
        raise ValueError("conductor mismatch between elements")
    nu, model = spec.slant, _model_of(spec)
    iq, w = _slant_weights(spec, nu, L)
    kind = model.kind  # the sigma path (module docstring): s_n = (-1)^n when odd, else 1
    sigma = L == 4 and bool(kind.involution or kind.twist in ("exchange", "symplectic") and spec.is_standard())
    odd = sigma and not kind.involution
    z, by_mode = Cyc.zero(L), {}  # output mode -> (signed products, signed derivation terms)
    for a, b in pairs:
        if sigma:
            for n, x in (*a.loop.terms, *b.loop.terms):
                model.check_fixed(model._paired_table, n, x, -1 if odd and n % 2 else 1)
        opposite = dict(b.loop.terms)
        for n, x in a.loop.terms:
            if -n in opposite:  # the cocycle pairs D(a_n) with b_-n: z collects tr(D(a_n) b_-n) / (i / Q)
                z = z + _weighted_trace(L, n * nu.den, w, x, opposite[-n])
            for n2, y in b.loop.terms:
                by_mode.setdefault(n + n2, ([], []))[0].extend(((1, x, y),) if sigma else ((1, x, y), (-1, y, x)))
        for s, t, x in ((1, a.t, b), (-1, b.t, a)):  # a.t D b - b.t D a
            if t:
                c = t * iq
                for n, m in x.loop.terms:
                    by_mode.setdefault(n, ([], []))[1].append((s, c, m))
    loop = []
    for k, (prods, terms) in by_mode.items():
        if L == 4:
            fold = (model._paired_orbits, -1 if odd and k % 2 else 1) if sigma else None
            loop.append((k, _gaussian_sum(len(w), len(w), prods, terms, k * nu.den, w, fold)))
        else:
            parts = [_weighted(L, k * nu.den, w, m, c if s == 1 else -c) for s, c, m in terms]
            total = mat_product_sum(prods) if prods else parts.pop()
            loop.append((k, sum(parts, total)))
    z = z * iq * Cyc.rational(L, -model.form_scale)  # B(x, y) = -scale tr(x y)
    return DoubleExtElement(z, LoopElement(tuple(loop)), Cyc.zero(L))


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
