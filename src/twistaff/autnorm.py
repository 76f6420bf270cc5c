"""Normalization of finite-order automorphisms into standard form.

An automorphism of the skew-symmetric matrix algebra is conjugation by a
unitary (fields R, C, H) or antiunitary (field C) operator.  This module
lifts such an operator to finite order, splits it into exact eigenspaces,
computes the antiunitary block normal form, and assembles a certificate:
the standard twist it untwists to, the diagonal exponents, the slant, and
the basis change realizing everything, all in exact cyclotomic arithmetic.
``standardize`` validates the operator and takes its projective order once
(``_lift_with_orders``); the automorphism and operator orders follow from it.

The R, H and antiunitary families share one normal-form walk,
``_antilinear_blocks``: an antilinear J = u o conj (``_antilinear(u)``: the
identity's for R, the quaternionic structure for H, the operator itself for
the antiunitary form) pairs the eigenspaces of a finite-order linear map,
and each self-paired eigenspace splits by the sign of J^2 into conjugation
blocks or J-stable planes.  The eigenprojectors are spectral sums
(1/n) sum_j zeta^(-jk) a^j (``_spectral_part``).  The walk runs at one
conductor: a conjugation block that needs a positive rational's square root
outside the field raises ``_Enlarge`` (``_sqrt``), and ``_antilinear_blocks``
restarts the walk on its operator lifted to the enlarged conductor.

A certificate also carries the twisted grading it induces: for each root,
the residues m with a nonzero (a, m) root space and matching eigenvectors
(``mode_class_vectors``, ``mode_class``), and the graded Cartan pieces
(``cartan_mode_vectors``).  For every family phi~^-1(x) = psi~(U_1* x U_1),
and U_1 is diagonal with phases linear in the weight, so on a span of one
weight phi~^-1 is one root of unity zeta_L^s times psi~.  One routine,
``_grade``, grades the weight spaces, the Cartan and the phi side of the
centralizer check: it reads s off the basis entries and labels psi~'s +1
and -1 eigenvectors, split once per model span (``models.Span``), by residue.
Each piece is computed on first use and kept on the certificate, so the
sampler, the root map, the isomorphism check and the verification all read
one grading.  Linear algebra uses the ``cyclo`` kernel; the block
constructions orthogonalize through one local Hermitian projection,
``_orth_reduce``, and lay out their columns through ``_assemble_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import isqrt, lcm, prod

from .affine import KINDS, AffineRoot, AffinisationSpec, lars_contains, lars_finite_parts
from .cyclo import (
    MAX_CONDUCTOR,
    Cyc,
    Matrix,
    ModeMatrix,
    cyc_product,
    cyc_sqrt,
    mat_products_equal,
    split_square,
    working_conductor,
)
from .jsonio import cyc_to_json, int_from_json, mat_from_json, mat_to_json, str_from_json
from .models import Span, StandardModel, standard_model
from .rootdata import MAX_RANK, Functional, Root, RootSystem, inner

FIELDS = ("R", "C", "H")
#: the largest operator dimension a request may name: the largest model dimension at MAX_RANK
MAX_DIM = 2 * MAX_RANK + 2


class StandardizeError(ValueError):
    """Raised when an operator violates its declared structure."""


# -- vectors ------------------------------------------------------------------


def _hdot(u: tuple, v: tuple) -> Cyc:
    acc = Cyc.zero(u[0].L)
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b.conj()
    return acc


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, u):
    return tuple(c * a for a in u)


def _vec_is_zero(u):
    return all(a.is_zero() for a in u)


def _mat_apply(m: ModeMatrix, v: tuple) -> tuple:
    """m v for a vector v of Cyc."""
    L, zero = m.L, Cyc.zero(m.L)
    return tuple(
        sum((Cyc(L, cyc_product(L, num, v[j].num), m.den * v[j].den) for j, num in row.items() if v[j]), zero)
        for row in m.rows
    )


def _antilinear(u: ModeMatrix):
    """The antilinear map v -> u conj(v)."""
    return lambda v: _mat_apply(u, tuple(a.conj() for a in v))


def _orth_reduce(v: tuple, basis, norms) -> tuple:
    """v minus its Hermitian projections <v, b> / <b, b> b onto orthogonal vectors b."""
    for b, q in zip(basis, norms):
        c = _hdot(v, b)
        if c:
            v = _vec_sub(v, _vec_scale(c * q.inverse(), b))
    return v


def _gram_schmidt(vectors, sigma=None):
    """Exact orthogonalization without normalization; returns (basis, norms).

    With an antiunitary sigma that maps each kept w to a vector orthogonal to
    it, later vectors are also reduced against sigma(w): the kept vectors and
    their sigma-images are then mutually orthogonal (greedy sigma-stable planes).
    """
    basis, norms = [], []
    span, span_norms = [], []  # the kept vectors and their sigma-images
    for v in vectors:
        w = _orth_reduce(v, span, span_norms)
        if _vec_is_zero(w):
            continue
        q = _hdot(w, w)
        basis.append(w)
        norms.append(q)
        span.append(w)
        span_norms.append(q)
        if sigma is not None:
            span.append(sigma(w))
            span_norms.append(q)
    return basis, norms


# -- operator specs -------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """A finite-order operator presented as a cyclotomic matrix.

    For antiunitary operators the matrix is the linear part: the operator is
    v -> matrix * conj(v) in the standard coordinates.  Quaternionic inputs
    use the doubled complex model with the structure map (v, w) -> (-w~, v~).
    """

    field: str
    antiunitary: bool
    dim: int
    matrix: ModeMatrix
    declared_order: int

    def __post_init__(self):
        if self.field not in FIELDS:
            raise StandardizeError(f"unknown base field {self.field!r}")
        if self.antiunitary and self.field != "C":
            raise StandardizeError("antiunitary operators only occur over C")
        if self.declared_order < 1:
            raise StandardizeError("declared order must be positive")
        if self.dim < 1:
            raise StandardizeError(f"dimension must be at least 1, got {self.dim}")
        if self.field == "H" and self.dim % 2:
            raise StandardizeError("quaternionic model needs even complex dimension")
        if (len(self.matrix.rows), self.matrix.ncols) != (self.dim, self.dim):
            raise StandardizeError("matrix shape does not match dim")

    @property
    def conductor(self) -> int:
        return self.matrix.L

    def to_json(self):
        return {
            "field": self.field,
            "antiunitary": self.antiunitary,
            "dim": self.dim,
            "order": self.declared_order,
            "matrix": mat_to_json(self.matrix),
        }

    @staticmethod
    def from_json(obj) -> "OperatorSpec":
        antiunitary = obj.get("antiunitary", False)
        if type(antiunitary) is not bool:
            raise IOError(f"operator antiunitary: expected a boolean, got {antiunitary!r}")
        field = str_from_json(obj["field"], "operator field")
        dim = int_from_json(obj["dim"], "operator dim")
        if dim > MAX_DIM:
            raise IOError(f"operator dim {dim} is above MAX_DIM = {MAX_DIM}")
        matrix = mat_from_json(obj["matrix"])  # one conductor per request
        order = int_from_json(obj["order"], "operator order")
        return OperatorSpec(field, antiunitary, dim, matrix, order)


def family_of(spec: OperatorSpec) -> str:
    if spec.field == "R":
        return "R"
    if spec.field == "H":
        return "H"
    return "C_antiunitary" if spec.antiunitary else "C_unitary"


def quaternionic_structure(L: int, dim: int) -> ModeMatrix:
    """Linear part of the doubled-model structure map (v, w) -> (-conj w, conj v); dim is even."""
    r = dim // 2
    entries = {(j, r + j): -1 for j in range(r)} | {(r + j, j): 1 for j in range(r)}
    return ModeMatrix.from_entries(L, (dim, dim), entries)


def validate_operator(spec: OperatorSpec) -> None:
    """Exact unitarity and field-structure checks."""
    L = spec.conductor
    u = spec.matrix
    if u @ u.conj_transpose() != ModeMatrix.identity(L, spec.dim):
        raise StandardizeError("matrix is not unitary")
    if spec.field == "R":
        if u != u.conj():
            raise StandardizeError("field R requires a real matrix")
    if spec.field == "H":
        t = quaternionic_structure(L, spec.dim)
        # commuting with the antilinear structure map: U T = T conj(U)
        if not mat_products_equal(u, t, t, u.conj()):
            raise StandardizeError("matrix does not commute with the quaternionic structure")


# -- orders and the lift ---------------------------------------------------------


def projective_order(u: ModeMatrix, bound: int = 512) -> tuple[int, Cyc]:
    """Smallest k <= bound with u^k scalar, and the scalar."""
    acc = u
    for k in range(1, bound + 1):
        c = acc.rows[0].get(0)  # u^k is c times the identity when every row holds only c on the diagonal
        if c is not None and all(r.keys() == {i} and r[i] == c for i, r in enumerate(acc.rows)):
            return k, Cyc(acc.L, c, acc.den)
        acc = acc @ u
    raise StandardizeError(f"no finite projective order within the projective_order bound {bound}")


def matrix_order(u: ModeMatrix, bound: int = 512) -> int:
    k, s = projective_order(u, bound)
    # order of the scalar times k
    L = u.L
    acc = s
    for m in range(1, bound + 1):
        if acc == Cyc.one(L):
            return k * m
        acc = acc * s
    raise StandardizeError(
        f"scalar part is not a root of unity of order within the matrix_order bound {bound}"
    )


def _order_matrix(spec: OperatorSpec) -> ModeMatrix:
    """The linear map the automorphism's order is read from: u, or u conj(u) if antiunitary."""
    u = spec.matrix
    return u @ u.conj() if spec.antiunitary else u


def automorphism_order(spec: OperatorSpec) -> int:
    """Exact order of the conjugation automorphism defined by the operator."""
    k, _ = projective_order(_order_matrix(spec))
    return 2 * k if spec.antiunitary else k


def _root_of_unity_log(c: Cyc) -> int:
    """k with c = zeta_L^k, or raise."""
    L = c.L
    for k in range(L):
        if c == Cyc.zeta(L, k):
            return k
    raise StandardizeError("scalar is not a root of unity in the working field")


def finite_order_lift(spec: OperatorSpec) -> OperatorSpec:
    """Replace the operator by one of exact finite order inducing the same automorphism.

    Over C (unitary) the operator is rephased so its order equals the declared
    automorphism order; over R, H and in the antiunitary case the scalar
    obstruction is +-1 and the operator already has order dividing twice the
    declared order.
    """
    return _lift_with_orders(spec)[0]


def _lift_with_orders(spec: OperatorSpec) -> tuple[OperatorSpec, int, int]:
    """The finite-order lift, the automorphism order n and the lift's operator order m."""
    validate_operator(spec)
    return _lift_from_order(spec, *projective_order(_order_matrix(spec)))


def _lift_from_order(spec: OperatorSpec, k: int, lam0: Cyc) -> tuple[OperatorSpec, int, int]:
    """The lift and its orders from one projective order k with scalar lam0.

    u^k, or (u conj u)^k, is lam0.  n is k (2k if antiunitary) and must be the
    declared order; the rephased unitary has m = n, and otherwise lam0 = +-1
    and m = n or 2n.  That the lift's m-th power is 1 is checked where its
    eigenprojectors are built.
    """
    n = spec.declared_order
    true_order = 2 * k if spec.antiunitary else k
    if true_order != n:
        raise StandardizeError(
            f"declared order {n} but the automorphism has exact order {true_order}"
        )
    L = spec.conductor
    if family_of(spec) == "C_unitary":
        # solve nu^n = lam0^-1 among roots of unity, enlarging the conductor if needed
        j = _root_of_unity_log(lam0)
        sol = next((m for m in range(L) if (m * n) % L == (-j) % L), None)
        if sol is None:
            # an n-th root of any L-th root of unity lives at conductor lcm(4, n L)
            L2 = lcm(4, n * L)
            jj = j * (L2 // L)
            sol = next(m for m in range(L2) if (m * n) % L2 == (-jj) % L2)
            lifted = spec.matrix.lift(L2).scale(Cyc.zeta(L2, sol))
        else:
            lifted = spec.matrix.scale(Cyc.zeta(L, sol))
        return OperatorSpec(spec.field, False, spec.dim, lifted, n), n, n
    if lam0 == Cyc.one(L):
        return spec, n, n
    if lam0 == Cyc.rational(L, -1):
        return spec, n, 2 * n
    if spec.antiunitary:
        raise StandardizeError("antiunitary scalar obstruction must be +-1")
    # R and H: B^N central means B^N = +-1 exactly
    raise StandardizeError("scalar obstruction over R/H must be +-1")


def operator_order(spec: OperatorSpec) -> int:
    """Exact order of the operator itself (for antiunitary: as an antilinear map)."""
    m = matrix_order(_order_matrix(spec))
    return 2 * m if spec.antiunitary else m


# -- eigenspace machinery ---------------------------------------------------------


def _spectral_part(orbit, k: int) -> ModeMatrix:
    """(1/n) sum_j zeta^(-jk) x_j over the orbit x_j = T^j x_0 of a map T with T^n = 1:
    the component of x_0 on which T acts by zeta^k, zeta the primitive n-th root."""
    n = len(orbit)
    L = orbit[0].L
    if L % n != 0:
        raise StandardizeError(f"conductor {L} does not contain the {n}-th roots of unity")
    acc = orbit[0]
    for j in range(1, n):
        e = -j * k % n
        acc = acc + (orbit[j].scale(Cyc.zeta(L, e * (L // n))) if e else orbit[j])
    return acc.scale(Fraction(1, n))


def eigenprojectors(a: ModeMatrix, m: int) -> list[tuple[int, ModeMatrix]]:
    """Exact spectral projectors of a matrix with a^m = 1; list of (exponent, projector)."""
    powers = [ModeMatrix.identity(a.L, len(a.rows))]
    for _ in range(m):
        powers.append(powers[-1] @ a)
    if powers.pop() != powers[0]:
        raise StandardizeError("matrix does not have the stated finite order")
    projs = ((k, _spectral_part(powers, k)) for k in range(m))
    return [(k, p) for k, p in projs if p]


def eigensplit(spec: OperatorSpec) -> list[tuple[int, ModeMatrix]]:
    """Spectral projectors of a unitary finite-order operator spec."""
    if spec.antiunitary:
        raise StandardizeError("eigensplit applies to linear operators; see the normal form")
    return eigenprojectors(spec.matrix, matrix_order(spec.matrix))


# an odd prime p adjoins sqrt(p) only through 4p | L <= MAX_CONDUCTOR
_ENLARGEMENT_PRIMES = tuple(
    p for p in range(2, MAX_CONDUCTOR // 4 + 1) if all(p % d for d in range(2, isqrt(p) + 1))
)
_ENLARGEMENT = f"an enlargement up to MAX_CONDUCTOR = {MAX_CONDUCTOR} (only for positive rationals)"


class _Enlarge(Exception):
    """A positive rational's square root lies in Q(zeta_conductor), outside the working field."""

    def __init__(self, conductor: int):
        super().__init__(conductor)
        self.conductor = conductor


def _sqrt(q):
    """An exact square root of q in its own field, or None.

    A positive rational whose root lies outside the field raises
    ``_Enlarge(lcm(L, 4 prod p))`` instead, when its squarefree part has only
    primes in _ENLARGEMENT_PRIMES and that conductor is <= MAX_CONDUCTOR.
    """
    s = cyc_sqrt(q)
    if s is None and q.is_rational() and q.as_fraction() > 0:
        r = q.as_fraction()
        split = split_square(r.numerator * r.denominator, _ENLARGEMENT_PRIMES)
        if split is not None:
            conductor = lcm(q.L, 4 * prod(split[1]))  # Gauss sums put sqrt(p) in Q(zeta_4p)
            if conductor <= MAX_CONDUCTOR:
                raise _Enlarge(conductor)
    return s


def _conjugation_block_decomposition(u: ModeMatrix, proj: ModeMatrix):
    """Exact block structure of the antilinear involution theta: v -> u conj(v) on
    the range of a projector.

    Emits pairs (plus, minus = theta(plus)) that are orthogonal with equal
    norms, all blocks mutually orthogonal, plus at most one leftover
    theta-fixed vector.  A pair is valid exactly when plus is isotropic for the
    symmetric bilinear form B(v, w) = <v, theta w>; valid blocks keep later
    hermitian reductions B-orthogonal, so the search is a sequence of in-field
    square-root problems (``_sqrt``, which raises ``_Enlarge`` for a rational
    root outside the field).  Returns (blocks, fixed vector or None).
    """
    L = u.L
    theta = _antilinear(u)
    spanned: list = []  # plus and minus of each block so far, with their norms
    spanned_norms: list = []

    def add_block(plus, minus):
        spanned.extend((plus, minus))
        spanned_norms.extend((_hdot(plus, plus), _hdot(minus, minus)))

    def hreduce(v):
        return _orth_reduce(v, spanned, spanned_norms)

    def bform(v, w):
        return _hdot(v, theta(w))

    def try_isotropic(v, cv):
        """An isotropic vector in the theta-stable span of v, or None."""
        # mix v with theta(v): lambda^2 conj(cv) + 2 q lambda + cv = 0
        q = _hdot(v, v)
        disc = q * q - cv * cv.conj()
        s = None if disc.is_zero() else _sqrt(disc)
        if s is not None:
            tv = theta(v)
            cbar_inv = cv.conj().inverse()
            for sgn in (1, -1):
                lam = (Cyc.rational(L, sgn) * s - q) * cbar_inv
                w = tuple(a + lam * b for a, b in zip(v, tv))
                if not _vec_is_zero(w):
                    return w
        return None

    remaining = proj.columns()

    stuck: list = []
    progress = True
    while progress:
        progress = False
        next_round = []
        for v in remaining:
            v = hreduce(v)
            if _vec_is_zero(v):
                continue
            cv = bform(v, v)
            if cv.is_zero():
                add_block(v, theta(v))
                progress = True
                continue
            iso = try_isotropic(v, cv)
            if iso is not None:
                iso = hreduce(iso)
                if not _vec_is_zero(iso) and bform(iso, iso).is_zero():
                    add_block(iso, theta(iso))
                    progress = True
                    continue
            next_round.append(v)
        remaining = next_round

    # pair up anisotropic stragglers through two-dimensional B-planes
    work = [hreduce(v) for v in remaining]
    work = [v for v in work if not _vec_is_zero(v)]
    while len(work) > 1:
        v = work.pop(0)
        v = hreduce(v)
        if _vec_is_zero(v):
            continue
        cv = bform(v, v)
        if cv.is_zero():
            add_block(v, theta(v))
            continue
        placed = False
        for idx in range(len(work)):
            w = hreduce(work[idx])
            if _vec_is_zero(w):
                continue
            # B-orthogonalize w against v, then search the binary form diag(cv, cw)
            coeff = bform(v, w) * cv.inverse()
            w2h = _vec_sub(w, _vec_scale(coeff, v))
            cw = bform(w2h, w2h)
            if cw.is_zero():
                if not _vec_is_zero(w2h):
                    add_block(hreduce(w2h), theta(hreduce(w2h)))
                    work.pop(idx)
                    work.insert(0, v)
                    placed = True
                    break
                continue
            for target in (-cw * cv.inverse(), cw * cv.inverse()):
                s = _sqrt(target)
                if s is None:
                    continue
                mix = s if (cv * s * s + cw).is_zero() else s * Cyc.i(L)
                cand = tuple(a * mix + b for a, b in zip(v, w2h))
                cand = hreduce(cand)
                if _vec_is_zero(cand) or not bform(cand, cand).is_zero():
                    continue
                add_block(cand, theta(cand))
                work.pop(idx)
                # the B-complement of the block inside span{v, w} resurfaces next round
                leftover = hreduce(tuple(a * mix - b for a, b in zip(v, w2h)))
                if not _vec_is_zero(leftover):
                    work.insert(0, leftover)
                placed = True
                break
            if placed:
                break
        if not placed:
            stuck.append(v)

    work += stuck
    # last stage: split leftovers into theta-fixed vectors and pair those
    pool: list = []
    pool_norms: list = []
    ii = Cyc.i(L)
    for v in work:
        v = _orth_reduce(hreduce(v), pool, pool_norms)
        if _vec_is_zero(v):
            continue
        tv = theta(v)
        for cand in (
            tuple(a + b for a, b in zip(v, tv)),
            tuple(ii * (a - b) for a, b in zip(v, tv)),
        ):
            cand = _orth_reduce(hreduce(cand), pool, pool_norms)
            if _vec_is_zero(cand):
                continue
            if not _vec_is_zero(_vec_sub(theta(cand), cand)):
                raise StandardizeError("fixed-vector construction failed")
            pool.append(cand)
            pool_norms.append(_hdot(cand, cand))

    while len(pool) > 1:
        for i, j in combinations(range(len(pool)), 2):
            paired = _pair_conjugation_fixed(pool[i], pool_norms[i], pool[j], pool_norms[j])
            if paired is not None:
                break
        else:
            raise StandardizeError(
                "cannot complete the block normal form exactly: no reachable isotropic vectors "
                f"or fixed-vector pairings in the working cyclotomic field or {_ENLARGEMENT}"
            )
        for k in (j, i):  # the later index first
            pool.pop(k)
            pool_norms.pop(k)
        add_block(*paired)
    blocks = list(zip(spanned[::2], spanned[1::2]))
    return blocks, pool[0] if pool else None


def _pair_conjugation_fixed(g1, q1, g2, q2):
    """From two orthogonal vectors fixed by an antilinear involution, build a block pair.

    Returns (plus, minus): plus = g1' + i g2' and minus = g1' - i g2' for a
    remix g1', g2' of equal norm, so the involution swaps plus and minus and
    the two are orthogonal.  The remix is (g1, sqrt(q1 / q2) g2) or, failing
    that, (q2 g1, sqrt(q1 q2) g2); None when neither root is in the field.
    """
    scale = _sqrt(q1 * q2.inverse())
    if scale is None:
        scale = _sqrt(q1 * q2)
        if scale is None:
            return None
        g1 = _vec_scale(q2, g1)
    g2 = _vec_scale(Cyc.i(q1.L) * scale, g2)
    return tuple(a + b for a, b in zip(g1, g2)), tuple(a - b for a, b in zip(g1, g2))


def _antilinear_blocks(a: ModeMatrix, m: int, u: ModeMatrix, minus_scale):
    """Orthogonal column pairs (plus, minus) for J = u o conj commuting with a, a^m = 1.

    J maps the zeta^k-eigenspace of a onto the zeta^-k one.  A paired eigenspace
    (0 < 2k < m) gets an orthogonal basis with minus = c J(plus), c =
    minus_scale(k, L).  On a self-paired one (k = 0 or 2k = m) J^2 = +-1, read
    off one vector: J^2 = 1 gives conjugation blocks (minus = J(plus)) and at most
    one J-fixed vector, J^2 = -1 gives J-stable planes (minus = c J(plus)).  The
    walk takes k = 0 and m/2 first, at the one conductor L of a and u; when a
    conjugation block decomposition needs a rational square root outside
    Q(zeta_L) (``_Enlarge``), the walk restarts on a and u lifted to the
    enlarged conductor.  Returns (plus, minus, exponents, norms, fixed, L),
    fixed mapping exponents to their J-fixed vectors.
    """
    L = a.L
    J = _antilinear(u)
    projs = dict(eigenprojectors(a, m))
    plus, minus, exps, norms, fixed = [], [], [], [], {}
    try:
        for k in sorted(projs, key=lambda k: (0 < 2 * k < m, k)):
            if 2 * k > m:
                continue  # the mirror of exponent m - k
            cols = projs[k].columns()
            sign = 0  # J^2 on a self-paired eigenspace, read off one nonzero column
            if 2 * k in (0, m):
                v = next(c for c in cols if not _vec_is_zero(c))
                sign = 1 if J(J(v)) == v else -1
            if sign == 1:
                blocks, fixed_vec = _conjugation_block_decomposition(u, projs[k])
                if fixed_vec is not None:
                    fixed[k] = fixed_vec
                basis, images = [b[0] for b in blocks], [b[1] for b in blocks]
                qs = [_hdot(w, w) for w in basis]
            else:
                basis, qs = _gram_schmidt(cols, J if sign else None)
                c = minus_scale(k, L)
                images = [_vec_scale(c, J(w)) for w in basis]
            plus += basis
            minus += images
            exps += [k] * len(basis)
            norms += qs
    except _Enlarge as enlarged:
        big = enlarged.conductor
        return _antilinear_blocks(a.lift(big), m, u.lift(big), minus_scale)
    return plus, minus, exps, norms, fixed, L


def _assemble_columns(plus, minus, exponents, norms, middle, middle_norms, d):
    """Sort the pairs by exponent and lay out the plus, middle and minus columns.

    minus is empty when the layout has no mirrored block.  Returns the sorting
    permutation, the basis change with those columns and the column norms.
    """
    order = sorted(range(len(exponents)), key=lambda i: (exponents[i], i))
    cols = [plus[i] for i in order] + list(middle)
    col_norms = [norms[i] for i in order] + list(middle_norms)
    if minus:
        cols += [minus[i] for i in order]
        col_norms += [norms[i] for i in order]
    if len(cols) != d:
        raise StandardizeError(f"the block construction gave {len(cols)} columns in dimension {d}")
    basis_change = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    return order, basis_change, tuple(col_norms)


# -- the antiunitary normal form ----------------------------------------------------


@dataclass(frozen=True)
class AntiunitaryBlockForm:
    """Normal form of an antiunitary operator with A^(2N) = 1.

    Each block is (exponent n, plus column index, minus column index): the
    operator maps the plus vector to zeta^-n times the minus vector and the
    minus vector to zeta^n times the plus vector, zeta the primitive 2N-th
    root.  At most one fixed vector appears.  Columns of basis_change are
    pairwise orthogonal; squared norms are recorded, not normalized away.
    """

    half_order: int  # N, with A^(2N) = 1
    blocks: tuple  # ((n, plus_col, minus_col), ...)
    fixed_col: int | None
    basis_change: Matrix
    col_norms: tuple
    conductor: int

    def block_matrix(self) -> ModeMatrix:
        """Std with A(V w) = V Std conj(w): the block phases, and 1 at the fixed column."""
        L = self.conductor
        d = len(self.basis_change)
        zeta = L // (2 * self.half_order)
        std = {}
        for n, pc, mc in self.blocks:
            std[mc, pc] = Cyc.zeta(L, (-n * zeta) % L)
            std[pc, mc] = Cyc.zeta(L, (n * zeta) % L)
        if self.fixed_col is not None:
            std[self.fixed_col, self.fixed_col] = Cyc.one(L)
        return ModeMatrix.from_entries(L, (d, d), std)


def _antiunitary_blocks(spec: OperatorSpec, m_op: int):
    """The block walk of an antiunitary operator A = u o conj of order m_op: J = A pairs
    the eigenspaces of A^2 = u conj(u), whose order is N = m_op / 2.

    Returns the ``_antilinear_blocks`` output with the J-fixed vector of
    exponent 0 (or None) in place of the fixed map.
    """
    half = m_op // 2
    L = lcm(working_conductor(m_op, sqrt2=True), spec.conductor)
    u = spec.matrix.lift(L)

    def minus_scale(n, L):
        # i on the J^2 = -1 eigenspace, zeta^n, zeta the primitive 2N-th root, on a pair
        return Cyc.i(L) if 2 * n == half else Cyc.zeta(L, n * (L // (2 * half)) % L)

    plus, minus, exps, norms, fixed, L = _antilinear_blocks(u @ u.conj(), half, u, minus_scale)
    return plus, minus, exps, norms, fixed.get(0), L


def antiunitary_normal_form(spec: OperatorSpec) -> AntiunitaryBlockForm:
    """Exact block normal form of a finite-order antiunitary operator.

    The operator is validated and its declared order checked once
    (``_lift_with_orders``), as in ``standardize``.  The form is checked by its
    round trip: u conj(V) = V Std for the block matrix Std, and V has orthogonal
    columns with the recorded norms.
    """
    if not spec.antiunitary:
        raise StandardizeError("operator is not antiunitary")
    _, _, m_op = _lift_with_orders(spec)
    plus_cols, minus_cols, exponents, norms_plus, fixed, L = _antiunitary_blocks(spec, m_op)
    middle = [fixed] if fixed is not None else []
    order, basis_change, col_norms = _assemble_columns(
        plus_cols, minus_cols, exponents, norms_plus, middle, [_hdot(v, v) for v in middle], spec.dim
    )
    r = len(order)
    blocks = tuple((exponents[i], pos, r + len(middle) + pos) for pos, i in enumerate(order))
    form = AntiunitaryBlockForm(
        half_order=m_op // 2,
        blocks=blocks,
        fixed_col=r if middle else None,
        basis_change=basis_change,
        col_norms=col_norms,
        conductor=L,
    )
    v = ModeMatrix.from_rows(L, basis_change)
    if not mat_products_equal(spec.matrix.lift(L), v.conj(), v, form.block_matrix()):
        raise StandardizeError("block reconstruction mismatch: u conj(V) != V Std")
    _check_columns(v, col_norms)
    return form


# -- the standardization certificate -----------------------------------------------


@dataclass(frozen=True)
class StandardizationCertificate:
    """Everything needed to untwist an operator's conjugation to a standard twist.

    Exponents are stored in units of the primitive exp_denominator-th root of
    unity: the one-parameter group acts on the j-th plus column by that root
    raised to exponents[j] * t, and mu[j] = -exponents[j] / exp_denominator.
    Columns of basis_change (the model basis in input coordinates, as rows of
    Cyc) are exactly orthogonal with recorded squared norms; each plus/minus
    pair shares its norm.  The checks read it once as ``basis_change_matrix``.
    The twisted grading derived from it is computed lazily, once per root,
    into ``grading`` (see ``mode_class_vectors``); ``dataclasses.replace``
    starts a fresh one.
    """

    family: str
    lars: str
    rank: int
    exponents: tuple
    mu: Functional
    basis_change: Matrix
    col_norms: tuple
    index_partition: tuple  # descriptive (name, count-or-flag) pairs
    orders: tuple  # (automorphism order, standard twist order)
    operator_order: int
    exp_denominator: int
    conductor: int
    negated: bool = False

    @property
    def model(self) -> StandardModel:
        return standard_model(self.lars, self.rank)

    @property
    def psi_kind(self) -> str:
        return KINDS[self.lars].psi_kind

    @cached_property
    def basis_change_matrix(self) -> ModeMatrix:
        return ModeMatrix.from_rows(self.conductor, self.basis_change)

    @cached_property
    def grading(self) -> dict:
        """Root (None for the Cartan) -> its (residue, eigenvector matrix) pairs, filled lazily."""
        return {}

    @property
    def base(self) -> RootSystem:
        return self.model.base

    def source_spec(self, nu: Functional | None = None) -> AffinisationSpec:
        return AffinisationSpec(
            base=self.base,
            lars=self.lars,
            twist_order=self.orders[0],
            slant_mu=Functional(()),
            slant_nu=nu if nu is not None else Functional(()),
        )

    def target_spec(self, nu: Functional | None = None) -> AffinisationSpec:
        return AffinisationSpec(
            base=self.base,
            lars=self.lars,
            twist_order=self.orders[1],
            slant_mu=self.mu,
            slant_nu=nu if nu is not None else Functional(()),
        )

    def _u_phases(self, L: int, t: Fraction = Fraction(1)) -> list:
        """k_a mod L with U_t = diag(zeta_L^k_a) in model coordinates."""
        step = Fraction(t * L, self.exp_denominator)
        if step.denominator != 1:
            raise StandardizeError(f"conductor {L} is too small for the time t = {t}")
        exps = self.exponents
        signed = (exps[w - 1] if w > 0 else -exps[-w - 1] if w else 0 for w in self.model.weights)
        return [e * int(step) % L for e in signed]

    def u_matrix(self, L: int, t: Fraction = Fraction(1)) -> ModeMatrix:
        """U_t of the one-parameter group, in model coordinates (U_1 by default)."""
        return ModeMatrix.diagonal(L, [Cyc.zeta(L, k) for k in self._u_phases(L, t)])

    def image_mode(self, a: Root | None, n: int) -> Fraction:
        """Target mode N_psi (n / N_phi - mu(a)) of source mode n at root a (None: the Cartan)."""
        n_phi, n_psi = self.orders
        shift = inner(self.mu, a) if a is not None else 0
        return n_psi * (Fraction(n, n_phi) - shift)

    def standard_linear_matrix(self, L: int) -> ModeMatrix:
        """Linear part of the standardized operator (U_1 times the twist) in model coords."""
        return self.u_matrix(L) @ self.model.twist_matrix(L)

    def to_json(self):
        return {
            "schema": "v1",
            "family": self.family,
            "psi_kind": self.psi_kind,
            "lars": self.lars,
            "rank": self.rank,
            "exponents": list(self.exponents),
            "mu": self.mu.to_json(),
            "basis_change_columns": [[cyc_to_json(c) for c in col] for col in zip(*self.basis_change)],
            "col_norms": [cyc_to_json(c) for c in self.col_norms],
            "index_partition": [list(p) for p in self.index_partition],
            "orders": list(self.orders),
            "operator_order": self.operator_order,
            "exp_denominator": self.exp_denominator,
            "conductor": self.conductor,
            "negated": self.negated,
        }


def _collect_certificate(
    spec, family, lars, plus_cols, minus_cols, zero_cols, exponents, norms, L, exp_denominator, orders,
    partition, negated=False,
):
    """The certificate of the lifted operator spec from its block columns; orders is
    (automorphism order, operator order)."""
    rank = len(plus_cols)
    if rank < 2:
        raise StandardizeError(f"truncation too small: standardized rank {rank} < 2")
    order, basis_change, col_norms = _assemble_columns(
        plus_cols, minus_cols, exponents, norms, zero_cols, [_hdot(v, v) for v in zero_cols], spec.dim
    )
    exps = tuple(exponents[i] for i in order)
    mu = Functional({j + 1: Fraction(-exps[j], exp_denominator) for j in range(rank)})
    cert = StandardizationCertificate(
        family=family,
        lars=lars,
        rank=rank,
        exponents=exps,
        mu=mu,
        basis_change=basis_change,
        col_norms=col_norms,
        index_partition=tuple(partition),
        orders=(orders[0], KINDS[lars].twist_order),
        operator_order=orders[1],
        exp_denominator=exp_denominator,
        conductor=L,
        negated=negated,
    )
    _check_reconstruction(cert, spec.matrix.lift(L))
    _check_columns(cert.basis_change_matrix, col_norms)
    return cert


def _check_reconstruction(cert: StandardizationCertificate, u: ModeMatrix) -> None:
    """u, the finite-order operator at the certificate's conductor, is the standard form
    transported by the basis change."""
    v = cert.basis_change_matrix
    right = v.conj() if cert.family == "C_antiunitary" else v
    if not mat_products_equal(u, right, v, cert.standard_linear_matrix(cert.conductor)):
        raise StandardizeError("reconstruction failed: operator != basis_change * standard form")


def _check_columns(v: ModeMatrix, col_norms: tuple) -> None:
    """The basis change v has orthogonal columns with the recorded positive real squared norms."""
    if v.conj_transpose() @ v != ModeMatrix.diagonal(v.L, col_norms):
        raise StandardizeError("basis columns are not orthogonal with recorded norms")
    if not all(q.is_real() and q for q in col_norms):
        raise StandardizeError("column norm is not a positive real")


def standardize(spec: OperatorSpec) -> StandardizationCertificate:
    """Produce the standardization certificate for a finite-order operator."""
    lifted, n, m = _lift_with_orders(spec)
    fam = family_of(spec)
    if fam == "C_unitary":
        return _standardize_c_unitary(lifted, n)
    if fam == "H":
        return _standardize_h(lifted, n, m)
    if fam == "R":
        return _standardize_r(lifted, n, m)
    return _standardize_antiunitary(lifted, n, m)


def _working_form(spec: OperatorSpec, m: int):
    """(L, a): a conductor L holding the 2m-th roots of unity and the input's entries,
    and the operator, of order m, lifted to L."""
    L = lcm(working_conductor(2 * m), spec.conductor)
    return L, spec.matrix.lift(L)


def _standardize_c_unitary(spec: OperatorSpec, n: int) -> StandardizationCertificate:
    L, a = _working_form(spec, n)
    plus, exps, norms = [], [], []
    for k, p in eigenprojectors(a, n):
        basis, qs = _gram_schmidt(p.columns())
        plus += basis
        exps += [k] * len(basis)
        norms += qs
    return _collect_certificate(
        spec, "C_unitary", "A1", plus, [], [], exps, norms, L, n, (n, n),
        partition=(("eigenvectors", len(plus)),),
    )


def _unit_scale(k: int, L: int) -> Cyc:
    return Cyc.one(L)


def _standardize_h(spec: OperatorSpec, n: int, m: int) -> StandardizationCertificate:
    L, a = _working_form(spec, m)
    t = quaternionic_structure(L, spec.dim)
    plus, minus, exps, norms, _, L = _antilinear_blocks(a, m, t, _unit_scale)
    return _collect_certificate(
        spec, "H", "C1", plus, minus, [], exps, norms, L, m, (n, m),
        partition=(("quaternionic_pairs", len(plus)),),
    )


def _standardize_r(spec: OperatorSpec, n: int, m: int, negated=False) -> StandardizationCertificate:
    L, a = _working_form(spec, m)
    plus, minus, exps, norms, fixed, L = _antilinear_blocks(a, m, ModeMatrix.identity(L, spec.dim), _unit_scale)
    s_plus = fixed.get(0)
    s_minus = fixed.get(m // 2) if m % 2 == 0 else None
    if s_plus is None and s_minus is not None:
        if negated:
            raise StandardizeError("sign normalization did not converge")
        neg = -spec.matrix
        # (-u)^n = (-1)^n u^n: an odd n flips the scalar +-1 and with it the order
        m_neg = m if n % 2 == 0 else (2 * n if m == n else n)
        neg_spec = OperatorSpec(spec.field, False, spec.dim, neg, spec.declared_order)
        return _standardize_r(neg_spec, n, m_neg, negated=True)

    zero_cols = [v for v in (s_plus, s_minus) if v is not None]
    partition = [("rotation_pairs", len(plus))]
    if s_plus is not None and s_minus is not None:
        lars = "B2"
        partition += [("fixed_plus", 1), ("fixed_minus", 1)]
    elif s_plus is not None:
        lars = "B1"
        partition += [("fixed_plus", 1)]
    else:
        lars = "D1"
    return _collect_certificate(
        spec, "R", lars, plus, minus, zero_cols, exps, norms, L, m, (n, m),
        partition=partition, negated=negated,
    )


def _standardize_antiunitary(spec: OperatorSpec, n: int, m: int) -> StandardizationCertificate:
    plus, minus, exps, norms, fixed, L = _antiunitary_blocks(spec, m)
    if fixed is None:
        # quaternionic standard twist: rotate the minus columns and shift the exponents
        ii = Cyc.i(L)
        minus = [_vec_scale(ii, w) for w in minus]
        exps = [2 * k + m // 2 for k in exps]
        zero_cols, lars, partition = [], "C2", [("blocks", len(plus))]
    else:
        # conjugation-type standard twist: the blocks transfer as they are
        exps = [2 * k for k in exps]
        zero_cols, lars, partition = [fixed], "BC2", [("blocks", len(plus)), ("fixed", 1)]
    return _collect_certificate(
        spec, "C_antiunitary", lars, plus, minus, zero_cols, exps, norms, L, 2 * m, (n, m),
        partition=partition,
    )


# -- the twisted grading and certificate verification ---------------------------------


def _grade(cert: StandardizationCertificate, basis: Span) -> list:
    """(m, eigenvector) pairs of phi~^-1, eigenvalue zeta^m (zeta of the automorphism
    order), on a model span of one weight, by ascending residue.

    phi~^-1(x) = psi~(U_1* x U_1) for every family (the linear standard forms are
    U_1 T with T* y T = psi~(y)), and U_1 = diag(zeta_L^k_i) rephases entry (i, j)
    by zeta_L^(k_j - k_i).  k is linear in the weight, so on a span of one weight
    phi~^-1 = zeta_L^s psi~ for the one phase s read off the basis entries, and
    its eigenvectors are psi~'s (``basis.split``): the +1 ones at the residue m
    with m L / n_phi = s mod L, the -1 ones at s + L/2; other residues get none.
    """
    n_phi, L = cert.orders[0], cert.conductor
    if L % n_phi != 0:
        raise StandardizeError("conductor does not contain the automorphism's roots of unity")
    k = cert._u_phases(L)
    phases = {(k[j] - k[i]) % L for i, j in basis.support}
    if len(phases) != 1:
        raise StandardizeError("automorphism is not one phase times psi~ on the span")
    (s,) = phases
    step = L // n_phi
    plus, minus = basis.split
    graded = sorted(((s, plus), ((s + L // 2) % L, minus)), key=lambda g: g[0])
    return [(t // step, v) for t, pieces in graded if t % step == 0 for v in pieces]


def _grade_weight_space(cert: StandardizationCertificate, a: Root) -> tuple:
    """Eigenvectors of the automorphism on the weight-a space, one per dimension."""
    basis = cert.model.weight_space_basis(cert.conductor, a)
    if not basis:
        raise StandardizeError(f"{a} is not a weight of the model algebra")
    out = _grade(cert, basis)
    if len({m for m, _ in out}) < len(out):
        # the twist is scalar on a two-dimensional eigenspace: the grading
        # would have a repeated component, so the certificate is broken
        raise StandardizeError(f"degenerate mode classes on the {a} weight space")
    if len(out) != len(basis):
        raise StandardizeError(f"mode classes of the {a} weight space do not fill its dimension")
    return tuple(out)


def mode_class_vectors(cert: StandardizationCertificate, a: Root) -> tuple:
    """Eigenvector matrices of the weight-a space: (residue, matrix) pairs.

    The matrix spans the (a, residue) component of the source-twist grading;
    residues are taken mod the automorphism order.  Computed once per
    certificate and root.
    """
    pieces = cert.grading.get(a)
    if pieces is None:
        pieces = cert.grading[a] = _grade_weight_space(cert, a)
    return pieces


def mode_class(cert: StandardizationCertificate, a: Root) -> tuple:
    """Residues m mod the automorphism order with a nonzero (a, m) component."""
    return tuple(m for m, _ in mode_class_vectors(cert, a))


def cartan_mode_vectors(cert: StandardizationCertificate) -> tuple:
    """Zero-weight analogue of mode_class_vectors: (residue, diagonal matrix) pairs.

    The pieces are an eigenbasis of the automorphism on the Cartan, one per
    dimension; computed once per certificate.
    """
    pieces = cert.grading.get(None)
    if pieces is None:
        pieces = cert.grading[None] = tuple(_grade(cert, cert.model.cartan_basis(cert.conductor)))
    return pieces


@dataclass(frozen=True)
class VerificationReport:
    items: tuple  # (name, passed, detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def to_json(self):
        return {
            "schema": "v1",
            "passed": self.all_passed,
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.items],
        }


def verify_certificate(spec: OperatorSpec, cert: StandardizationCertificate) -> VerificationReport:
    """Exact re-verification of every certificate claim against the input operator."""
    items = []

    def record(name, fn):
        try:
            detail = fn()
            items.append((name, True, detail or "ok"))
        except Exception as exc:  # noqa: BLE001 - each failed check is itemized
            items.append((name, False, str(exc)))

    try:  # one projective order (k, lam0) for the reconstruction and the declared order
        projective = projective_order(_order_matrix(spec))
    except Exception as exc:  # noqa: BLE001 - each check that reads it reports it
        projective = exc

    def read_projective():
        if isinstance(projective, Exception):
            raise projective
        return projective

    def check_reconstruction():
        L = cert.conductor
        validate_operator(spec)
        u = _lift_from_order(spec, *read_projective())[0].matrix.lift(L)
        if cert.family == "R" and cert.negated:
            u = -u
        _check_reconstruction(cert, u)
        return "exact"

    def check_columns():
        _check_columns(cert.basis_change_matrix, cert.col_norms)
        return f"{len(cert.basis_change)} columns"

    def check_one_parameter():
        # U_t at rational times commutes with the standard twist operator
        L2 = lcm(cert.conductor, 2 * cert.exp_denominator)
        psi_lin = cert.model.twist_matrix(L2)
        for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            ut = cert.u_matrix(L2, t)
            # commuting with an antilinear operator: Ut (T conj) = (T conj) Ut
            ut_right = ut.conj() if cert.family == "C_antiunitary" else ut
            if not mat_products_equal(ut, psi_lin, psi_lin, ut_right):
                raise StandardizeError("one-parameter group does not commute with the twist")
        return "t = 1/2, 1, 3/2"

    def check_maximal_abelian():
        # centralizer of the Cartan inside both fixed algebras equals the Cartan
        span = cert.model.centralizer_basis(cert.conductor)

        def expect_rank(tag, dim):
            if dim != cert.rank:
                raise StandardizeError(
                    f"centralizer of the Cartan in the {tag}-fixed algebra has dim {dim}, "
                    f"expected {cert.rank}"
                )

        # the psi side (psi~'s +1 eigenvectors) first: the phi side grades only when it passed
        expect_rank("psi", len(span.split[0]))
        expect_rank("phi", sum(m == 0 for m, _ in _grade(cert, span)))
        return "centralizers equal the Cartan"

    def check_mu():
        for j in range(1, cert.rank + 1):
            want = Fraction(-cert.exponents[j - 1], cert.exp_denominator)
            if cert.mu[j] != want:
                raise StandardizeError(f"mu[{j}] != -exponent/denominator")
        return "mu matches exponents"

    def check_declared():
        # independent of validate_operator: a non-unitary operator still has its order checked
        k, _ = read_projective()
        true_order = 2 * k if spec.antiunitary else k
        if true_order != spec.declared_order:
            raise StandardizeError("declared order mismatch")
        if cert.orders[0] != true_order:
            raise StandardizeError("certificate records a wrong automorphism order")
        return f"order {true_order}"

    def check_mode_integrality():
        base = cert.base
        for a in lars_finite_parts(cert.lars, base):
            for m in mode_class(cert, a):
                target = cert.image_mode(a, m)
                if target.denominator != 1:
                    raise StandardizeError(f"non-integral relabeled mode for {a}")
                if not lars_contains(cert.lars, AffineRoot(a, int(target)), base):
                    raise StandardizeError(f"relabeled mode escapes the target system for {a}")
        return "all residues relabel integrally into the target"

    record("reconstruction", check_reconstruction)
    record("columns_orthogonal", check_columns)
    record("one_parameter_commutes", check_one_parameter)
    record("cartan_maximal_abelian", check_maximal_abelian)
    record("mu_matches_exponents", check_mu)
    record("declared_order", check_declared)
    record("mode_integrality", check_mode_integrality)
    return VerificationReport(tuple(items))
