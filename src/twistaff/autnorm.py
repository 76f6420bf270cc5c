"""Normalization of finite-order automorphisms into standard form.

An automorphism of the skew-symmetric matrix algebra is conjugation by a
unitary (fields R, C, H) or antiunitary (field C) operator.  This module
lifts such an operator to finite order, splits it into exact eigenspaces,
computes the antiunitary block normal form, and assembles a certificate:
the standard twist it untwists to, the diagonal exponents, the slant, and
the basis change realizing everything, all in exact cyclotomic arithmetic.
``standardize`` validates the operator and walks the powers of its order
matrix once (``_lift_with_orders``); the orders and the lift's powers follow.

The R, H and antiunitary families share one normal-form walk,
``_antilinear_blocks``: an antilinear J = u o conj (``_antilinear(u)``: the
identity's for R, the quaternionic structure for H, the operator itself for
the antiunitary form) pairs the eigenspaces of a finite-order linear map,
and each self-paired eigenspace splits by the sign of J^2 into conjugation
blocks or J-stable planes.  No eigenprojector P_k = (1/n) sum_j zeta^(-jk)
a^j is built: each power of the lift a is a root of unity times a power of
the walk, so an eigenspace (``_Powers.eigenspaces``) is its rank tr(P_k) and
the columns of P_k, summed by index arithmetic when first read; every walk
stops once its vectors number that rank.  Every field comes from
``cyclo``: the lift and the walks run at a ``working_conductor``, which
refuses one above ``MAX_CONDUCTOR``, and a conjugation block that needs the
square root of a rational q missing from the field raises ``_Enlarge``
(``_sqrt``) with the ``sqrt_conductor`` that adjoins the root of |q|;
``_antilinear_blocks`` restarts the walk on its operator lifted to that
conductor.  The R form reads its sign off the ranks before the walk
(``_standardize_r``).  The walk takes each step once and does not re-test what
its construction fixes; the certificate's exact reconstruction and column
checks are its one check.

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
one grading.  All linear algebra is on ``cyclo.ModeMatrix``: the block
constructions walk n x 1 columns (<u, v> = v* u, the antilinear image u conj(v),
sums and scalings of matrices), orthogonalize through one local Hermitian
projection, ``_orth_reduce``, and lay out their columns as one basis-change
matrix through ``_assemble_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations, takewhile
from math import gcd, lcm

from . import DomainError
from .affine import KINDS, AffinisationSpec, admissible_mode_step, lars_finite_parts
from .cyclo import (
    MAX_CONDUCTOR,
    Cyc,
    ModeMatrix,
    _reduce,
    cyc_sqrt,
    mat_products_equal,
    sqrt_conductor,
    working_conductor,
)
from .jsonio import cyc_to_json, json_field, mat_from_json, mat_to_json
from .models import Span, StandardModel, standard_model
from .rootdata import MAX_RANK, Functional, Root, RootSystem

FIELDS = ("R", "C", "H")
#: the largest operator dimension a request may name: the largest model dimension at MAX_RANK
MAX_DIM = 2 * MAX_RANK + 2
#: the largest projective order, and scalar order, that projective_order and matrix_order search
MAX_ORDER = 512


class StandardizeError(DomainError):
    """Raised when an operator violates its declared structure."""


# -- vectors: n x 1 ModeMatrix columns --------------------------------------------


def _hdot(u: ModeMatrix, v: ModeMatrix) -> Cyc:
    """The Hermitian product <u, v> = sum_i u_i conj(v_i), coefficient p of u_i times q of v_i at z^(p - q)."""
    L, terms = u.L, []
    for ru, rv in zip(u.rows, v.rows):
        if ru and rv:
            vt = [(q, d) for q, d in enumerate(rv[0]) if d]
            terms += [((p - q) % L, c * d) for p, c in enumerate(ru[0]) if c for q, d in vt]
    return Cyc(L, _reduce(L, terms), u.den * v.den)


def _antilinear(u: ModeMatrix):
    """The antilinear map v -> u conj(v)."""
    return lambda v: u @ v.conj()


def _orth_reduce(v: ModeMatrix, basis, norms) -> ModeMatrix:
    """v minus its Hermitian projections <v, b> / <b, b> b onto orthogonal vectors b."""
    for b, q in zip(basis, norms):
        c = _hdot(v, b)
        if c:
            v = v - b.scale(c * q.inverse())
    return v


def _gram_schmidt(vectors, rank: int, sigma=None):
    """Exact orthogonalization without normalization; returns (basis, norms).

    With an antiunitary sigma that maps each kept w to a vector orthogonal to
    it, later vectors are also reduced against sigma(w): the kept vectors and
    their sigma-images are then mutually orthogonal (greedy sigma-stable planes).
    The vectors lie in a space of dimension rank: once the kept vectors and their
    sigma-images number rank, they span it and the walk stops.
    """
    basis, norms = [], []
    span, span_norms = [], []  # the kept vectors and their sigma-images
    for v in takewhile(lambda _: len(span) < rank, vectors):
        w = _orth_reduce(v, span, span_norms)
        if not w:
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
        antiunitary = json_field(obj, "antiunitary", "operator", bool, False)
        field = json_field(obj, "field", "operator", str)
        dim = json_field(obj, "dim", "operator", int)
        if dim > MAX_DIM:
            raise IOError(f"operator dim {dim} is above MAX_DIM = {MAX_DIM}")
        matrix = mat_from_json(json_field(obj, "matrix", "operator"))  # one conductor per request
        order = json_field(obj, "order", "operator", int)
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


def _power_walk(u: ModeMatrix) -> tuple[int, Cyc, tuple]:
    """Smallest k <= MAX_ORDER with u^k scalar, the scalar, and u^0, ..., u^(k-1)."""
    walk, acc = [ModeMatrix.identity(u.L, len(u.rows))], u
    for k in range(1, MAX_ORDER + 1):
        c = acc.rows[0].get(0)  # u^k is c times the identity when every row holds only c on the diagonal
        if c is not None and all(r.keys() == {i} and r[i] == c for i, r in enumerate(acc.rows)):
            return k, Cyc(acc.L, c, acc.den), tuple(walk)
        walk.append(acc)
        acc = acc @ u
    raise StandardizeError(f"no finite projective order within the projective_order bound {MAX_ORDER}")


def projective_order(u: ModeMatrix) -> tuple[int, Cyc]:
    """Smallest k <= MAX_ORDER with u^k scalar, and the scalar."""
    return _power_walk(u)[:2]


def matrix_order(u: ModeMatrix) -> int:
    k, s = projective_order(u)
    # order of the scalar times k
    L = u.L
    acc = s
    for m in range(1, MAX_ORDER + 1):
        if acc == Cyc.one(L):
            return k * m
        acc = acc * s
    raise StandardizeError(
        f"scalar part is not a root of unity of order within the matrix_order bound {MAX_ORDER}"
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


def _lift_with_orders(spec: OperatorSpec) -> tuple[OperatorSpec, int, int, "_Powers"]:
    """The finite-order lift, the automorphism order n, the lift's operator order m and its powers."""
    validate_operator(spec)
    return _lift_from_order(spec, *_power_walk(_order_matrix(spec)))


def _lift_from_order(spec: OperatorSpec, k: int, lam0: Cyc, walk=()) -> tuple[OperatorSpec, int, int, "_Powers"]:
    """The lift, its orders and its powers from one projective order k with scalar lam0.

    u^k, or (u conj u)^k, is lam0, and walk holds the powers below k.  n is k (2k
    if antiunitary) and must be the declared order; the rephased unitary has m = n,
    and otherwise lam0 = +-1 and m = n or 2n.  That the lift's m-th power is 1 is
    checked on these scalars where its eigenspaces are built (``_Powers``).
    """
    n = spec.declared_order
    true_order = 2 * k if spec.antiunitary else k
    if true_order != n:
        raise StandardizeError(
            f"declared order {n} but the automorphism has exact order {true_order}"
        )
    L = spec.conductor
    if family_of(spec) == "C_unitary":
        # solve nu^n = lam0^-1 among roots of unity: at L when gcd(n, L) divides j, and
        # otherwise at n L, which holds an n-th root of any L-th root of unity
        j = _root_of_unity_log(lam0)
        L2 = L if j % gcd(n, L) == 0 else working_conductor(L, n * L)
        jj = j * (L2 // L)
        sol = next(m for m in range(L2) if m * n % L2 == -jj % L2)
        lifted = spec.matrix.lift(L2).scale(Cyc.zeta(L2, sol))
        powers = _Powers(walk, Fraction(sol, L2), Fraction(j, L))
        return OperatorSpec(spec.field, False, spec.dim, lifted, n), n, n, powers
    if lam0 == Cyc.one(L):
        return spec, n, n, _Powers(walk)
    if lam0 == Cyc.rational(L, -1):
        return spec, n, 2 * n, _Powers(walk, scalar=Fraction(1, 2))
    if spec.antiunitary:
        raise StandardizeError("antiunitary scalar obstruction must be +-1")
    # R and H: B^N central means B^N = +-1 exactly
    raise StandardizeError("scalar obstruction over R/H must be +-1")


def operator_order(spec: OperatorSpec) -> int:
    """Exact order of the operator itself (for antiunitary: as an antilinear map)."""
    m = matrix_order(_order_matrix(spec))
    return 2 * m if spec.antiunitary else m


# -- eigenspace machinery ---------------------------------------------------------


@dataclass(frozen=True)
class _Eigenspace:
    """An eigenspace of a lift: its rank tr(P_k) and, iterated, the columns of P_k in order."""

    k: int
    rank: int
    column: object  # column c of P_k, built on first read and kept
    dim: int

    def __iter__(self):
        return map(self.column, range(self.dim))


@dataclass(frozen=True)
class _Powers:
    """The powers of a lift a = zeta^phase u, read from the power walk of u: u^0, ...,
    u^(K-1) at the input conductor, with u^K = zeta^scalar (phase and scalar in turns,
    zeta^t = exp(2 pi i t)), so a^j = zeta^(phase j + scalar (j div K)) u^(j mod K)."""

    walk: tuple
    phase: Fraction = Fraction(0)
    scalar: Fraction = Fraction(0)

    def negated(self) -> "_Powers":  # the powers of -a: (-a)^j = (-1)^j a^j
        return replace(self, phase=self.phase + Fraction(1, 2))

    def eigenspaces(self, L: int, m: int, exponents) -> list[_Eigenspace]:
        """The nonzero zeta_m^k-eigenspaces of a at conductor L for the exponents k; the
        scalars must prove a^m = zeta^(phase m + scalar m / K) u^(m mod K) = 1.

        In P_k = (1/m) sum_j zeta_m^(-jk) a^j, nonzero coefficient q of an entry of u^(j mod K) (at
        the walk's conductor L0, over the common denominator) goes to power q L / L0 + L (phase j
        + scalar (j div K) - jk / m) mod L and through its power-table row.  tr(P_k) reads only the
        diagonals; the terms of a column are built on the column's first read.
        """
        walk, K, d = self.walk, len(self.walk), len(self.walk[0].rows)
        if m % K or (self.phase * m + self.scalar * (m // K)).denominator != 1:
            raise StandardizeError("matrix does not have the stated finite order")
        step, den = L // walk[0].L, lcm(*(p.den for p in walk))
        scale = [den // p.den for p in walk]
        diagonals = [[(q * step, x * f) for i, row in enumerate(p.rows) if i in row for q, x in enumerate(row[i]) if x]
                     for p, f in zip(walk, scale)]
        base = [int(L * (self.phase * j + self.scalar * (j // K))) for j in range(m)]

        def power_sum(shifts, pick):  # sum_j zeta_L^shifts[j] times the terms pick(j mod K), reduced
            return _reduce(L, [((q + e) % L, x) for j, e in enumerate(shifts) for q, x in pick(j % K)])

        @cache
        def column_terms(c):  # column c of every power as terms (q L / L0, coefficient over den)
            return [[[(q * step, x * f) for q, x in enumerate(row[c]) if x] if c in row else () for row in p.rows]
                    for p, f in zip(walk, scale)]

        def column(shifts, c):
            terms = column_terms(c)
            return ModeMatrix(L, 1, den * m, [{0: power_sum(shifts, lambda p: terms[p][i])} for i in range(d)])

        shifts = {k: [b - j * k * (L // m) for j, b in enumerate(base)] for k in exponents}
        ranks = {k: power_sum(s, diagonals.__getitem__)[0] // (den * m) for k, s in shifts.items()}  # tr(P_k) in Z
        return [_Eigenspace(k, r, cache(partial(column, shifts[k])), d) for k, r in ranks.items() if r]


_ENLARGEMENT = f"an enlargement up to MAX_CONDUCTOR = {MAX_CONDUCTOR} (only for rationals)"


class _Enlarge(Exception):
    """A rational's square root lies outside the working field, in Q(zeta_conductor) with sqrt(|q|)."""

    def __init__(self, conductor: int):
        super().__init__(conductor)
        self.conductor = conductor


def _sqrt(q):
    """An exact square root of q in its own field, or None.

    A rational whose root is missing from the field raises
    ``_Enlarge(sqrt_conductor(q))`` instead, when that field is within
    MAX_CONDUCTOR: it adjoins the root of |q|, and i is in every field.
    """
    s = cyc_sqrt(q)
    if s is None and q.is_rational():
        conductor = sqrt_conductor(q)
        if conductor is not None:
            raise _Enlarge(conductor)
    return s


def _conjugation_block_decomposition(u: ModeMatrix, rank: int, columns):
    """Exact block structure of the antilinear involution theta: v -> u conj(v) on
    the span of the columns, of dimension rank.

    Emits pairs (plus, minus = theta(plus)) that are orthogonal with equal
    norms, all blocks mutually orthogonal, plus at most one leftover
    theta-fixed vector.  A pair is valid exactly when plus is isotropic for the
    symmetric bilinear form B(v, w) = <v, theta w>; valid blocks keep later
    hermitian reductions B-orthogonal, so the search is a sequence of in-field
    square-root problems (``_sqrt``, which raises ``_Enlarge`` for a rational
    root outside the field).  Each stage applies one rule: ``isotropic`` while
    it adds blocks, then ``plane``, then the pairing of theta-fixed vectors.  A
    block built isotropic is not re-tested: the caller's exact checks of the
    assembled basis catch a fault.  Every stage stops once the block vectors and
    theta-fixed vectors number rank: they then span the space, and every later
    reduction is zero.  Returns (blocks, fixed vector or None).
    """
    theta = _antilinear(u)
    spanned, spanned_norms = [], []  # plus and minus of each block so far, with their norms
    pool, pool_norms = [], []  # the theta-fixed vectors of the last stage, with their norms

    def unfilled(vectors):
        """The vectors, for as long as the block and fixed vectors do not span the range."""
        return takewhile(lambda _: len(spanned) + len(pool) < rank, vectors)

    def add(plus):
        q = _hdot(plus, plus)  # theta is antiunitary: minus = theta(plus) has the same norm
        spanned.extend((plus, theta(plus)))
        spanned_norms.extend((q, q))

    def reduced(v):
        return _orth_reduce(v, spanned, spanned_norms)

    def bform(v, w):
        return _hdot(v, theta(w))

    def isotropic(v):
        """Whether a block was added in the theta-stable span of a reduced v."""
        cv = bform(v, v)
        if cv:
            # mix v with theta(v): lambda^2 conj(cv) + 2 q lambda + cv = 0
            q = _hdot(v, v)
            disc = q * q - cv * cv.conj()
            s = _sqrt(disc) if disc else None
            if s is None:
                return False
            # the first root serves: v + lambda theta(v) = 0 would force |cv| = q, that is
            # disc = 0; reduced, as theta maps the blocks' span onto itself
            v = v + theta(v).scale((s - q) * cv.conj().inverse())
        add(v)
        return True

    def plane(v, cv, w):
        """Add a block in span{v, reduced w} for cv = B(v, v) != 0; return the vector to
        walk next (zero for none), or None when the field holds no block there."""
        w = reduced(w)
        w = w - v.scale(bform(v, w) * cv.inverse())  # B-orthogonal to v
        if not w:
            return None
        cw = bform(w, w)
        if not cw:
            add(w)
            return v
        # the binary form diag(cv, cw) is isotropic at v s + w when cv s^2 + cw = 0
        s = _sqrt(-cw * cv.inverse())
        if s is None:
            return None
        add(v.scale(s) + w)
        return reduced(v.scale(s) - w)  # the block's B-complement inside span{v, w}

    rest, count = columns, None
    while count != len(spanned):  # until a round adds no block
        count = len(spanned)
        rest = [v for v in map(reduced, unfilled(rest)) if v and not isotropic(v)]

    # pair up anisotropic stragglers through B-planes (the last round reduced them all)
    work, stuck = rest, []
    while len(work) > 1 and len(spanned) < rank:
        v = reduced(work.pop(0))
        if not v:
            continue
        cv = bform(v, v)
        if not cv:
            add(v)
            continue
        for idx, w in enumerate(work):
            walk_next = plane(v, cv, w)
            if walk_next is not None:
                del work[idx]
                if walk_next:
                    work.insert(0, walk_next)
                break
        else:
            stuck.append(v)

    work += stuck
    # last stage: split leftovers into theta-fixed vectors and pair those
    ii = Cyc.i(u.L)
    for v in unfilled(work):
        v = _orth_reduce(reduced(v), pool, pool_norms)
        if not v:
            continue
        tv = theta(v)
        for cand in unfilled((v + tv, (v - tv).scale(ii))):
            # still theta-fixed: its reduction coefficients against fixed vectors and pairs are real
            cand = _orth_reduce(reduced(cand), pool, pool_norms)
            if cand:
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
        add(paired[0])  # its minus is theta(plus)
    blocks = list(zip(spanned[::2], spanned[1::2]))
    return blocks, pool[0] if pool else None


def _pair_conjugation_fixed(g1, q1, g2, q2):
    """From two orthogonal vectors fixed by an antilinear involution, build a block pair.

    Returns (plus, minus): plus = g1' + i g2' and minus = g1' - i g2' for a
    remix g1', g2' of equal norm, so the involution swaps plus and minus and
    the two are orthogonal.  The remix is (g1, sqrt(q1 / q2) g2); None when that
    root is not in the field (nor is sqrt(q1 q2), of the same square class).
    """
    scale = _sqrt(q1 * q2.inverse())
    if scale is None:
        return None
    g2 = g2.scale(Cyc.i(q1.L) * scale)
    return g1 + g2, g1 - g2


def _antilinear_blocks(powers: _Powers, m: int, u: ModeMatrix):
    """Orthogonal column pairs (plus, minus) for J = u o conj commuting with the lift a of the powers, a^m = 1.

    J maps the zeta^k-eigenspace of a onto the zeta^-k one, and every pair has
    minus = J(plus), which callers rescale as their form needs.  A paired
    eigenspace (0 < 2k < m) gets an orthogonal basis.  On a self-paired one (k = 0
    or 2k = m) J^2 = +-1, read off one vector: J^2 = 1 gives conjugation blocks
    and at most one J-fixed vector, J^2 = -1 gives J-stable planes.  The
    walk takes k = 0 and m/2 first, at the conductor L of u; when a
    conjugation block decomposition needs a rational square root outside
    Q(zeta_L) (``_Enlarge``), the walk restarts on u lifted to the enlarged
    conductor, with the eigenspaces rebuilt there from the same powers.  Returns
    (plus, minus, exponents, norms, fixed, L), fixed mapping exponents to J-fixed vectors.
    """
    L, J = u.L, _antilinear(u)
    spaces = powers.eigenspaces(L, m, range(m // 2 + 1))  # m - k mirrors k
    plus, minus, exps, norms, fixed = [], [], [], [], {}
    try:
        for space in sorted(spaces, key=lambda s: (0 < 2 * s.k < m, s.k)):
            sign = 0  # J^2 on a self-paired eigenspace, read off one nonzero column
            if 2 * space.k in (0, m):
                v = next(c for c in space if c)
                sign = 1 if J(J(v)) == v else -1
            if sign == 1:
                blocks, fixed_vec = _conjugation_block_decomposition(u, space.rank, space)
                if fixed_vec is not None:
                    fixed[space.k] = fixed_vec
                basis, images = [b[0] for b in blocks], [b[1] for b in blocks]
                qs = [_hdot(w, w) for w in basis]
            else:
                basis, qs = _gram_schmidt(space, space.rank, J if sign else None)
                images = [J(w) for w in basis]
            plus += basis
            minus += images
            exps += [space.k] * len(basis)
            norms += qs
    except _Enlarge as enlarged:
        big = enlarged.conductor
        return _antilinear_blocks(powers, m, u.lift(big))
    return plus, minus, exps, norms, fixed, L


def _assemble_columns(plus, minus, exponents, norms, middle, d):
    """Sort the pairs by exponent and lay out the plus, middle and minus columns.

    minus is empty when the layout has no mirrored block.  Returns the sorting
    permutation, the basis change with those columns and the column norms.
    """
    order = sorted(range(len(exponents)), key=lambda i: (exponents[i], i))
    cols = [plus[i] for i in order] + list(middle)
    col_norms = [norms[i] for i in order] + [_hdot(v, v) for v in middle]
    if minus:
        cols += [minus[i] for i in order]
        col_norms += [norms[i] for i in order]
    if len(cols) != d:
        raise StandardizeError(f"the block construction gave {len(cols)} columns in dimension {d}")
    return order, ModeMatrix.from_columns(cols), tuple(col_norms)


# -- the antiunitary normal form ----------------------------------------------------


@dataclass(frozen=True)
class AntiunitaryBlockForm:
    """Normal form of an antiunitary operator with A^(2N) = 1.

    Each block is (exponent n, plus column index, minus column index): the
    operator maps the plus vector to zeta^-n times the minus vector and the
    minus vector to zeta^n times the plus vector, zeta the primitive 2N-th
    root.  At most one fixed vector appears.  Columns of basis_change (a
    ModeMatrix) are pairwise orthogonal; squared norms are recorded, not
    normalized away.
    """

    half_order: int  # N, with A^(2N) = 1
    blocks: tuple  # ((n, plus_col, minus_col), ...)
    fixed_col: int | None
    basis_change: ModeMatrix
    col_norms: tuple
    conductor: int

    def block_matrix(self) -> ModeMatrix:
        """Std with A(V w) = V Std conj(w): the block phases, and 1 at the fixed column."""
        L = self.conductor
        d = self.basis_change.ncols
        zeta = L // (2 * self.half_order)
        std = {}
        for n, pc, mc in self.blocks:
            std[mc, pc] = Cyc.zeta(L, (-n * zeta) % L)
            std[pc, mc] = Cyc.zeta(L, (n * zeta) % L)
        if self.fixed_col is not None:
            std[self.fixed_col, self.fixed_col] = Cyc.one(L)
        return ModeMatrix.from_entries(L, (d, d), std)


def _antiunitary_blocks(spec: OperatorSpec, powers: _Powers, m_op: int):
    """The block walk of an antiunitary operator A = u o conj of order m_op: J = A pairs
    the eigenspaces of A^2 = u conj(u), of order N = m_op / 2, whose powers are given.

    Returns the ``_antilinear_blocks`` output, its minus columns rescaled to the
    block form, with the J-fixed vector of exponent 0 (or None) for the fixed map.
    """
    half = m_op // 2
    L = working_conductor(spec.conductor, 8, 2 * m_op)
    u = spec.matrix.lift(L)
    plus, minus, exps, norms, fixed, L = _antilinear_blocks(powers, half, u)
    # minus = c(n) J(plus) at the final conductor: c = i on the J^2 = -1 eigenspace (2n = N),
    # zeta^n on a pair, zeta the primitive 2N-th root, and c(0) = 1
    scales = {n: Cyc.i(L) if 2 * n == half else Cyc.zeta(L, n * (L // (2 * half)) % L) for n in exps if n}
    minus = [w.scale(scales[n]) if n else w for w, n in zip(minus, exps)]
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
    _, _, m_op, powers = _lift_with_orders(spec)
    plus_cols, minus_cols, exponents, norms_plus, fixed, L = _antiunitary_blocks(spec, powers, m_op)
    middle = [fixed] if fixed is not None else []
    order, v, col_norms = _assemble_columns(plus_cols, minus_cols, exponents, norms_plus, middle, spec.dim)
    r = len(order)
    blocks = tuple((exponents[i], pos, r + len(middle) + pos) for pos, i in enumerate(order))
    form = AntiunitaryBlockForm(
        half_order=m_op // 2,
        blocks=blocks,
        fixed_col=r if middle else None,
        basis_change=v,
        col_norms=col_norms,
        conductor=L,
    )
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
    Columns of basis_change (a ModeMatrix: the model basis in input
    coordinates) are exactly orthogonal with recorded squared norms; each
    plus/minus pair shares its norm.
    The twisted grading derived from it is computed lazily, once per root,
    into ``grading`` (see ``mode_class_vectors``), beside the phases it reads
    (``_phases``) and the list of its pieces (``grading_pieces``);
    ``dataclasses.replace`` starts a fresh one.
    """

    family: str
    lars: str
    rank: int
    exponents: tuple
    mu: Functional
    basis_change: ModeMatrix
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

    @cached_property
    def _phases(self) -> list:
        """``_u_phases`` at the certificate's conductor, which ``_grade`` reads for every root."""
        return self._u_phases(self.conductor)

    @cached_property
    def grading_pieces(self) -> tuple:
        """Every (residue, matrix) piece of the grading: each root's, then the Cartan's."""
        parts = lars_finite_parts(self.lars, self.base)
        return tuple(p for a in parts for p in mode_class_vectors(self, a)) + cartan_mode_vectors(self)

    def u_matrix(self, L: int, t: Fraction = Fraction(1)) -> ModeMatrix:
        """U_t of the one-parameter group, in model coordinates (U_1 by default)."""
        return ModeMatrix.diagonal(L, [Cyc.zeta(L, k) for k in self._u_phases(L, t)])

    def _mu_num(self, a: Root | None) -> int:
        """mu(a) times mu's denominator (0 at the Cartan)."""
        num = self.mu.num
        return sum(num[j - 1] * c for j, c in a.coeffs if j <= len(num)) if a is not None else 0

    def image_mode(self, a: Root | None, n: int) -> Fraction:
        """Target mode N_psi (n / N_phi - mu(a)) of source mode n at root a (None: the Cartan)."""
        n_phi, n_psi = self.orders
        den = self.mu.den
        return Fraction(n_psi * (n * den - n_phi * self._mu_num(a)), n_phi * den)

    def image_modes(self, a: Root, modes):
        """(n, image_mode(a, n), in target) for each source mode n at a finite part a of the kind.

        The image is an int when integral, else a Fraction, which is never in
        the target; the target's admissible class at a is read once.
        """
        n_phi, n_psi = self.orders
        den = self.mu.den
        q, offset = n_phi * den, n_phi * self._mu_num(a)
        res, step = admissible_mode_step(self.lars, a)
        for n in modes:
            p = n_psi * (n * den - offset)
            t, r = divmod(p, q)
            yield (n, Fraction(p, q), False) if r else (n, t, t % step == res % step)

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
            "basis_change_columns": [list(col) for col in zip(*mat_to_json(self.basis_change))],
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
    order, basis_change, col_norms = _assemble_columns(plus_cols, minus_cols, exponents, norms, zero_cols, spec.dim)
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
    _check_columns(cert.basis_change, col_norms)
    return cert


def _check_reconstruction(cert: StandardizationCertificate, u: ModeMatrix) -> None:
    """u, the finite-order operator at the certificate's conductor, is the standard form
    transported by the basis change."""
    v = cert.basis_change
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
    lifted, n, m, powers = _lift_with_orders(spec)
    fam = family_of(spec)
    if fam == "C_unitary":
        return _standardize_c_unitary(lifted, powers, n)
    if fam == "H":
        return _standardize_h(lifted, powers, n, m)
    if fam == "R":
        return _standardize_r(lifted, powers, n, m)
    return _standardize_antiunitary(lifted, powers, n, m)


def _standardize_c_unitary(spec: OperatorSpec, powers: _Powers, n: int) -> StandardizationCertificate:
    L = working_conductor(spec.conductor, 4 * n)
    plus, exps, norms = [], [], []
    for space in powers.eigenspaces(L, n, range(n)):
        basis, qs = _gram_schmidt(space, space.rank)
        plus += basis
        exps += [space.k] * len(basis)
        norms += qs
    return _collect_certificate(
        spec, "C_unitary", "A1", plus, [], [], exps, norms, L, n, (n, n),
        partition=(("eigenvectors", len(plus)),),
    )


def _standardize_h(spec: OperatorSpec, powers: _Powers, n: int, m: int) -> StandardizationCertificate:
    t = quaternionic_structure(working_conductor(spec.conductor, 4 * m), spec.dim)
    plus, minus, exps, norms, _, L = _antilinear_blocks(powers, m, t)
    return _collect_certificate(
        spec, "H", "C1", plus, minus, [], exps, norms, L, m, (n, m),
        partition=(("quaternionic_pairs", len(plus)),),
    )


def _standardize_r(spec: OperatorSpec, powers: _Powers, n: int, m: int) -> StandardizationCertificate:
    """J = conj fixes a vector of a self-paired eigenspace exactly when tr(P_k) is odd, so the
    walk runs once, on -u when only P_(m/2) has odd rank: B1 keeps the +1 eigenspace's fixed
    vector.  (-u)^n = (-1)^n u^n, so an odd n flips the scalar +-1 and m = 2n becomes n."""
    self_paired = powers.eigenspaces(working_conductor(spec.conductor, 4 * m), m, (0, m // 2)) if m % 2 == 0 else ()
    negated = {s.k for s in self_paired if s.rank % 2} == {m // 2}
    if negated:
        spec = OperatorSpec(spec.field, False, spec.dim, -spec.matrix, spec.declared_order)
        powers, m = powers.negated(), n if n % 2 else m
    identity = ModeMatrix.identity(working_conductor(spec.conductor, 4 * m), spec.dim)
    plus, minus, exps, norms, fixed, L = _antilinear_blocks(powers, m, identity)
    s_plus = fixed.get(0)
    s_minus = fixed.get(m // 2) if m % 2 == 0 else None
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


def _standardize_antiunitary(spec: OperatorSpec, powers: _Powers, n: int, m: int) -> StandardizationCertificate:
    plus, minus, exps, norms, fixed, L = _antiunitary_blocks(spec, powers, m)
    if fixed is None:
        # quaternionic standard twist: rotate the minus columns and shift the exponents
        ii = Cyc.i(L)
        minus = [w.scale(ii) for w in minus]
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
    k = cert._phases
    # one position serves: the phases are linear in the weight, whatever the exponents
    i, j = next(iter(basis.support))
    s = (k[j] - k[i]) % L
    step = L // n_phi
    plus, minus = basis.split
    graded = sorted(((s, plus), ((s + L // 2) % L, minus)), key=lambda g: g[0])
    return [(t // step, v) for t, pieces in graded if t % step == 0 for v in pieces]


def _grade_weight_space(cert: StandardizationCertificate, a: Root) -> tuple:
    """Eigenvectors of the automorphism on the weight-a space, one per dimension."""
    basis = cert.model.weight_space_basis(cert.conductor, a.coeffs)
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
        except DomainError as exc:  # a failed check is itemized; any other error is a fault
            items.append((name, False, str(exc)))

    try:  # one projective order (k, lam0) for the reconstruction and the declared order
        projective = projective_order(_order_matrix(spec))
    except DomainError as exc:  # each check that reads it reports it
        projective = exc

    def read_projective():
        if isinstance(projective, DomainError):
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
        _check_columns(cert.basis_change, cert.col_norms)
        return f"{cert.basis_change.ncols} columns"

    def check_one_parameter():
        # U_t at rational times commutes with the standard twist operator.  This field is
        # the one that working_conductor does not choose: it divides 2 cert.conductor, so it
        # is at most 2 MAX_CONDUCTOR, and bounding it would fail a valid certificate (an
        # antiunitary one at 480 with even N = m_op / 2 needs 960 for U_1/2 alone)
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
        span = cert.model.weight_space_basis(cert.conductor, ())

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
        for a in lars_finite_parts(cert.lars, cert.base):
            for _, target, contained in cert.image_modes(a, mode_class(cert, a)):
                if type(target) is not int:
                    raise StandardizeError(f"non-integral relabeled mode for {a}")
                if not contained:
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
