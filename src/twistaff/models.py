"""Finite matrix models of the seven standard twisted algebras.

Each model reads its row of ``affine.KINDS`` and fixes a basis layout for the
underlying Hilbert space truncation: a block of "plus" vectors carrying weight
+eps_j, up to two weight-zero vectors and, except for A1, a mirrored "minus"
block with weight -eps_j.  The layout is one weight tuple, and one pairing Q
(plus vector <-> mirror, exchange or symplectic) serves the defining
involution of the matrix algebra, the order-2 twist when it is paired, and
the antilinear structure map for the quaternionic/antiunitary cases.  The
weight tuple, the pairing and the positions of each weight's matrix units are
computed once per (kind, rank), each weight-space basis (the zero weight
included) once per conductor and weight, the Cartan basis once per conductor;
each basis is a ``Span`` that keeps its psi~ eigen-split.  The trace form
is scaled so that the E_j are orthonormal.  Every matrix is a
``cyclo.ModeMatrix``.

No basis needs elimination.  tau and psi~ are signed permutations of the
matrix entries (``ModeMatrix.permuted``), so the projection of a matrix unit
is zero or +- the projection of the first unit of its orbit, and projections
from different orbits have disjoint supports.  A basis is one nonzero
projected unit per orbit (``_orbit_units``), and ``Span.split`` reads psi~ on
it as a signed permutation, refusing any other input.  ``check_mode`` tests a
mode matrix against tau and psi~ on the same tables, entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, sub

from .affine import KINDS, LarsKind
from .cyclo import Cyc, ModeMatrix
from .rootdata import Root, RootSystem


@dataclass(frozen=True)
class StandardModel:
    lars: str
    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")

    # -- layout --------------------------------------------------------------

    @cached_property
    def kind(self) -> LarsKind:
        return KINDS[self.lars]

    @cached_property
    def weights(self) -> tuple:
        """Signed index of each basis vector: +j / -j for weight +-eps_j, 0 for weight zero."""
        plus = tuple(range(1, self.rank + 1))
        minus = tuple(-j for j in plus) if self.kind.mirrored else ()
        return plus + (0,) * self.kind.zeros + minus

    @cached_property
    def pairing(self) -> tuple:
        """(pair, sign) with Q e_a = sign[a] e_pair[a] for the pairing Q of the kind.

        Each plus vector pairs with its mirror and each zero vector with itself;
        the symplectic pairing sends the minus vectors to minus their mirrors.
        """
        index = {w: a for a, w in enumerate(self.weights) if w}
        pair = tuple(index.get(-w, a) for a, w in enumerate(self.weights))
        k = self.kind
        symplectic = "symplectic" in (k.involution, k.twist, k.structure)
        sign = tuple(-1 if symplectic and w < 0 else 1 for w in self.weights)
        return pair, sign

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def n_psi(self) -> int:
        return self.kind.twist_order

    @property
    def base(self) -> RootSystem:
        return RootSystem(self.kind.base, self.rank)

    @property
    def form_scale(self) -> Fraction:
        # fixed so that <E_j, E_k> = delta_jk
        return Fraction(1, 2) if self.kind.mirrored else Fraction(1)

    @lru_cache(maxsize=None)
    def entry_weight(self, a: int, b: int) -> tuple:
        """Sparse eps-coordinates of the weight of the matrix unit E_ab."""
        out: dict[int, int] = {}
        for idx, s in ((self.weights[a], 1), (self.weights[b], -1)):
            if idx:
                out[abs(idx)] = out.get(abs(idx), 0) + (s if idx > 0 else -s)
        return tuple(sorted((j, c) for j, c in out.items() if c))

    @cached_property
    def _paired_table(self) -> tuple:
        """-Q x^T Q^-1 for the pairing Q as a signed permutation (``ModeMatrix.permuted``) of the entries.

        Entry (i, j) is -sign[i] * sign[j] * x[pair[j]][pair[i]], because
        sign[a] * sign[pair[a]] is the same for every a; the map is an
        involution, so moving entry (i, j) by the same table gives it.
        """
        pair, sign = self.pairing
        d = range(self.dim)
        return tuple(tuple((pair[j], pair[i], -sign[i] * sign[j]) for j in d) for i in d)

    @cached_property
    def _paired_orbits(self) -> tuple:
        """Each orbit {(a, b), (i, j)} of ``_paired_table`` once, as (a, b, *table[a][b]) with (a, b) <= (i, j)."""
        d, table = range(self.dim), self._paired_table
        return tuple((a, b, *table[a][b]) for a in d for b in d if (a, b) <= table[a][b][:2])

    @cached_property
    def _flip_table(self) -> tuple:
        """Conjugation by the reflection F that negates the second zero vector, as a signed permutation."""
        flip, d = self.weights.index(0) + 1, range(self.dim)
        return tuple(tuple((i, j, -1 if (i == flip) != (j == flip) else 1) for j in d) for i in d)

    # -- matrices --------------------------------------------------------------

    def basis_matrix(self, L: int, a: int, b: int) -> ModeMatrix:
        return ModeMatrix.from_entries(L, (self.dim, self.dim), {(a, b): 1})

    def cartan_matrix(self, j: int, L: int) -> ModeMatrix:
        """The operator E_j: +1 on the j-th plus vector, -1 on its mirror."""
        return ModeMatrix.diagonal(L, [1 if w == j else -1 if w == -j else 0 for w in self.weights])

    def algebra_project(self, x: ModeMatrix) -> ModeMatrix:
        """(x + tau(x)) / 2 for the defining involution tau = -Q x^T Q^-1; its fixed points form the model algebra."""
        if self.kind.involution is None:
            return x
        return _half_sum(x, self._paired_table, 1)

    @cached_property
    def _twist_table(self) -> tuple | None:
        """The standard twist as a signed permutation of the entries (the flip or the pairing); None if untwisted."""
        twist = self.kind.twist
        if twist is None:
            return None
        return self._flip_table if twist == "flip" else self._paired_table

    def psi_tilde(self, x: ModeMatrix) -> ModeMatrix:
        """The complex-linear extension of the standard order-2 twist."""
        table = self._twist_table
        return x if table is None else x.permuted(table)

    def twist_matrix(self, L: int) -> ModeMatrix:
        """Linear part of the standard twist operator.

        No twist: the identity.  The flip: the reflection F, so psi_tilde(x) = F x F.
        The paired twists are antiunitary: the structure map's linear part Q,
        composed with plain conjugation.
        """
        twist = self.kind.twist
        if twist is None:
            return ModeMatrix.identity(L, self.dim)
        if twist == "flip":
            flip = self.weights.index(0) + 1
            return ModeMatrix.diagonal(L, [-1 if a == flip else 1 for a in range(self.dim)])
        return self.structure_map_matrix(L)

    def mode_project(self, x: ModeMatrix, n: int) -> ModeMatrix:
        """Projection onto the twist eigenspace of mode n (trivial twist: identity)."""
        if self.n_psi == 1:
            return x
        return _half_sum(x, self._twist_table, 1 if n % 2 == 0 else -1)

    def check_fixed(self, table, n: int, x: ModeMatrix, s: int) -> None:
        """Refuse the mode-n matrix x (ValueError naming n) unless P(x) = s x for the signed
        permutation P in ``table`` (``_paired_table`` or ``_flip_table``), read entry by entry.

        At conductor 4 (every bracket-check) an entry is a Gaussian pair (re, im),
        whose negation is compared without a call."""
        rows, gauss = x.rows, x.L == 4
        for row, trow in zip(rows, table):
            for col, num in row.items():
                i, j, t = trow[col]
                y = rows[i].get(j)
                if y is None or (
                    y != num if t == s else y[0] != -num[0] or y[1] != -num[1] if gauss else any(map(add, y, num))
                ):
                    what = "involution -Q x^T Q^-1" if table is self._paired_table else "flip F x F"
                    raise ValueError(f"mode {n} matrix x is not {s} x under the model's {what}")

    def check_mode(self, x: ModeMatrix, n: int) -> None:
        """Refuse a mode-n matrix outside the model algebra's mode-n space (``check_fixed``):
        tau(x) = x for the defining involution tau, psi~(x) = (-1)^n x for the standard twist."""
        if self.kind.involution:
            self.check_fixed(self._paired_table, n, x, 1)
        if self._twist_table:
            self.check_fixed(self._twist_table, n, x, -1 if n % 2 else 1)

    # -- structure map for the K=H / antiunitary families -----------------------

    def structure_map_matrix(self, L: int) -> ModeMatrix:
        """Linear part T of the standard antilinear structure map (v -> T conj(v)).

        The pairing Q: C1/C2 the quaternionic map with T e+ = e-, T e- = -e+;
        BC2 the symmetric exchange fixing the zero vector.  Other kinds have none.
        """
        if self.kind.structure is None:
            raise ValueError(f"kind {self.lars} carries no antilinear structure map")
        pair, sign = self.pairing
        return ModeMatrix.from_entries(L, (self.dim, self.dim), {(pair[a], a): sign[a] for a in range(self.dim)})

    # -- forms and decompositions ------------------------------------------------

    def bilinear_form(self, x: ModeMatrix, y: ModeMatrix) -> Cyc:
        """B(x, y) = -scale * tr(xy): the invariant bilinear extension of the real form."""
        return Cyc.rational(x.L, -self.form_scale) * x.trace_product(y)

    def weight_components(self, x: ModeMatrix) -> list[tuple[Root | None, ModeMatrix]]:
        """Split a matrix into its Cartan-weight components, by ascending weight; their sum is x."""
        buckets: dict[tuple, list] = {}
        for i, row in enumerate(x.rows):
            for j, num in row.items():
                buckets.setdefault(self.entry_weight(i, j), [{} for _ in x.rows])[i][j] = num
        return [(Root(w) if w else None, ModeMatrix(x.L, x.ncols, x.den, buckets[w])) for w in sorted(buckets)]

    @cached_property
    def _orbit_units(self) -> dict:
        """Weight (sparse eps-coordinates, () for zero) -> the first unit (a, b) of each orbit
        of tau with a nonzero projection, row by row; for A1 each unit is an orbit of its own."""
        d, index = range(self.dim), {}
        orbits = self._paired_orbits if self.kind.involution else [(a, b, a, b, 1) for a in d for b in d]
        for a, b, i, j, t in orbits:
            if (a, b) != (i, j) or t == 1:  # a unit that tau negates projects to zero
                index.setdefault(self.entry_weight(a, b), []).append((a, b))
        return index

    def _projected_units(self, L: int, units) -> "Span":
        return Span(self, [self.algebra_project(self.basis_matrix(L, a, b)) for a, b in units])

    @lru_cache(maxsize=None)
    def weight_space_basis(self, L: int, w: tuple) -> "Span":
        """Basis of the weight-w space (no mode projection), built once per L and w.

        w is a root's coeffs, or () for the zero-weight space, which contains
        the Cartan's centralizer.
        """
        return self._projected_units(L, self._orbit_units.get(w, ()))

    @lru_cache(maxsize=None)
    def cartan_basis(self, L: int) -> "Span":
        """Basis of the Cartan: the projected diagonal matrix units, built once per L."""
        return self._projected_units(L, [(a, b) for a, b in self._orbit_units.get((), ()) if a == b])


class Span(tuple):
    """A basis, as a tuple of ModeMatrix, of a psi~-stable span of one weight in a model algebra.

    The basis matrices have disjoint supports, and psi~ maps each one to +- a
    basis matrix: psi~(b_k) = s_k b_pi(k).  ``support`` maps each position
    (i, j) where some basis matrix is nonzero to the index of that matrix.
    ``split`` is the pair (plus, minus) of psi~'s +1 and -1 eigenvectors on the
    span.  For sigma = +1, then -1, and k ascending, it takes b_k when
    pi(k) = k and s_k = sigma, and sigma s_k b_pi(k) + b_k when pi(k) < k:
    with P the matrix of psi~ in basis coordinates, the basis of ker(P - sigma)
    that Gauss-Jordan elimination reads off the free columns.  Both are
    computed on first use and kept with the basis, which the model caches.
    """

    def __new__(cls, model: StandardModel, matrices):
        span = super().__new__(cls, matrices)
        span.model = model
        return span

    @cached_property
    def support(self) -> dict:
        return {p: k for k, b in enumerate(self) for p in _positions(b)}

    @cached_property
    def split(self) -> tuple[tuple[ModeMatrix, ...], tuple[ModeMatrix, ...]]:
        signed = []  # (pi(k), s_k) per basis index k
        for b in self:
            image = self.model.psi_tilde(b)
            k = self.support.get(_positions(image)[0])
            s = 0 if k is None else 1 if image == self[k] else -1 if image == -self[k] else 0
            if not s:
                raise ValueError("psi~ does not preserve the span of the basis as signed copies of its members")
            signed.append((k, s))
        pieces = []
        for sigma in (1, -1):
            vectors = []
            for k, (p, s) in enumerate(signed):
                if p == k and s == sigma:
                    vectors.append(self[k])
                elif p < k:
                    vectors.append((self[p] if sigma * s == 1 else -self[p]) + self[k])
            pieces.append(tuple(vectors))
        return pieces[0], pieces[1]


def _half_sum(x: ModeMatrix, table, sign: int) -> ModeMatrix:
    """(x + sign P(x)) / 2 for the signed permutation P of the entries in ``table``
    (``ModeMatrix.permuted``): one pass over x's entries, over 2 x.den."""
    rows = [dict(row) for row in x.rows]
    for a, row in enumerate(x.rows):
        for b, num in row.items():
            i, j, s = table[a][b]
            have = rows[i].get(j)
            if have is None:
                rows[i][j] = num if s * sign == 1 else tuple(-c for c in num)
            else:
                rows[i][j] = tuple(map(add if s * sign == 1 else sub, have, num))
    return ModeMatrix(x.L, x.ncols, 2 * x.den, rows)


def _positions(x: ModeMatrix) -> list[tuple[int, int]]:
    """The positions (i, j) of the nonzero entries of x, row by row."""
    return [(i, j) for i, row in enumerate(x.rows) for j in row]


@lru_cache(maxsize=None)
def standard_model(lars: str, rank: int) -> StandardModel:
    return StandardModel(lars, rank)

