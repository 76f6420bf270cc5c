"""Finite matrix models of the seven standard twisted algebras.

Each model reads its row of ``affine.KINDS`` and fixes a basis layout for the
underlying Hilbert space truncation: a block of "plus" vectors carrying weight
+eps_j, up to two weight-zero vectors and, except for A1, a mirrored "minus"
block with weight -eps_j.  The layout is one weight tuple, and one pairing Q
(plus vector <-> mirror, exchange or symplectic) serves the defining
involution of the matrix algebra, the order-2 twist when it is paired, and
the antilinear structure map for the quaternionic/antiunitary cases.  The
weight tuple and the pairing are computed once per (kind, rank), each
weight-space basis once per conductor and root, the Cartan and zero-weight
bases once per conductor; each basis is a ``Span`` that keeps its psi~
eigen-split.  The trace form is scaled so that the E_j are orthonormal.
Root-space and weight-space bases are the independent projections of matrix
units, picked by ``span_basis`` through the ``cyclo`` span test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .affine import KINDS, LarsKind, admissible_mode_step
from .cyclo import (
    Cyc,
    Matrix,
    ModeMatrix,
    in_span,
    mat_add,
    mat_diagonal,
    mat_identity,
    mat_scale,
    mat_sub,
    nullspace,
    row_reduce,
)
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
        """-Q x^T Q^-1 for the pairing Q as a signed permutation (``_signed``) of the entries.

        Entry (i, j) is -sign[i] * sign[j] * x[pair[j]][pair[i]], because
        sign[a] * sign[pair[a]] is the same for every a; the map is an involution.
        """
        pair, sign = self.pairing
        d = range(self.dim)
        return tuple(tuple((pair[j], pair[i], -sign[i] * sign[j]) for j in d) for i in d)

    @cached_property
    def _flip_table(self) -> tuple:
        """Conjugation by the reflection F that negates the second zero vector, as a signed permutation."""
        flip, d = self.weights.index(0) + 1, range(self.dim)
        return tuple(tuple((i, j, -1 if (i == flip) != (j == flip) else 1) for j in d) for i in d)

    # -- matrices --------------------------------------------------------------

    def basis_matrix(self, L: int, a: int, b: int) -> Matrix:
        z = Cyc.zero(L)
        one = Cyc.one(L)
        return tuple(
            tuple(one if (i == a and j == b) else z for j in range(self.dim))
            for i in range(self.dim)
        )

    def cartan_matrix(self, j: int, L: int) -> Matrix:
        """The operator E_j: +1 on the j-th plus vector, -1 on its mirror."""
        one = Cyc.one(L)
        return mat_diagonal(
            L, [one if w == j else -one if w == -j else Cyc.zero(L) for w in self.weights]
        )

    def _tau(self, x):
        """Defining involution of the matrix algebra; fixed points form the model algebra."""
        if self.kind.involution is None:
            return x  # full gl, no constraint
        return _signed(x, self._paired_table)

    def in_algebra(self, x: Matrix) -> bool:
        t = self._tau(x)
        return all(t[i][j] == x[i][j] for i in range(self.dim) for j in range(self.dim))

    def algebra_project(self, x):
        """(x + tau(x)) / 2, for a Matrix or a ModeMatrix x."""
        if self.kind.involution is None:
            return x
        return _half_sum(x, self._tau(x), 1)

    def psi_tilde(self, x):
        """The complex-linear extension of the standard order-2 twist."""
        twist = self.kind.twist
        if twist is None:
            return x
        return _signed(x, self._flip_table if twist == "flip" else self._paired_table)

    def twist_matrix(self, L: int) -> Matrix:
        """Linear part of the standard twist operator.

        No twist: the identity.  The flip: the reflection F, so psi_tilde(x) = F x F.
        The paired twists are antiunitary: the structure map's linear part Q,
        composed with plain conjugation.
        """
        twist = self.kind.twist
        if twist is None:
            return mat_identity(L, self.dim)
        if twist == "flip":
            flip = self.weights.index(0) + 1
            signs = [-1 if a == flip else 1 for a in range(self.dim)]
            return mat_diagonal(L, [Cyc.rational(L, s) for s in signs])
        return self.structure_map_matrix(L)

    def mode_project(self, x, n: int):
        """Projection onto the twist eigenspace of mode n (trivial twist: identity)."""
        if self.n_psi == 1:
            return x
        return _half_sum(x, self.psi_tilde(x), 1 if n % 2 == 0 else -1)

    def in_mode(self, x: ModeMatrix, n: int) -> bool:
        return self.n_psi == 1 or self.psi_tilde(x) == (x if n % 2 == 0 else -x)

    # -- structure map for the K=H / antiunitary families -----------------------

    def structure_map_matrix(self, L: int) -> Matrix:
        """Linear part T of the standard antilinear structure map (v -> T conj(v)).

        The pairing Q: C1/C2 the quaternionic map with T e+ = e-, T e- = -e+;
        BC2 the symmetric exchange fixing the zero vector.  Other kinds have none.
        """
        if self.kind.structure is None:
            raise ValueError(f"kind {self.lars} carries no antilinear structure map")
        pair, sign = self.pairing
        cols = [(pair[a], Cyc.rational(L, sign[a])) for a in range(self.dim)]
        z = Cyc.zero(L)
        return tuple(tuple(v if row == i else z for row, v in cols) for i in range(self.dim))

    # -- forms and decompositions ------------------------------------------------

    def bilinear_form(self, x: ModeMatrix, y: ModeMatrix) -> Cyc:
        """B(x, y) = -scale * tr(xy): the invariant bilinear extension of the real form."""
        return Cyc.rational(x.L, -self.form_scale) * x.trace_product(y)

    def hermitian_form(self, x: Matrix, y: Matrix) -> Cyc:
        """<x, y> = scale * tr(x y*), antilinear in y."""
        L = x[0][0].L
        acc = Cyc.zero(L)
        d = self.dim
        for i in range(d):
            for j in range(d):
                if x[i][j] and y[i][j]:
                    acc = acc + x[i][j] * y[i][j].conj()
        return Cyc.rational(L, self.form_scale) * acc

    def weight_components(self, x: Matrix) -> list[tuple[Root | None, Matrix]]:
        """Split a matrix into its Cartan-weight components; their sum is x."""
        L = x[0][0].L
        d = self.dim
        buckets: dict[tuple, list] = {}
        for i in range(d):
            for j in range(d):
                if x[i][j]:
                    buckets.setdefault(self.entry_weight(i, j), []).append((i, j, x[i][j]))
        out = []
        for w in sorted(buckets):
            m = [[Cyc.zero(L)] * d for _ in range(d)]
            for i, j, v in buckets[w]:
                m[i][j] = v
            out.append((Root(w) if w else None, tuple(tuple(row) for row in m)))
        return out

    def _weight_units(self, L: int, a: Root):
        """The off-diagonal matrix units of weight a."""
        return (
            self.basis_matrix(L, i, j)
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j and self.entry_weight(i, j) == a.coeffs
        )

    def root_space_basis(self, L: int, a: Root, residue: int) -> list[Matrix]:
        """Basis of the weight-a, mode-residue component of the model algebra."""
        return span_basis(
            self.mode_project(self.algebra_project(u), residue) for u in self._weight_units(L, a)
        )

    @lru_cache(maxsize=None)
    def weight_space_basis(self, L: int, a: Root) -> "Span":
        """Basis of the full weight-a space (no mode projection), built once per L and a."""
        return Span(self, span_basis(self.algebra_project(u) for u in self._weight_units(L, a)))

    @lru_cache(maxsize=None)
    def cartan_basis(self, L: int) -> "Span":
        """Basis of the Cartan: the projected diagonal matrix units, built once per L."""
        d = range(self.dim)
        return Span(self, span_basis(self.algebra_project(self.basis_matrix(L, i, i)) for i in d))

    @lru_cache(maxsize=None)
    def centralizer_basis(self, L: int) -> "Span":
        """Basis of the zero-weight space, which contains the Cartan's centralizer, built once per L."""
        d = range(self.dim)
        units = (self.basis_matrix(L, i, j) for i in d for j in d if not self.entry_weight(i, j))
        return Span(self, span_basis(self.algebra_project(u) for u in units))


class Span(tuple):
    """A basis, as a tuple of matrices, of a psi~-stable span of one weight in a model algebra.

    ``split`` is the pair (plus, minus) of psi~'s +1 and -1 eigenvectors on the
    span: with P the matrix of psi~ in basis coordinates, one combination of the
    basis per vector of ``nullspace(P - 1)`` and of ``nullspace(P + 1)``.
    ``support`` is the set of positions (i, j) where some basis matrix is
    nonzero.  Both are computed on first use and kept with the basis, which the
    model caches.
    """

    def __new__(cls, model: StandardModel, matrices):
        span = super().__new__(cls, matrices)
        span.model = model
        return span

    @cached_property
    def support(self) -> frozenset:
        return frozenset(
            (i, j) for b in self for i, row in enumerate(b) for j, c in enumerate(row) if c
        )

    @cached_property
    def split(self) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
        n = len(self)
        flat = [tuple(c for row in b for c in row) for b in self]
        images = [tuple(c for row in self.model.psi_tilde(b) for c in row) for b in self]
        # one elimination of the basis with every image appended: P[i][j] is
        # coordinate i of psi~(basis[j]); psi~ keeps the span, so nothing is left over
        red, pivots, _ = row_reduce([[*f, *g] for f, g in zip(zip(*flat), zip(*images))], n)
        if pivots != list(range(n)) or any(any(row[n:]) for row in red[n:]):
            raise ValueError("psi~ does not preserve the span of the basis")
        p = [row[n:] for row in red[:n]]
        pieces = []
        for sign in (1, -1):
            shifted = [[x - sign if i == j else x for j, x in enumerate(row)] for i, row in enumerate(p)]
            pieces.append(tuple(
                reduce(mat_add, (b if cf == 1 else mat_scale(cf, b) for cf, b in zip(x, self) if cf))
                for x in nullspace(shifted)
            ))
        return pieces[0], pieces[1]


def _signed(x, table):
    """The signed permutation of entries given by table[i][j] = (a, b, s): entry (i, j) is s * x[a][b].

    Every table here is an involution, so a ModeMatrix moves its entry (i, j) by the same table.
    """
    if isinstance(x, ModeMatrix):
        return x.permuted(table)
    return tuple(tuple(-x[a][b] if s < 0 else x[a][b] for a, b, s in row) for row in table)


def _half_sum(x, y, sign: int):
    """(x + sign * y) / 2 for two matrices of one type."""
    if isinstance(x, ModeMatrix):
        return (x + (y if sign == 1 else -y)).scale(Fraction(1, 2))
    return mat_scale(Cyc.rational(x[0][0].L, Fraction(1, 2)), mat_add(x, y) if sign == 1 else mat_sub(x, y))


def span_basis(matrices) -> list[Matrix]:
    """A basis of the span of the matrices: each one nonzero and outside the earlier ones' span."""
    basis: list[Matrix] = []
    flat: list[tuple] = []
    for v in matrices:
        f = tuple(c for row in v for c in row)
        if any(f) and not in_span(flat, f):
            basis.append(v)
            flat.append(f)
    return basis


@lru_cache(maxsize=None)
def standard_model(lars: str, rank: int) -> StandardModel:
    return StandardModel(lars, rank)


def model_mode_residues(model: StandardModel, a: Root) -> tuple:
    """Residues mod n_psi at which the root's space is nonzero, from the realization."""
    res, step = admissible_mode_step(model.lars, a)
    if model.n_psi == 1:
        return (0,)
    if step == 1:
        return (0, 1)
    return (res % 2,)
