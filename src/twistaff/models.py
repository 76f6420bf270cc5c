"""Finite matrix models of the seven standard twisted algebras.

Each model fixes a basis layout for the underlying Hilbert space truncation:
a block of "plus" vectors carrying weight +eps_j, a mirrored "minus" block
with weight -eps_j, and up to two weight-zero vectors.  The model knows the
defining involution of its matrix algebra, the order-2 twist when there is
one, the antilinear structure map for the quaternionic/antiunitary cases,
and the scale of its trace form (fixed so that the E_j are orthonormal).
Root-space and weight-space bases are the independent projections of matrix
units, picked by ``span_basis`` through the ``cyclo`` span test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .affine import BASE_OF, admissible_mode_step, twist_order_of
from .cyclo import Cyc, Matrix, in_span, mat_add, mat_scale, mat_sub
from .rootdata import Root, RootSystem


@dataclass(frozen=True)
class StandardModel:
    lars: str
    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")

    # -- layout --------------------------------------------------------------

    @property
    def dim(self) -> int:
        r = self.rank
        return {
            "A1": r,
            "B1": 2 * r + 1,
            "C1": 2 * r,
            "D1": 2 * r,
            "B2": 2 * r + 2,
            "C2": 2 * r,
            "BC2": 2 * r + 1,
        }[self.lars]

    @property
    def n_psi(self) -> int:
        return twist_order_of(self.lars)

    @property
    def base(self) -> RootSystem:
        return RootSystem(BASE_OF[self.lars], self.rank)

    @property
    def form_scale(self) -> Fraction:
        # fixed so that <E_j, E_k> = delta_jk
        return Fraction(1) if self.lars == "A1" else Fraction(1, 2)

    def plus_index(self, j: int) -> int:
        return j - 1

    def minus_index(self, j: int) -> int:
        r = self.rank
        off = {"B1": r + 1, "C1": r, "D1": r, "B2": r + 2, "C2": r, "BC2": r + 1}[self.lars]
        return off + j - 1

    def zero_indices(self) -> tuple:
        r = self.rank
        if self.lars in ("B1", "BC2"):
            return (r,)
        if self.lars == "B2":
            return (r, r + 1)
        return ()

    def weight_of_basis(self, a: int) -> int:
        """Signed index: +j / -j for weight +-eps_j, 0 for weight zero."""
        r = self.rank
        if self.lars == "A1":
            return a + 1
        if a < r:
            return a + 1
        zeros = self.zero_indices()
        if a in zeros:
            return 0
        return -(a - self.minus_index(1) + 1)

    def entry_weight(self, a: int, b: int) -> tuple:
        """Sparse eps-coordinates of the weight of the matrix unit E_ab."""
        out: dict[int, int] = {}
        for idx, s in ((self.weight_of_basis(a), 1), (self.weight_of_basis(b), -1)):
            if idx:
                out[abs(idx)] = out.get(abs(idx), 0) + (s if idx > 0 else -s)
        return tuple(sorted((j, c) for j, c in out.items() if c))

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
        z = Cyc.zero(L)
        one = Cyc.one(L)
        d = self.dim
        diag = [z] * d
        diag[self.plus_index(j)] = one
        if self.lars != "A1":
            diag[self.minus_index(j)] = -one
        return tuple(tuple(diag[i] if i == k else z for k in range(d)) for i in range(d))

    def _pair(self, a: int) -> int:
        """Pairing index a <-> mirror(a) for the bilinear structure; zeros are self-paired."""
        w = self.weight_of_basis(a)
        if w > 0:
            return self.minus_index(w)
        if w < 0:
            return self.plus_index(-w)
        return a

    def _paired_transpose(self, x: Matrix, symplectic: bool) -> Matrix:
        """-Q x^T Q^-1 for the pairing Q: the exchange e+ <-> e- fixing the zero
        vectors, or with symplectic set the map Q e+ = e-, Q e- = -e+."""
        d = self.dim
        pair = [self._pair(a) for a in range(d)]
        if not symplectic:
            return tuple(tuple(-x[pair[j]][pair[i]] for j in range(d)) for i in range(d))
        plus = [self.weight_of_basis(a) > 0 for a in range(d)]
        return tuple(
            tuple(
                -x[pair[j]][pair[i]] if plus[i] == plus[j] else x[pair[j]][pair[i]]
                for j in range(d)
            )
            for i in range(d)
        )

    def _tau(self, x: Matrix) -> Matrix:
        """Defining involution of the matrix algebra; fixed points form the model algebra."""
        if self.lars in ("A1", "C2", "BC2"):
            return x  # full gl, no constraint
        # sp type (C1) for the symplectic pairing, o type (B1, D1, B2) for the exchange
        return self._paired_transpose(x, symplectic=self.lars == "C1")

    def in_algebra(self, x: Matrix) -> bool:
        t = self._tau(x)
        return all(t[i][j] == x[i][j] for i in range(self.dim) for j in range(self.dim))

    def algebra_project(self, x: Matrix) -> Matrix:
        if self.lars in ("A1", "C2", "BC2"):
            return x
        half = Cyc.rational(x[0][0].L, Fraction(1, 2))
        return mat_scale(half, mat_add(x, self._tau(x)))

    def psi_tilde(self, x: Matrix) -> Matrix:
        """The complex-linear extension of the standard order-2 twist."""
        d = self.dim
        if self.n_psi == 1:
            return x
        if self.lars == "B2":
            # conjugation by the reflection that negates the second zero vector
            flip = self.zero_indices()[1]
            out = [
                [(-x[i][j] if (i == flip) != (j == flip) else x[i][j]) for j in range(d)]
                for i in range(d)
            ]
            return tuple(tuple(row) for row in out)
        # C2: x -> S x^T S for the symplectic S; BC2: x -> -S x^T S for the exchange S
        return self._paired_transpose(x, symplectic=self.lars == "C2")

    def mode_project(self, x: Matrix, n: int) -> Matrix:
        """Projection onto the twist eigenspace of mode n (trivial twist: identity)."""
        if self.n_psi == 1:
            return x
        half = Cyc.rational(x[0][0].L, Fraction(1, 2))
        px = self.psi_tilde(x)
        if n % 2 == 0:
            return mat_scale(half, mat_add(x, px))
        return mat_scale(half, mat_sub(x, px))

    def in_mode(self, x: Matrix, n: int) -> bool:
        if self.n_psi == 1:
            return True
        px = self.psi_tilde(x)
        want = px if n % 2 == 0 else tuple(tuple(-c for c in row) for row in px)
        return all(want[i][j] == x[i][j] for i in range(self.dim) for j in range(self.dim))

    # -- structure map for the K=H / antiunitary families -----------------------

    def structure_map_matrix(self, L: int) -> Matrix:
        """Linear part T of the standard antilinear structure map (v -> T conj(v)).

        C1/C2: the quaternionic map with T e+ = e-, T e- = -e+; BC2: the
        symmetric exchange fixing the zero vector.  Other kinds have none.
        """
        if self.lars not in ("C1", "C2", "BC2"):
            raise ValueError(f"kind {self.lars} carries no antilinear structure map")
        d = self.dim
        z = Cyc.zero(L)
        one = Cyc.one(L)
        out = [[z] * d for _ in range(d)]
        for a in range(d):
            w = self.weight_of_basis(a)
            if w > 0:
                out[self.minus_index(w)][a] = one
            elif w < 0:
                out[self.plus_index(-w)][a] = -one if self.lars in ("C1", "C2") else one
            else:
                out[a][a] = one
        return tuple(tuple(row) for row in out)

    # -- forms and decompositions ------------------------------------------------

    def bilinear_form(self, x: Matrix, y: Matrix) -> Cyc:
        """B(x, y) = -scale * tr(xy): the invariant bilinear extension of the real form."""
        L = x[0][0].L
        acc = Cyc.zero(L)
        d = self.dim
        for i in range(d):
            for j in range(d):
                if x[i][j] and y[j][i]:
                    acc = acc + x[i][j] * y[j][i]
        return Cyc.rational(L, -self.form_scale) * acc

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

    def weight_space_basis(self, L: int, a: Root) -> list[Matrix]:
        """Basis of the full weight-a space of the model algebra (no mode projection)."""
        return span_basis(self.algebra_project(u) for u in self._weight_units(L, a))


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
