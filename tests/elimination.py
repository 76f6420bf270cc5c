"""Readings of the Gauss-Jordan kernel ``cyclo.row_reduce``, kept as test references.

``solve``, ``in_span``, ``nullspace``, ``rank`` and ``det`` read its result.  On top
of them, ``span_basis`` and ``split`` compute a model span's basis and its
psi~ eigen-split by elimination over the entries of the matrices, for any
input; ``models`` reads both off signed-permutation orbits, and its results
must equal these in value and in the key order of every row.
"""

from functools import reduce
from itertools import chain
from operator import add

from twistaff.cyclo import Cyc, row_reduce


def solve(vectors, target):
    """Coefficients x with sum_i x[i] * vectors[i] == target, or None outside their span."""
    k = len(vectors)
    rows = [[v[j] for v in vectors] + [t] for j, t in enumerate(target)]
    red, pivots, _ = row_reduce(rows, k)
    if any(row[k] for row in red[len(pivots):]):
        return None
    x = [Cyc.zero(target[0].L)] * k
    for row, col in zip(red, pivots):
        x[col] = row[k]
    return x


def in_span(vectors, v) -> bool:
    """Exact linear-span membership of the vector v."""
    return solve(vectors, v) is not None


def nullspace(a) -> list[tuple]:
    """A basis of the solutions x of a x = 0, one vector per non-pivot column."""
    ncols = len(a[0])
    L = a[0][0].L
    red, pivots, _ = row_reduce(a)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Cyc.zero(L)] * ncols
        x[free] = Cyc.one(L)
        for row, col in zip(red, pivots):
            x[col] = -row[free]
        out.append(tuple(x))
    return out


def rank(a) -> int:
    """The rank of a matrix given as rows of Cyc."""
    return len(row_reduce(a)[1])


def det(a) -> Cyc:
    """Determinant of a square matrix."""
    _, pivots, d = row_reduce(a)
    return d if len(pivots) == len(a) else Cyc.zero(a[0][0].L)


def flat(x) -> tuple:
    """The entries of a ModeMatrix, row by row, as one vector of Cyc."""
    return tuple(chain.from_iterable(x.to_rows()))


def span_basis(matrices) -> list:
    """A basis of the span of the matrices: each one nonzero and outside the earlier ones' span."""
    basis, flats = [], []
    for v in matrices:
        f = flat(v)
        if v and not in_span(flats, f):
            basis.append(v)
            flats.append(f)
    return basis


def split(span) -> tuple:
    """(plus, minus): one combination of the basis per vector of nullspace(P - 1) and of nullspace(P + 1).

    P[i][j] is coordinate i of psi~(basis[j]), from one elimination of the
    basis with every image appended.
    """
    n = len(span)
    flats = [flat(b) for b in span]
    images = [flat(span.model.psi_tilde(b)) for b in span]
    red, pivots, _ = row_reduce([[*f, *g] for f, g in zip(zip(*flats), zip(*images))], n)
    if pivots != list(range(n)) or any(any(row[n:]) for row in red[n:]):
        raise ValueError("psi~ does not preserve the span of the basis")
    p = [row[n:] for row in red[:n]]
    pieces = []
    for sign in (1, -1):
        shifted = [[x - sign if i == j else x for j, x in enumerate(row)] for i, row in enumerate(p)]
        pieces.append(tuple(
            reduce(add, (b if cf == 1 else b.scale(cf) for cf, b in zip(x, span) if cf))
            for x in nullspace(shifted)
        ))
    return pieces[0], pieces[1]
