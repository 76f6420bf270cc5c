"""Eigenprojectors of a finite-order matrix built as matrices, kept as test references.

``spectral_sum`` builds P_k = (1/m) sum_j zeta^(-jk) a^j, zeta the primitive
m-th root, by matrix sums and scalings.  ``kernel_projectors`` builds the same
projectors through the product kernel, one call each, from the powers
a^1, ..., a^m multiplied out again.  The normalization reads its eigenspaces
off one power walk instead (``autnorm._Powers``); both references share none
of that index arithmetic.  ``powers_of`` hands a matrix's own power walk to
the eigenspace builder, and ``projector`` lays an eigenspace's columns out as
its matrix.
"""

from fractions import Fraction

from twistaff.autnorm import _power_walk, _Powers
from twistaff.cyclo import Cyc, ModeMatrix, mat_product_sum


def spectral_sum(a, m, k):
    """The reference projector (1/m) sum_j zeta^(-jk) a^j, zeta the primitive m-th root, by
    matrix sums and scalings."""
    L = a.L
    power = acc = ModeMatrix.identity(L, len(a.rows))
    for j in range(1, m):
        power = power @ a
        acc = acc + power.scale(Cyc.zeta(L, -j * k * (L // m)))
    return acc.scale(Fraction(1, m))


def kernel_projectors(a, m, exponents=None):
    """(k, P_k) for the given exponents (all of 0, ..., m - 1 by default) with P_k nonzero,
    each one product-kernel call over the scalar matrices zeta^e / m and the powers a^j."""
    L, d = a.L, len(a.rows)
    powers = [ModeMatrix.identity(L, d)]
    for _ in range(m):
        powers.append(powers[-1] @ a)
    assert powers.pop() == powers[0], "a^m != 1"
    phases = [ModeMatrix(L, d, m, [{i: Cyc.zeta(L, e * (L // m)).num} for i in range(d)]) for e in range(m)]
    projs = (
        (k, mat_product_sum((1, phases[-j * k % m], x) for j, x in enumerate(powers)))
        for k in (range(m) if exponents is None else exponents)
    )
    return [(k, p) for k, p in projs if p]


def powers_of(a):
    """The powers of a from its own power walk: a^k = zeta_L^e for the walk's k, at a's conductor L."""
    _, scalar, walk = _power_walk(a)
    e = next(e for e in range(a.L) if Cyc.zeta(a.L, e) == scalar)
    return _Powers(walk, scalar=Fraction(e, a.L))


def projector(space):
    """The eigenprojector whose columns the eigenspace yields."""
    return ModeMatrix.from_columns(list(space))
