import cmath
import random
import sys
from fractions import Fraction as Q
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistaff import DomainError, cyclo
from twistaff.cyclo import (
    Cyc,
    conductor_degree,
    cyc_sqrt,
    cyclotomic_polynomial,
    ModeMatrix,
    mat_inverse,
    mat_mul,
    row_reduce,
    sqrt_conductor,
    working_conductor,
)

from elimination import det, in_span, nullspace, solve
from sympy_reference import sympy_sqrt


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_root_of_unity_arithmetic():
    for L in (4, 8, 12, 24):
        z = Cyc.zeta(L)
        assert z ** L == Cyc.one(L)
        assert z ** (L // 2) == Cyc.rational(L, -1)
        i = Cyc.i(L)
        assert i * i == Cyc.rational(L, -1)
        assert i.conj() == -i


def test_field_operations():
    L = 8
    a = Cyc.rational(L, Q(3, 7)) + Cyc.zeta(L) * 2 - Cyc.zeta(L, 3)
    assert a * a.inverse() == Cyc.one(L)
    assert (a + (-a)).is_zero()
    assert a.conj().conj() == a
    assert (a * a.conj()).is_real()
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(L).inverse()


def test_sqrt2_and_rational_sqrts():
    s2 = Cyc.sqrt2(8)
    assert s2 * s2 == Cyc.rational(8, 2)
    assert cyc_sqrt(Cyc.rational(8, Q(9, 4))) == Cyc.rational(8, Q(3, 2))
    for L, q in ((12, 3), (24, 6), (40, 10)):
        s = cyc_sqrt(Cyc.rational(L, q))
        assert s * s == Cyc.rational(L, q)
    assert cyc_sqrt(Cyc.rational(8, 3)) is None  # sqrt(3) needs 12 | L


def test_in_field_sqrt():
    L = 8
    a = Cyc.rational(L, Q(3, 5)) + Cyc.zeta(L).__mul__(Q(4, 5))
    r = cyc_sqrt(a * a)
    assert r == a or r == -a
    assert cyc_sqrt(Cyc.one(L) + Cyc.zeta(L)) is None
    assert cyc_sqrt(Cyc.rational(L, Q(49, 121))) == Cyc.rational(L, Q(7, 11))


def test_rational_sqrt_is_exact_beyond_float_precision(monkeypatch):
    n = 10**30 + 7  # n * n is not a float square
    assert cyclo._isqrt_exact(n * n) == n
    assert cyclo._isqrt_exact(n * n + 1) is None
    assert cyclo._isqrt_exact(10**400) == 10**200  # above the float range
    assert cyclo._isqrt_exact(-4) is None
    monkeypatch.setitem(sys.modules, "sympy", None)  # importing sympy now fails
    assert cyc_sqrt(Cyc.rational(4, Q(n * n, 10**400))) == Cyc.rational(4, Q(n, 10**200))


def test_conductor_lift_embeds_roots_of_unity():
    a = Cyc.zeta(8, 3)
    b = a.lift(24)
    assert b == Cyc.zeta(24, 9)
    c = Cyc.rational(8, Q(2, 3)) + Cyc.i(8)
    cl = c.lift(40)
    assert cl * cl.inverse() == Cyc.one(40)


def test_dense_inverse_at_a_large_conductor(time_limit):
    L = 328  # phi(L) = 160
    rng = random.Random(0)
    x = Cyc(L, tuple(rng.randint(-4, 4) for _ in range(conductor_degree(L))), 5)
    with time_limit(5):
        y = x.inverse()
        assert x * y == Cyc.one(L)


def test_rational_inverse_at_a_large_conductor():
    L = 472
    for q in (Q(7, 3), Q(-1, 12), 5):
        assert Cyc.rational(L, q).inverse() == Cyc.rational(L, 1 / Q(q))


def test_working_conductor():
    assert working_conductor(4, 2) == 4
    assert working_conductor(4, 4) == 4
    assert working_conductor(4, 6) == 12
    assert working_conductor(8, 12) == 24
    with pytest.raises(DomainError, match="needs conductor 960, above MAX_CONDUCTOR = 480"):
        working_conductor(480, 960)


def mat_from_rows(L, rows):
    return ModeMatrix.from_rows(L, rows).to_rows()


def mat_identity(L, n):
    return ModeMatrix.identity(L, n).to_rows()


def test_matrix_inverse_and_adjoint():
    L = 8
    m = mat_from_rows(L, [[1, Q(1, 2)], [Q(-1, 3), 1]])
    assert mat_mul(m, mat_inverse(m)) == mat_identity(L, 2)
    u = ModeMatrix.from_rows(L, [[0, 1], [-1, 0]])
    assert u @ u.conj_transpose() == ModeMatrix.identity(L, 2)


def test_galois_fixes_rationals():
    L = 12
    a = Cyc.rational(L, Q(5, 9))
    for k in (5, 7, 11):
        assert a.galois(k) == a
    z = Cyc.zeta(L)
    assert z.galois(5) == Cyc.zeta(L, 5)


def _kernel_matrix(L):
    """A nonsingular 3x3 matrix whose first pivot sits below the diagonal."""
    z, i = Cyc.zeta(L), Cyc.i(L)
    return mat_from_rows(L, [[0, z, 2], [i + 1, Q(1, 3), z * z], [1, 0, -i]])


def _apply(m, x):
    return tuple(sum((a * b for a, b in zip(row, x)), Cyc.zero(m[0][0].L)) for row in m)


@pytest.mark.parametrize("L", [4, 12, 24])
def test_elimination_kernel_inverse_and_solve(L):
    a = _kernel_matrix(L)
    assert mat_mul(mat_inverse(a), a) == mat_identity(L, 3)
    assert mat_mul(a, mat_inverse(a)) == mat_identity(L, 3)
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(mat_from_rows(L, [[1, 2], [2, 4]]))
    # targets inside a span: the coefficients rebuild the target
    u = (Cyc.one(L), Cyc.zeta(L), Cyc.zero(L), Cyc.i(L))
    v = (Cyc.zero(L), Cyc.rational(L, 2), Cyc.zeta(L, 3), Cyc.zero(L))
    w = tuple(Cyc.rational(L, Q(1, 2)) * p - Cyc.zeta(L) * q for p, q in zip(u, v))
    x = solve([u, v], w)
    assert x == [Cyc.rational(L, Q(1, 2)), -Cyc.zeta(L)]
    assert in_span([u, v], w) and in_span([u, v, w], v)
    # a dependent spanning set still gives some exact solution
    y = solve([u, v, w], w)
    assert _apply(tuple(zip(u, v, w)), y) == w
    # targets outside a span
    e4 = (Cyc.zero(L),) * 3 + (Cyc.one(L),)
    assert solve([u, v], e4) is None and not in_span([u, v, w], e4)
    assert not in_span([], u)
    # square systems: solve(columns of a, b) inverts a
    b = (Cyc.one(L), Cyc.zero(L), Cyc.zeta(L))
    cols = list(zip(*a))
    assert _apply(a, tuple(solve(cols, b))) == b


@pytest.mark.parametrize("L", [4, 12, 24])
def test_elimination_kernel_nullspace_and_det(L):
    z, i = Cyc.zeta(L), Cyc.i(L)
    # rank 1: the third row is a multiple of the first, the second is zero
    sing = mat_from_rows(L, [[1, z, 2], [0, 0, 0], [i, i * z, 2 * i]])
    null = nullspace(sing)
    assert len(null) == 2
    zero3 = (Cyc.zero(L),) * 3
    assert all(_apply(sing, x) == zero3 for x in null)
    assert solve(null, zero3) == [Cyc.zero(L)] * 2  # independent
    rank2 = mat_from_rows(L, [[1, 0, z], [0, 1, 1], [1, 1, z + 1]])
    (x,) = nullspace(rank2)
    assert _apply(rank2, x) == zero3 and any(x)
    assert nullspace(_kernel_matrix(L)) == []
    # the kernel's own result is in reduced row echelon form
    for m in (sing, rank2, _kernel_matrix(L)):
        red, pivots, _ = row_reduce(m)
        for r, col in enumerate(pivots):
            unit = [Cyc.one(L) if i == r else Cyc.zero(L) for i in range(3)]
            assert [row[col] for row in red] == unit
        assert all(not any(row) for row in red[len(pivots):])
    assert det(sing) == Cyc.zero(L) and det(rank2) == Cyc.zero(L)
    # closed-form 2x2 reference, with and without a row swap
    for a, b, c, d in ((z, 2, i, Q(1, 3)), (0, z + i, 3, 1), (1, z, z, z * z)):
        m = mat_from_rows(L, [[a, b], [c, d]])
        assert det(m) == m[0][0] * m[1][1] - m[0][1] * m[1][0]
    # the determinant is multiplicative and inverts with the matrix
    a = _kernel_matrix(L)
    assert det(mat_inverse(a)) * det(a) == Cyc.one(L)
    assert det(mat_mul(a, a)) == det(a) * det(a)


# -- properties of rational square roots ------------------------------------

SQRT_CONDUCTORS = (4, 8, 12, 24, 40)


def embed(x):
    """x as a complex number, with zeta_L = exp(2 pi i / L)."""
    return sum(c * cmath.exp(2j * cmath.pi * k / x.L) for k, c in enumerate(x.num)) / x.den


@st.composite
def rationals(draw):
    """Nonzero rationals whose numerators and denominators mix the primes 2, 3, 5, 7, 11."""
    num = draw(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 11, 15, 30))) * draw(st.integers(1, 6)) ** 2
    den = draw(st.sampled_from((1, 2, 3, 5, 7, 8, 9, 12)))
    return draw(st.sampled_from((1, -1))) * Q(num, den)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SQRT_CONDUCTORS), rationals())
def test_rational_sqrt_exists_exactly_when_sympy_finds_one(L, q):
    x = Cyc.rational(L, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "sympy", None)
        root = cyc_sqrt(x)
    assert (root is None) == (sympy_sqrt(x) is None)
    if root is not None:
        assert root * root == x
        # the positive real root for q > 0, and i times it for q < 0
        value = embed(root) / (1 if q > 0 else 1j)
        assert abs(value.imag) < 1e-9 and value.real > 0
        assert (root if q > 0 else root * Cyc.i(L).conj()).is_real()


#: conductors whose phi(L) is a power of two, so the quadratic subfields reach Q
TOWER_CONDUCTORS = (4, 8, 12, 16, 20, 24, 40, 48, 60, 80)


@st.composite
def elements(draw, conductors):
    """An element of Q(zeta_L) with a few small terms, at a conductor drawn from the given ones."""
    L = draw(st.sampled_from(conductors))
    terms = draw(st.lists(st.tuples(st.integers(0, L - 1), st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=4))
    return sum((Cyc.zeta(L, k) * Q(a, b) for k, a, b in terms), Cyc.zero(L))


@settings(max_examples=80, deadline=None)
@given(elements(TOWER_CONDUCTORS))
@example(3 * Cyc.zeta(16, 2) - 3 * Cyc.zeta(16, 6))  # y = 3 sqrt(2), whose top coefficient is -3
def test_tower_sqrt_recovers_a_square_up_to_sign(y):
    if y.is_rational():
        return
    x = y * y
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "sympy", None)
        root = cyc_sqrt(x)
    assert root in (y, -y)
    if x.is_rational():
        # a rational x takes the rational path: the positive real root for x > 0, i times it for x < 0
        value = embed(root) / (1 if x.num[0] > 0 else 1j)
        assert abs(value.imag) < 1e-9 and value.real > 0
        assert (root if x.num[0] > 0 else root * Cyc.i(x.L).conj()).is_real()
    else:
        # the tower's sign rule: the highest-power nonzero coefficient is positive
        assert [c for c in root.num if c][-1] > 0


@settings(max_examples=30, deadline=None)
@given(elements((4, 8, 12, 16, 20, 24)), st.booleans())
def test_tower_sqrt_agrees_with_sympy(y, square):
    """The same root, sign included, or None for both, on squares and on other elements."""
    x = y * y if square else y
    if x.is_rational():
        return
    assert cyc_sqrt(x) == sympy_sqrt(x)


def test_tower_sqrt_refuses_an_odd_degree_field():
    # phi(28) = 12: below the quadratic subfields of Q(zeta_28) lies the cubic field of zeta_7 + 1/zeta_7
    x = Cyc.zeta(28, 4) + Cyc.zeta(28, -4)
    with pytest.raises(DomainError, match="conductor 28"):
        cyc_sqrt(x)


@pytest.mark.parametrize("L", SQRT_CONDUCTORS)
def test_huge_nonsquare_rational_is_refused_at_once(L, time_limit):
    # 7 is prime to every conductor here, so no Gauss sum supplies sqrt(7)
    with time_limit(2):
        assert cyc_sqrt(Cyc.rational(L, 7 * 10**400 + 7)) is None
        assert cyc_sqrt(Cyc.rational(L, Q(-7 * 10**400, 3**401))) is None
        root = cyc_sqrt(Cyc.rational(L, Q(10**400, 4**401)))
    assert root == Cyc.rational(L, Q(10**200, 2**401))


#: the SQRT_PRIMES test's conductors: every one divides MAX_CONDUCTOR = 480 = 2^5 3 5
SQRT_FIELD_CONDUCTORS = (4, 8, 12, 24, 40, 120, 480)


def trial_division_sqrt_conductor(L, q):
    """lcm(L, 4 * the squarefree part of |q|) by full trial division, or None past 480."""
    m, core, p = abs(q.numerator) * q.denominator, 1, 2
    while m > 1:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        core *= p ** (e % 2)
        p += 1
    c = lcm(L, 4 * core)
    return c if c <= 480 else None


@st.composite
def signed_rationals(draw):
    """Nonzero rationals over primes within SQRT_PRIMES (up to 113) and past it (127, 131)."""
    primes = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 29, 113, 127, 131)), max_size=3)
    num = prod(draw(primes)) * draw(st.integers(1, 6)) ** 2
    den = prod(draw(primes)) * draw(st.integers(1, 4)) ** 2
    return draw(st.sampled_from((1, -1))) * Q(num, den)


def test_sqrt_primes_are_the_primes_within_a_quarter_of_the_bound():
    assert cyclo.SQRT_PRIMES == tuple(p for p in range(2, 121) if all(p % d for d in range(2, p)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SQRT_FIELD_CONDUCTORS), signed_rationals())
def test_sqrt_conductor_is_the_least_field_holding_the_root(L, q):
    x = Cyc.rational(L, q)
    c = sqrt_conductor(x)
    assert c == trial_division_sqrt_conductor(L, q)
    assert (cyc_sqrt(x) is not None) == (c == L)
    if q > 0 and c is not None:
        big = x.lift(c)
        root = cyc_sqrt(big)
        assert root * root == big


# -- field properties of Cyc ---------------------------------------------------

FIELD_CONDUCTORS = (4, 8, 12, 24, 40)  # (Z/40)^x is not cyclic


@st.composite
def field_elements(draw, L, count):
    """count scalars of Q(zeta_L) with small coefficients over small denominators."""
    phi = conductor_degree(L)
    return [
        Cyc(L, tuple(draw(st.integers(-4, 4)) for _ in range(phi)), draw(st.integers(1, 6)))
        for _ in range(count)
    ]


@st.composite
def triples(draw):
    L = draw(st.sampled_from(FIELD_CONDUCTORS))
    return L, draw(field_elements(L, 3))


@settings(max_examples=60, deadline=None)
@given(triples())
def test_field_axioms(data):
    L, (a, b, c) = data
    zero, one = Cyc.zero(L), Cyc.one(L)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == one
        assert (b / a) * a == b
        assert a.inverse().inverse() == a


@settings(max_examples=60, deadline=None)
@given(triples(), st.integers(1, 200))
def test_galois_and_conj_are_automorphisms(data, k):
    L, (a, b, _) = data
    units = [u for u in range(1, L) if gcd(u, L) == 1]
    g, h = units[k % len(units)], units[(3 * k) % len(units)]
    for sigma in (lambda x: x.galois(g), Cyc.conj):
        assert sigma(a + b) == sigma(a) + sigma(b)
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma(Cyc.one(L)) == Cyc.one(L)
        if not a.is_zero():
            assert sigma(a.inverse()) == sigma(a).inverse()
    assert a.galois(g).galois(h) == a.galois(g * h % L)
    assert a.conj() == a.galois(L - 1) and a.conj().conj() == a
    assert (a * a.conj()).is_real()


@settings(max_examples=60, deadline=None)
@given(triples(), st.sampled_from((2, 3, 5)))
def test_lift_is_a_homomorphism(data, factor):
    L, (a, b, _) = data
    L2 = L * factor

    def up(x):
        return x.lift(L2)

    assert up(a + b) == up(a) + up(b)
    assert up(a * b) == up(a) * up(b)
    assert up(Cyc.one(L)) == Cyc.one(L2)
    assert up(Cyc.zeta(L)) == Cyc.zeta(L2, factor)
    if not a.is_zero():
        assert up(a.inverse()) == up(a).inverse()
    assert up(a.conj()) == up(a).conj()
