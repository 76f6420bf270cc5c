from fractions import Fraction as Q

import pytest

from twistaff import cyclo
from twistaff.cyclo import (
    Cyc,
    cyc_sqrt,
    cyclotomic_polynomial,
    mat_conj_transpose,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_inverse,
    mat_mul,
    sqrt_rational,
    working_conductor,
)


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
    assert sqrt_rational(8, Q(9, 4)) == Cyc.rational(8, Q(3, 2))
    s3 = sqrt_rational(12, 3)
    assert s3 * s3 == Cyc.rational(12, 3)
    s6 = sqrt_rational(24, 6)
    assert s6 * s6 == Cyc.rational(24, 6)
    s10 = sqrt_rational(40, 10)
    assert s10 * s10 == Cyc.rational(40, 10)


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

    def no_sympy(L):
        raise AssertionError("a rational square took the sympy path")

    monkeypatch.setattr(cyclo, "_sympy_field", no_sympy)
    assert cyc_sqrt(Cyc.rational(4, Q(n * n, 10**400))) == Cyc.rational(4, Q(n, 10**200))


def test_conductor_lift_embeds_roots_of_unity():
    a = Cyc.zeta(8, 3)
    b = a.lift(24)
    assert b == Cyc.zeta(24, 9)
    c = Cyc.rational(8, Q(2, 3)) + Cyc.i(8)
    cl = c.lift(40)
    assert cl * cl.inverse() == Cyc.one(40)


def test_working_conductor():
    assert working_conductor(1) == 4
    assert working_conductor(2) == 4
    assert working_conductor(3) == 12
    assert working_conductor(6, sqrt2=True) == 24


def test_matrix_inverse_and_adjoint():
    L = 8
    m = mat_from_rows(L, [[1, Q(1, 2)], [Q(-1, 3), 1]])
    assert mat_eq(mat_mul(m, mat_inverse(m)), mat_identity(L, 2))
    u = mat_from_rows(L, [[0, 1], [-1, 0]])
    assert mat_eq(mat_mul(u, mat_conj_transpose(u)), mat_identity(L, 2))


def test_galois_fixes_rationals():
    L = 12
    a = Cyc.rational(L, Q(5, 9))
    for k in (5, 7, 11):
        assert a.galois(k) == a
    z = Cyc.zeta(L)
    assert z.galois(5) == Cyc.zeta(L, 5)
