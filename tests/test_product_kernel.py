"""Properties of `ModeMatrix`, its sparse schoolbook product kernel and the loop bracket.

Every reference is written with plain `Cyc` operations and shares no code
with the kernel or with `twistaff.loopalg`; the conjugates are sums of
conjugated roots of unity, so they share no Galois map with `Cyc.conj`
either.  The structural `ModeMatrix`
operations must equal the entrywise references below (`from_columns` must
undo `columns`, and `from_entries` must equal `from_rows` of the dense grid,
explicit zeros included), `mat_mul` and
`mat_product_sum` must equal the entrywise sums of products (and refuse
operands of mismatched shapes), and `bracket` must equal the sum
over mode pairs of commutators built entry by entry, plus the derivation
(one factor i (n/N + nu(w_r) - nu(w_c)) per entry) and the trace pairing.
The conductors include 16 and 40, whose Phi_L (x^8 + 1, and degree 16) have
reduction tables of their own.  Denominators are mixed (1, 2, 3, 4, 6), so a
product term that is not rescaled to the common denominator, or a common
denominator that is not a multiple of every operand denominator, changes the
result.  The large-coefficient kernel test draws coefficients up to 2^200 in
size, often all of one sign and of the largest size, and sums that cancel to
zero.  On near-monomial operands (one nonzero coefficient per entry, at
conductors 12, 24 and 40) the product kernel, `conj`, `conj_transpose`,
`lift`, scalar products, Galois maps, roots of unity and `autnorm._hdot` must
equal a reference by long division modulo Phi_L that reads no power table,
and each matrix result must be what the canonicalizing constructor makes of
its own rows, on sums that cancel to zero and sums whose terms share a
content too.  At conductor 4, where `loopalg.bracket_sum` multiplies Gaussian
integers inline (`loopalg._gaussian_sum`), that sum meets the same entrywise
reference on the same operands, and the bracket's derivation coordinates t
include non-rational Gaussian values (i, 1 + i/2).  On the orthogonal and
symplectic kinds, whose conductor-4 brackets take one product per commutator
and fold it by the model's involution P(x) = -Q x^T Q^-1, multi-pair and
Jacobi sums must equal the same reference; a mode matrix x with P(x) other
than its mode's sign times x is refused, a non-standard C2 spec keeps two
products, and the products handed to `_gaussian_sum` are counted.
"""

from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistaff import loopalg
from twistaff.affine import LARS_KINDS, AffinisationSpec, standard_spec
from twistaff.autnorm import _hdot
from twistaff.cyclo import Cyc, ModeMatrix, conductor_degree, cyclotomic_polynomial, mat_mul, mat_product_sum
from twistaff.loopalg import DoubleExtElement, LoopElement, _gaussian_sum, bracket, bracket_sum
from twistaff.models import standard_model
from twistaff.rootdata import Functional, RootSystem

CONDUCTORS = (4, 8, 12, 16, 24, 40)
DENOMINATORS = (1, 2, 3, 4, 6)


@st.composite
def scalars(draw, L, denominators):
    """A scalar with a few small power-basis coefficients over one of the denominators, often zero."""
    if draw(st.integers(0, 2)) == 0:
        return Cyc.zero(L)
    num = [0] * conductor_degree(L)
    for power in draw(st.lists(st.integers(0, len(num) - 1), min_size=1, max_size=3)):
        num[power] = draw(st.integers(-3, 3))
    return Cyc(L, tuple(num), draw(st.sampled_from(denominators)))


@st.composite
def matrices(draw, L, n, m):
    """An n x m matrix of scalars; sometimes one whole row and one whole column are zero.

    The entries draw their denominators from one or two of DENOMINATORS, so
    that matrices differ in their common denominators (2 against 3, say).
    """
    denominators = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1, max_size=2, unique=True))
    rows = [[draw(scalars(L, denominators)) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        zero_row, zero_col = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        rows[zero_row] = [Cyc.zero(L)] * m
        for row in rows:
            row[zero_col] = Cyc.zero(L)
    return tuple(tuple(row) for row in rows)


@st.composite
def product_operands(draw):
    L = draw(st.sampled_from(CONDUCTORS))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(L, n, k)), draw(matrices(L, k, m))


def entrywise_product(a, b):
    """sum_j a_ij b_jk with Cyc arithmetic."""
    zero = Cyc.zero(a[0][0].L)
    return tuple(
        tuple(sum((a[i][j] * b[j][k] for j in range(len(b))), zero) for k in range(len(b[0])))
        for i in range(len(a))
    )


def exact(a):
    if isinstance(a, ModeMatrix):
        a = a.to_rows()
    return [[(x.num, x.den) for x in row] for row in a]


# -- entrywise references for the ModeMatrix operations, on rows of Cyc ----------


def ref_zero(L, n, m):
    z = Cyc.zero(L)
    return tuple(tuple(z for _ in range(m)) for _ in range(n))


def ref_identity(L, n):
    return ref_diagonal(L, [Cyc.one(L)] * n)


def ref_diagonal(L, diag):
    z, n = Cyc.zero(L), len(diag)
    return tuple(tuple(diag[i] if i == j else z for j in range(n)) for i in range(n))


def ref_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def ref_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def ref_conj_scalar(x):
    """The conjugate sum_k c_k zeta^(-k) / den, built from roots of unity, not by `Cyc.conj`."""
    L = x.L
    return sum((Cyc.zeta(L, -k) * Fraction(c, x.den) for k, c in enumerate(x.num) if c), Cyc.zero(L))


def ref_conj(a):
    return tuple(tuple(ref_conj_scalar(x) for x in row) for row in a)


def ref_conj_transpose(a):
    return tuple(tuple(ref_conj_scalar(x) for x in col) for col in zip(*a))


def ref_lift(a, L2):
    return tuple(tuple(x.lift(L2) for x in row) for row in a)


@st.composite
def structure_operands(draw):
    """Two matrices of one shape (often equal), a scalar and a lift factor, at one of CONDUCTORS."""
    L = draw(st.sampled_from(CONDUCTORS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = draw(matrices(L, n, m))
    b = draw(st.one_of(st.just(a), matrices(L, n, m)))
    return L, a, b, draw(scalars(L, DENOMINATORS)), draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(structure_operands())
def test_mode_matrix_operations_match_the_entrywise_references(operands):
    L, a, b, c, k = operands
    n, m = len(a), len(a[0])
    A, B = ModeMatrix.from_rows(L, a), ModeMatrix.from_rows(L, b)
    assert exact(A) == exact(a)
    assert exact(A + B) == exact(ref_add(a, b))
    assert exact(A - B) == exact(ref_sub(a, b))
    assert exact(A.scale(c)) == exact(ref_scale(c, a))
    assert (A == B) == ref_eq(a, b) and (A - B + B) == A
    assert not (A - A) and exact(A - A) == exact(ref_zero(L, n, m))
    assert exact(A.conj()) == exact(ref_conj(a))
    assert exact(A.conj_transpose()) == exact(ref_conj_transpose(a))
    assert exact(A.lift(k * L)) == exact(ref_lift(a, k * L))
    assert [exact(col) for col in A.columns()] == [exact([[x] for x in col]) for col in zip(*a)]
    assert ModeMatrix.from_columns(A.columns()) == A
    assert exact(ModeMatrix.diagonal(L, a[0])) == exact(ref_diagonal(L, a[0]))
    assert exact(ModeMatrix.identity(L, m)) == exact(ref_identity(L, m))


@st.composite
def entry_dicts(draw):
    """A conductor, a shape and entries at some of its positions: scalars, rationals and explicit zeros."""
    L = draw(st.sampled_from(CONDUCTORS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.one_of(
        scalars(L, DENOMINATORS),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(-3, 3),
        st.sampled_from((0, Fraction(0), Cyc.zero(L))),
    )
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    return L, (n, m), draw(st.dictionaries(positions, values, max_size=n * m))


@settings(max_examples=80, deadline=None)
@given(entry_dicts())
def test_from_entries_is_from_rows_of_the_dense_grid(operands):
    L, (n, m), entries = operands
    dense = [[entries.get((i, j), 0) for j in range(m)] for i in range(n)]
    assert ModeMatrix.from_entries(L, (n, m), entries) == ModeMatrix.from_rows(L, dense)


def test_operands_of_mismatched_shapes_are_refused():
    i3, i2 = ModeMatrix.identity(4, 3), ModeMatrix.identity(4, 2)
    with pytest.raises(ValueError, match="2x2 times 2x2 in a sum of 3x3 products"):
        mat_product_sum(((1, i3, i3), (-1, i2, i2)))
    with pytest.raises(ValueError, match="3x3 plus 2x2"):
        i3 + i2
    with pytest.raises(ValueError, match="3x3 times 2x2"):
        i3 @ i2
    with pytest.raises(ValueError, match="2x3 times 2x2"):
        mat_mul(i3.to_rows()[:2], i2.to_rows())


def test_a_matrix_is_unequal_to_any_other_type():
    i2 = ModeMatrix.identity(4, 2)
    assert i2.__eq__(None) is NotImplemented and i2.__eq__(i2.to_rows()) is NotImplemented
    assert i2 != None and i2 != 1 and i2 != "identity"  # noqa: E711
    assert i2 == ModeMatrix.identity(4, 2) and i2 != ModeMatrix.identity(8, 2)


@settings(max_examples=120, deadline=None)
@given(product_operands())
def test_mat_mul_is_the_entrywise_sum_of_products(operands):
    a, b = operands
    assert exact(mat_mul(a, b)) == exact(entrywise_product(a, b))


BIG = 1 << 200


@st.composite
def big_matrices(draw, L, n, m):
    """An n x m matrix with coefficients up to 2^200 in size over mixed denominators.

    Sometimes every coefficient is the same extreme value, so that every
    power of every output entry sums products of the largest size and sign.
    """
    phi = conductor_degree(L)
    saturated = draw(st.sampled_from((None, BIG, -BIG, BIG - 1)))
    coefficient = st.one_of(st.integers(-BIG, BIG), st.sampled_from((BIG, -BIG, BIG - 1, 1 - BIG, 0)))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            num = (saturated,) * phi if saturated else tuple(draw(coefficient) for _ in range(phi))
            row.append(Cyc(L, num, draw(st.sampled_from(DENOMINATORS))))
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def big_product_sums(draw, conductors=(4, 8, 12, 16, 24, 120)):
    """Up to three signed products of one shape, then sometimes the same products negated."""
    L = draw(st.sampled_from(conductors))
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    products = [
        (draw(st.sampled_from((1, -1))), draw(big_matrices(L, n, k)), draw(big_matrices(L, k, m)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    cancel = draw(st.booleans())
    if cancel:
        products += [(-sign, a, b) for sign, a, b in products]
    return products, cancel


def signed_entrywise_sum(products):
    """sum of sign * a b over the (sign, a, b) triples of rows of Cyc, entry by entry."""
    want = None
    for sign, a, b in products:
        term = tuple(tuple(sign * x for x in row) for row in entrywise_product(a, b))
        want = term if want is None else tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(want, term))
    return want


@settings(max_examples=60, deadline=None)
@given(big_product_sums())
def test_kernel_is_the_entrywise_sum_on_large_coefficients(case):
    products, cancel = case
    L = products[0][1][0][0].L
    got = mat_product_sum((sign, ModeMatrix.from_rows(L, a), ModeMatrix.from_rows(L, b)) for sign, a, b in products)
    assert exact(got) == exact(signed_entrywise_sum(products))
    if cancel:
        assert not got and got.den == 1 and not any(got.rows)


@settings(max_examples=60, deadline=None)
@given(big_product_sums(conductors=(4,)))
def test_gaussian_kernel_is_the_entrywise_sum_at_conductor_4(case):
    products, cancel = case
    operands = [(sign, ModeMatrix.from_rows(4, a), ModeMatrix.from_rows(4, b)) for sign, a, b in products]
    n, m = len(operands[0][1].rows), operands[0][2].ncols
    got = _gaussian_sum(n, m, operands)
    assert exact(got) == exact(signed_entrywise_sum(products))
    if cancel:
        assert not got and got.den == 1


# -- near-monomial operands: every rewritten kernel builds its output canonical ------

MONOMIAL_CONDUCTORS = (12, 24, 40)
MONOMIAL_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def poly_mod(L, powers):
    """The power-basis coefficients of sum c x^k over powers {k: c} modulo x^L - 1 and then
    Phi_L, by long division: no power table."""
    phi_poly = cyclotomic_polynomial(L)
    phi = len(phi_poly) - 1
    coeffs = [0] * L
    for k, c in powers.items():
        coeffs[k % L] += c
    for top in range(L - 1, phi - 1, -1):
        c = coeffs[top]
        for j, p in enumerate(phi_poly):
            coeffs[top - phi + j] -= c * p
    return tuple(coeffs[:phi])


def monomial_matrix(L, shape, den, entries):
    """The matrix with c zeta^k / den at each (i, j): (c, k) of entries, through the canonicalizing constructor."""
    rows = [{} for _ in range(shape[0])]
    for (i, j), (c, k) in sorted(entries.items()):
        rows[i][j] = poly_mod(L, {k: c})
    return ModeMatrix(L, shape[1], den, rows)


@st.composite
def monomial_operands(draw, L, n, m):
    """(shape, den, entries) of an n x m matrix of entries 0 or c zeta^k with k < phi(L), one
    nonzero coefficient each; (den, scale) = (1, 2) makes every c even, so its products with an
    operand over an even denominator share the content 2."""
    den, scale = draw(st.sampled_from(((1, 1), (2, 1), (3, 1), (1, 2))))
    monomial = st.tuples(st.sampled_from(MONOMIAL_COEFFICIENTS).map(lambda c: c * scale),
                         st.integers(0, conductor_degree(L) - 1))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    return (n, m), den, draw(st.dictionaries(positions, monomial, min_size=1, max_size=n * m))


@st.composite
def monomial_product_sums(draw):
    """Up to three signed products; then the same products negated (a zero sum), or repeated
    (every term twice: the content 2), or nothing more."""
    L = draw(st.sampled_from(MONOMIAL_CONDUCTORS))
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    products = [
        (draw(st.sampled_from((1, -1))), draw(monomial_operands(L, n, k)), draw(monomial_operands(L, k, m)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    then = draw(st.sampled_from(("cancel", "repeat", None)))
    if then == "cancel":
        products += [(-sign, a, b) for sign, a, b in products]
    elif then == "repeat":
        products += products
    return L, products, then == "cancel"


def reference_product_sum(L, products):
    """sum sign A B over (sign, A, B) of monomial operands, each output entry one long division."""
    den = lcm(*(a[1] * b[1] for _, a, b in products))
    sums = {}
    for sign, (_, da, ea), (_, db, eb) in products:
        f = sign * (den // (da * db))
        for (i, j), (c, p) in ea.items():
            for (j2, k), (d, q) in eb.items():
                if j2 == j:
                    powers = sums.setdefault((i, k), {})
                    powers[p + q] = powers.get(p + q, 0) + f * c * d
    shape = (products[0][1][0][0], products[0][2][0][1])
    rows = [{} for _ in range(shape[0])]
    for (i, k), powers in sorted(sums.items()):
        rows[i][k] = poly_mod(L, powers)
    return ModeMatrix(L, shape[1], den, rows)


def assert_canonical(out):
    """out is what the canonicalizing constructor makes of its own rows, each in column order."""
    assert out == ModeMatrix(out.L, out.ncols, out.den, [dict(r) for r in out.rows])
    assert all(list(r) == sorted(r) for r in out.rows)


@settings(max_examples=80, deadline=None)
@given(monomial_product_sums())
def test_near_monomial_matrix_kernels_build_canonical_outputs(case):
    L, products, cancel = case
    got = mat_product_sum((sign, monomial_matrix(L, *a), monomial_matrix(L, *b)) for sign, a, b in products)
    assert_canonical(got)
    assert got == reference_product_sum(L, products)
    if cancel:
        assert not got and got.den == 1
    shape, den, entries = products[0][1]
    a = monomial_matrix(L, shape, den, entries)
    for out, want in (
        (a.conj(), monomial_matrix(L, shape, den, {ij: (c, -k) for ij, (c, k) in entries.items()})),
        (a.conj_transpose(),
         monomial_matrix(L, shape[::-1], den, {(j, i): (c, -k) for (i, j), (c, k) in entries.items()})),
        (a.lift(2 * L), monomial_matrix(2 * L, shape, den, {ij: (c, 2 * k) for ij, (c, k) in entries.items()})),
    ):
        assert_canonical(out)
        assert out == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MONOMIAL_CONDUCTORS), st.data())
def test_near_monomial_scalar_kernels_match_the_long_division(L, data):
    phi = conductor_degree(L)
    monomials = st.tuples(st.sampled_from(MONOMIAL_COEFFICIENTS), st.integers(0, phi - 1), st.sampled_from((1, 2, 3)))
    (cx, kx, dx), (cy, ky, dy) = data.draw(monomials), data.draw(monomials)
    x, y = Cyc(L, poly_mod(L, {kx: cx}), dx), Cyc(L, poly_mod(L, {ky: cy}), dy)
    assert x * y == Cyc(L, poly_mod(L, {kx + ky: cx * cy}), dx * dy)
    assert x * y - y * x == Cyc.zero(L)
    a = data.draw(st.sampled_from([u for u in range(1, L) if gcd(u, L) == 1]))
    assert x.galois(a) == Cyc(L, poly_mod(L, {a * kx: cx}), dx)
    k = data.draw(st.integers(-L, 2 * L))
    assert Cyc.zeta(L, k) == Cyc(L, poly_mod(L, {k: 1}), 1)
    us, vs = (data.draw(st.lists(monomials, min_size=1, max_size=3)) for _ in range(2))
    n = min(len(us), len(vs))
    u, v = (monomial_matrix(L, (n, 1), 6, {(i, 0): (c * 6 // d, k) for i, (c, k, d) in enumerate(w[:n])})
            for w in (us, vs))
    powers = {}
    for (c, k, d), (c2, k2, d2) in zip(us, vs):  # u_i conj(v_i) over 36
        powers[k - k2] = powers.get(k - k2, 0) + (c * 6 // d) * (c2 * 6 // d2)
    assert _hdot(u, v) == Cyc(L, poly_mod(L, powers), 36)
    pair = monomial_matrix(L, (2, 1), 1, {(0, 0): (cx, kx), (1, 0): (cx, kx)})
    opposite = monomial_matrix(L, (2, 1), 1, {(0, 0): (cy, ky), (1, 0): (-cy, ky)})
    assert _hdot(pair, opposite) == Cyc.zero(L) and _hdot(pair, pair) == Cyc(L, poly_mod(L, {0: 2 * cx * cx}), 1)


def plain_loop_element(draw, spec, L):
    """(z, {mode: rows of Cyc}, t): up to three modes, each the model projection of a mixed-denominator matrix."""
    model = standard_model(spec.lars, spec.base.rank)
    z = Cyc.rational(L, draw(st.sampled_from((-1, 0, 1, Fraction(1, 2)))))
    i = Cyc.i(L)
    t = draw(st.sampled_from((-1, 0, 1, Fraction(1, 3), i, 1 + i * Fraction(1, 2))))
    t = t if isinstance(t, Cyc) else Cyc.rational(L, t)
    modes = {}
    for n in draw(st.lists(st.integers(-2, 2), max_size=3, unique=True)):
        raw = ModeMatrix.from_rows(L, draw(matrices(L, model.dim, model.dim)))
        modes[n] = model.mode_project(model.algebra_project(raw), n).to_rows()
    return z, modes, t


@st.composite
def bracket_operands(draw):
    kind = draw(st.sampled_from(LARS_KINDS))
    rank = draw(st.integers(2, 3))
    nu = Functional({1: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))})
    spec = standard_spec(kind, rank, nu=nu)
    L = draw(st.sampled_from(CONDUCTORS))
    return spec, L, plain_loop_element(draw, spec, L), plain_loop_element(draw, spec, L)


def reference_bracket(spec, L, a, b):
    """The double-extension bracket of plain elements, entry by entry in Cyc arithmetic."""
    (_, a_modes, a_t), (_, b_modes, b_t) = a, b
    model = standard_model(spec.lars, spec.base.rank)
    d = range(model.dim)
    zero, i = Cyc.zero(L), Cyc.i(L)
    slant = [spec.slant[abs(w)] * (1 if w > 0 else -1) if w else 0 for w in model.weights]

    def derive(n, x):
        """Entry (r, c) of mode n times i (n/N + nu(w_r) - nu(w_c))."""
        return [
            [x[r][c] * i * Cyc.rational(L, Fraction(n, spec.twist_order) + slant[r] - slant[c]) for c in d]
            for r in d
        ]

    out = {}

    def add(n, m):
        acc = out.setdefault(n, [[zero] * model.dim for _ in d])
        for r in d:
            for c in d:
                acc[r][c] = acc[r][c] + m[r][c]

    for n, x in a_modes.items():
        for n2, y in b_modes.items():
            add(n + n2, [[sum((x[r][j] * y[j][c] - y[r][j] * x[j][c] for j in d), zero) for c in d] for r in d])
    for n, y in b_modes.items():
        add(n, [[a_t * v for v in row] for row in derive(n, y)])
    for n, x in a_modes.items():
        add(n, [[-b_t * v for v in row] for row in derive(n, x)])
    z = zero
    for n, x in a_modes.items():
        if -n in b_modes:
            dx, y = derive(n, x), b_modes[-n]
            z = z + Cyc.rational(L, -model.form_scale) * sum((dx[r][c] * y[c][r] for r in d for c in d), zero)
    terms = [(n, tuple(map(tuple, m))) for n, m in sorted(out.items()) if any(v for row in m for v in row)]
    return SimpleNamespace(z=z, loop=SimpleNamespace(terms=terms))


def as_element(L, plain):
    z, modes, t = plain
    return DoubleExtElement(z, LoopElement(tuple((n, ModeMatrix.from_rows(L, m)) for n, m in modes.items())), t)


@settings(max_examples=40, deadline=None)
@given(bracket_operands())
def test_bracket_is_the_sum_of_mode_pair_commutators(operands):
    spec, L, plain_a, plain_b = operands
    got = bracket(spec, as_element(L, plain_a), as_element(L, plain_b))
    want = reference_bracket(spec, L, plain_a, plain_b)
    assert (got.z.num, got.z.den) == (want.z.num, want.z.den)
    assert got.t.is_zero()
    assert [n for n, _ in got.loop.terms] == [n for n, _ in want.loop.terms]
    for (_, x), (_, y) in zip(got.loop.terms, want.loop.terms):
        assert exact(x) == exact(y)


#: the kinds whose conductor-4 brackets take one product per commutator (``loopalg`` module docstring)
SIGMA_KINDS = ("B1", "C1", "D1", "B2", "C2", "BC2")


def reference_bracket_sum(spec, L, pairs):
    """The sum of ``reference_bracket`` over pairs of plain elements, as a plain element with t = 0."""
    z, modes = Cyc.zero(L), {}
    for a, b in pairs:
        got = reference_bracket(spec, L, a, b)
        z = z + got.z
        for n, m in got.loop.terms:
            modes[n] = ref_add(modes[n], m) if n in modes else m
    return z, {n: m for n, m in sorted(modes.items()) if any(v for row in m for v in row)}, Cyc.zero(L)


def assert_plain_equal(got, want):
    z, modes, _ = want
    assert (got.z.num, got.z.den) == (z.num, z.den)
    assert got.t.is_zero()
    assert [n for n, _ in got.loop.terms] == list(modes)
    for (_, x), y in zip(got.loop.terms, modes.values()):
        assert exact(x) == exact(y)


@st.composite
def sigma_triples(draw):
    """A sigma kind's standard spec with a slant, and three plain elements at conductor 4."""
    kind = draw(st.sampled_from(SIGMA_KINDS))
    nu = Functional({1: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))})
    spec = standard_spec(kind, draw(st.integers(2, 3)), nu=nu)
    return spec, [plain_loop_element(draw, spec, 4) for _ in range(3)]


@settings(max_examples=30, deadline=None)
@given(sigma_triples())
def test_sigma_bracket_sums_match_the_reference(case):
    # one product per commutator, folded by T + s_k P(T), against two products per entry in Cyc arithmetic
    spec, (a, b, c) = case
    inner = [reference_bracket_sum(spec, 4, (pair,)) for pair in ((b, c), (c, a), (a, b))]
    jacobi = tuple(zip((a, b, c), inner))
    for pairs in (((a, b), (b, c), (c, a), (a, a)), jacobi):
        got = bracket_sum(spec, tuple((as_element(4, x), as_element(4, y)) for x, y in pairs))
        assert_plain_equal(got, reference_bracket_sum(spec, 4, pairs))
    assert got.is_zero()  # the Jacobi sum


@pytest.mark.parametrize("kind", SIGMA_KINDS)
@pytest.mark.parametrize("mode", (0, 1))
def test_sigma_bracket_refuses_a_mode_matrix_off_its_sign(kind, mode):
    spec, model = standard_spec(kind, 3), standard_model(kind, 3)
    unit = DoubleExtElement.from_loop(4, mode, model.basis_matrix(4, 0, 1))
    fixed = DoubleExtElement.from_loop(4, 0, model.cartan_matrix(1, 4))
    for pair in ((unit, fixed), (fixed, unit)):
        with pytest.raises(ValueError, match=f"mode {mode} matrix x is not -?1 x under"):
            bracket(spec, *pair)
    # the full matrix algebra of A1 is not a fixed set of P, so nothing is checked
    a1 = standard_model("A1", 3).basis_matrix(4, 0, 1)
    bracket(standard_spec("A1", 3), *(DoubleExtElement.from_loop(4, mode, a1),) * 2)


@st.composite
def nonstandard_c2_pairs(draw):
    """A C2 spec of twist order 4 and two plain elements whose mode-n parts lie in psi~'s (-1)^(n+1) eigenspace."""
    spec = AffinisationSpec(RootSystem("C", draw(st.integers(2, 3))), "C2", twist_order=4)
    model = standard_model("C2", spec.base.rank)
    pair = []
    for _ in range(2):
        modes = {}
        for n in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)):
            raw = ModeMatrix.from_rows(4, draw(matrices(4, model.dim, model.dim)))
            modes[n] = model.mode_project(raw, n + 1).to_rows()
        pair.append((Cyc.zero(4), modes, Cyc.rational(4, draw(st.sampled_from((0, 1, -1))))))
    return spec, pair


@settings(max_examples=20, deadline=None)
@given(nonstandard_c2_pairs())
def test_nonstandard_c2_bracket_keeps_two_products(case):
    # the (-1)^n rule is false here, so the sigma path would refuse these elements or fold them wrongly
    spec, (a, b) = case
    assert_plain_equal(bracket(spec, as_element(4, a), as_element(4, b)), reference_bracket_sum(spec, 4, ((a, b),)))


@pytest.mark.parametrize(
    "kind, nonstandard, per_commutator",
    [(kind, False, 1) for kind in SIGMA_KINDS] + [("A1", False, 2), ("C2", True, 2), ("BC2", True, 2)],
)
def test_products_handed_to_the_gaussian_kernel(monkeypatch, kind, nonstandard, per_commutator):
    spec = standard_spec(kind, 3)
    if nonstandard:
        spec = AffinisationSpec(spec.base, kind, twist_order=4)
    model, kernel, seen = standard_model(kind, 3), loopalg._gaussian_sum, []

    def counting(n, m, prods, terms, shift, w, fold):
        seen.append((len(prods), fold is not None))
        return kernel(n, m, prods, terms, shift, w, fold)

    monkeypatch.setattr(loopalg, "_gaussian_sum", counting)
    # a two-mode element against a one-mode one: two output modes of one commutator each
    x, y = model.cartan_matrix(1, 4), model.cartan_matrix(2, 4)
    a = DoubleExtElement(Cyc.zero(4), LoopElement(((0, x), (2, y))), Cyc.zero(4))
    b = DoubleExtElement.from_loop(4, 2, x)
    bracket(spec, a, b)
    assert sorted(seen) == [(per_commutator, per_commutator == 1)] * 2
