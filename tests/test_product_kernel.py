"""Properties of the integer product kernel behind mat_mul and the loop bracket.

Both references are written with plain `Cyc` operations: `mat_mul` must equal
the entrywise sum of products, and `bracket` must equal the sum over mode
pairs of separately built commutators plus the derivation and cocycle terms.
Denominators are mixed (1, 2, 3, 4, 6), so a product term that is not
rescaled to the common denominator, or a common denominator that is not a
multiple of every operand denominator, changes the result.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twistaff.affine import LARS_KINDS, standard_spec
from twistaff.cyclo import Cyc, conductor_degree, mat_add, mat_mul, mat_sub
from twistaff.loopalg import (
    DoubleExtElement,
    LoopElement,
    apply_derivation,
    bracket,
    loop_pairing,
)
from twistaff.models import standard_model
from twistaff.rootdata import Functional

CONDUCTORS = (4, 8, 12, 24)
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
    return [[(x.num, x.den) for x in row] for row in a]


@settings(max_examples=120, deadline=None)
@given(product_operands())
def test_mat_mul_is_the_entrywise_sum_of_products(operands):
    a, b = operands
    assert exact(mat_mul(a, b)) == exact(entrywise_product(a, b))


@st.composite
def loop_elements(draw, spec, L):
    """An element with up to three modes, each the model projection of a mixed-denominator matrix."""
    model = standard_model(spec.lars, spec.base.rank)
    out = DoubleExtElement(
        Cyc.rational(L, draw(st.sampled_from((-1, 0, 1, Fraction(1, 2))))),
        LoopElement(()),
        Cyc.rational(L, draw(st.sampled_from((-1, 0, 1, Fraction(1, 3))))),
    )
    for n in draw(st.lists(st.integers(-2, 2), max_size=3, unique=True)):
        raw = draw(matrices(L, model.dim, model.dim))
        out = out + DoubleExtElement.from_loop(L, n, model.mode_project(model.algebra_project(raw), n))
    return out


@st.composite
def bracket_operands(draw):
    kind = draw(st.sampled_from(LARS_KINDS))
    rank = draw(st.integers(2, 3))
    nu = Functional({1: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))})
    spec = standard_spec(kind, rank, nu=nu)
    L = draw(st.sampled_from(CONDUCTORS))
    return spec, draw(loop_elements(spec, L)), draw(loop_elements(spec, L))


def reference_bracket(spec, a, b):
    """The double-extension bracket with one commutator per mode pair, summed with mat_add."""
    L = a.z.L
    modes = {}
    for n, x in a.loop.terms:
        for m, y in b.loop.terms:
            comm = mat_sub(mat_mul(x, y), mat_mul(y, x))
            modes[n + m] = mat_add(modes[n + m], comm) if n + m in modes else comm
    da = apply_derivation(spec, spec.slant, a)
    db = apply_derivation(spec, spec.slant, b)
    loop = LoopElement(tuple(modes.items())) + db.loop.scale(a.t) - da.loop.scale(b.t)
    return DoubleExtElement(loop_pairing(spec, da.loop, b.loop, L), loop, Cyc.zero(L))


@settings(max_examples=40, deadline=None)
@given(bracket_operands())
def test_bracket_is_the_sum_of_mode_pair_commutators(operands):
    spec, a, b = operands
    got, want = bracket(spec, a, b), reference_bracket(spec, a, b)
    assert (got.z.num, got.z.den) == (want.z.num, want.z.den)
    assert got.t.is_zero()
    assert [n for n, _ in got.loop.terms] == [n for n, _ in want.loop.terms]
    for (_, x), (_, y) in zip(got.loop.terms, want.loop.terms):
        assert exact(x) == exact(y)
