import random
from fractions import Fraction

import pytest

from twistaff.affine import LARS_KINDS, admissible_mode_step, lars_finite_parts
from twistaff.cyclo import Cyc, ModeMatrix, mat_inverse
from twistaff.models import Span, _half_sum, standard_model

import elimination

L = 4


def mat_commutator(a, b):
    return a @ b - b @ a


def rand_algebra_element(model, rng):
    raw = [[rng.randint(-2, 2) for _ in range(model.dim)] for _ in range(model.dim)]
    return model.algebra_project(ModeMatrix.from_rows(L, raw))


def model_mode_residues(model, a):
    """Residues mod n_psi at which the root's space is nonzero, from the affine root data."""
    res, step = admissible_mode_step(model.lars, a)
    if model.n_psi == 1:
        return (0,)
    if step == 1:
        return (0, 1)
    return (res % 2,)


def root_space_basis(model, a, residue):
    """A basis of the weight-a, mode-residue component of the model algebra, by elimination."""
    return elimination.span_basis(model.mode_project(b, residue) for b in model.weight_space_basis(L, a.coeffs))


def hermitian_form(model, x, y):
    """<x, y> = scale * tr(x y*), entry by entry, antilinear in y."""
    xr, yr = x.to_rows(), y.to_rows()
    acc = sum((p * q.conj() for rx, ry in zip(xr, yr) for p, q in zip(rx, ry)), Cyc.zero(L))
    return Cyc.rational(L, model.form_scale) * acc


def in_algebra(model, x):
    return model.algebra_project(x) == x


def test_root_spaces_are_lines_exactly_at_admissible_residues():
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for a in lars_finite_parts(kind, m.base):
            allowed = model_mode_residues(m, a)
            for n in range(m.n_psi):
                basis = root_space_basis(m, a, n)
                assert len(basis) == (1 if n in allowed else 0), (kind, a, n)


def test_cartan_operators_are_orthonormal():
    for kind in LARS_KINDS:
        m = standard_model(kind, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                f = hermitian_form(m, m.cartan_matrix(j, L), m.cartan_matrix(k, L))
                assert f == Cyc.rational(L, 1 if j == k else 0)


def test_weight_grading():
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for a in lars_finite_parts(kind, m.base)[:5]:
            for n in model_mode_residues(m, a):
                for v in root_space_basis(m, a, n):
                    for j in (1, 2):
                        br = mat_commutator(m.cartan_matrix(j, L), v)
                        assert br == v.scale(a.functional()[j])


def test_algebra_closed_and_twist_is_involutive_automorphism():
    rng = random.Random(5)
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for _ in range(4):
            x, y = rand_algebra_element(m, rng), rand_algebra_element(m, rng)
            assert in_algebra(m, mat_commutator(x, y))
            if m.n_psi == 2:
                px, py = m.psi_tilde(x), m.psi_tilde(y)
                assert m.psi_tilde(mat_commutator(x, y)) == mat_commutator(px, py)
                assert m.psi_tilde(px) == x
                assert m.mode_project(x, 0) + m.mode_project(x, 1) == x


def test_weight_components_reassemble():
    rng = random.Random(8)
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        x = rand_algebra_element(m, rng)
        comps = m.weight_components(x)
        assert len({w for w, _ in comps}) == len(comps)
        for w, comp in comps:
            assert all(m.entry_weight(i, j) == (w.coeffs if w else ()) for i, row in enumerate(comp.rows) for j in row)
        total = ModeMatrix(L, m.dim, 1, [{} for _ in range(m.dim)])
        for _, comp in comps:
            total = total + comp
        assert total == x


def _neg_transpose_conjugate(x, q):
    """-Q x^T Q^-1."""
    transpose = x.conj_transpose().conj()
    return -(q @ transpose @ ModeMatrix.from_rows(L, mat_inverse(q.to_rows())))


def test_involutions_match_their_matrix_definitions():
    rng = random.Random(11)
    for rank in (2, 3):
        for kind in ("C1", "C2", "BC2", "B1", "D1", "B2"):
            m = standard_model(kind, rank)
            d, w = m.dim, m.weights
            if kind in ("C1", "C2", "BC2"):
                q = m.structure_map_matrix(L)
            else:
                # the exchange e+ <-> e- fixing the zero vectors
                mirror = [w.index(-w[j]) if w[j] else j for j in range(d)]
                q = ModeMatrix.from_entries(L, (d, d), {(mirror[j], j): 1 for j in range(d)})
            for _ in range(3):
                x = ModeMatrix.from_rows(L, [
                    [Cyc.rational(L, rng.randint(-3, 3)) + rng.randint(-2, 2) * Cyc.i(L) for _ in range(d)]
                    for _ in range(d)
                ])
                want = _neg_transpose_conjugate(x, q)
                if kind in ("C2", "BC2"):
                    assert m.psi_tilde(x) == want, (kind, rank)
                else:
                    # the defining involution tau, through its projection (x + tau(x)) / 2
                    assert m.algebra_project(x) == (x + want).scale(Fraction(1, 2)), (kind, rank)
                if kind == "B2":
                    # the twist is conjugation by the flip F of one zero vector
                    f = m.twist_matrix(L)
                    flips = [a for a in range(d) if f.to_rows()[a][a] == Cyc.rational(L, -1)]
                    assert len(flips) == 1 and w[flips[0]] == 0
                    signs = [-1 if a in flips else 1 for a in range(d)]
                    assert f == ModeMatrix.diagonal(L, signs)
                    assert m.psi_tilde(x) == f @ x @ f, rank


def layout(matrices):
    """Each matrix's denominator and rows as (column, coefficients) lists: == plus the key order of every row."""
    return [(m.den, [list(row.items()) for row in m.rows]) for m in matrices]


def model_unit_lists(model, L):
    """(span, the projected units it was built from) for every span the model caches at L."""
    d = range(model.dim)
    cartan = [model.algebra_project(model.basis_matrix(L, i, i)) for i in d]
    yield model.cartan_basis(L), cartan
    for w in sorted({model.entry_weight(i, j) for i in d for j in d}):  # () first: the zero weight
        units = (model.basis_matrix(L, i, j) for i in d for j in d if model.entry_weight(i, j) == w)
        yield model.weight_space_basis(L, w), [model.algebra_project(u) for u in units]


@pytest.mark.parametrize("L", [4, 8, 12, 24])
def test_orbit_spans_equal_the_elimination_reference(L):
    spans = 0
    for kind in LARS_KINDS:
        for rank in (2, 3, 4, 5):
            model = standard_model(kind, rank)
            for span, units in model_unit_lists(model, L):
                reference = elimination.span_basis(units)
                assert layout(span) == layout(reference), (kind, rank)
                plus, minus = span.split
                # projections that vanish leave an empty span, which the elimination cannot read
                ref_plus, ref_minus = elimination.split(span) if span else ((), ())
                assert (layout(plus), layout(minus)) == (layout(ref_plus), layout(ref_minus)), (kind, rank)
                assert len(plus) + len(minus) == len(span)
                spans += bool(span)
    assert spans == 744  # nonempty spans per conductor: 2976 over the four conductors


def test_non_orbit_input_is_refused():
    model = standard_model("C2", 2)
    x = model.cartan_basis(L)[0]
    y = model.psi_tilde(x)
    assert y not in (x, -x)
    # psi~ keeps the span of x and x + y, but maps x to y = (x + y) - x, not to +- a member
    span = Span(model, [x, x + y])
    assert len(elimination.split(span)[0]) == 1
    with pytest.raises(ValueError, match="psi~ does not preserve the span of the basis"):
        span.split


@pytest.mark.parametrize("kind", [k for k in LARS_KINDS if k != "A1"])
@pytest.mark.parametrize("L", [4, 12])
def test_check_fixed_agrees_with_the_permuted_matrix(kind, L):
    # check_fixed reads x entry by entry (Gaussian pairs at L = 4); the reference builds P(x) whole
    rng = random.Random(f"{kind}:{L}")
    model = standard_model(kind, 3)
    d = model.dim
    tables = [t for t in (model._paired_table, model._twist_table) if t]
    seen = set()
    for table in tables:
        for s in (1, -1):
            for _ in range(12):
                cells = [(rng.randrange(d), rng.randrange(d)) for _ in range(rng.randint(1, 6))]
                entries = {cell: Cyc.zeta(L, rng.randrange(L)) for cell in cells}
                raw = ModeMatrix.from_entries(L, (d, d), entries)
                fixed = _half_sum(raw, table, s)
                (a, b), value = next(iter(entries.items()))
                nudged = fixed + ModeMatrix.from_entries(L, (d, d), {(a, b): value})
                for x in (raw, fixed, nudged):
                    want = x.permuted(table) == (x if s == 1 else -x)
                    try:
                        model.check_fixed(table, 0, x, s)
                        got = True
                    except ValueError:
                        got = False
                    assert got == want, (kind, s, x.rows)
                    seen.add(want)
    assert seen == {True, False}
