import random

from twistaff.affine import LARS_KINDS, lars_finite_parts
from twistaff.cyclo import (
    Cyc,
    mat_add,
    mat_diagonal,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_zero,
)
from twistaff.models import model_mode_residues, standard_model

L = 4


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def rand_algebra_element(model, rng):
    raw = tuple(
        tuple(Cyc.rational(L, rng.randint(-2, 2)) for _ in range(model.dim))
        for _ in range(model.dim)
    )
    return model.algebra_project(raw)


def test_root_spaces_are_lines_exactly_at_admissible_residues():
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for a in lars_finite_parts(kind, m.base):
            allowed = model_mode_residues(m, a)
            for n in range(m.n_psi):
                basis = m.root_space_basis(L, a, n)
                assert len(basis) == (1 if n in allowed else 0), (kind, a, n)


def test_cartan_operators_are_orthonormal():
    for kind in LARS_KINDS:
        m = standard_model(kind, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                f = m.hermitian_form(m.cartan_matrix(j, L), m.cartan_matrix(k, L))
                assert f == Cyc.rational(L, 1 if j == k else 0)


def test_weight_grading():
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for a in lars_finite_parts(kind, m.base)[:5]:
            for n in model_mode_residues(m, a):
                for v in m.root_space_basis(L, a, n):
                    for j in (1, 2):
                        br = mat_commutator(m.cartan_matrix(j, L), v)
                        want = mat_scale(Cyc.rational(L, a.functional()[j]), v)
                        assert mat_eq(br, want)


def test_algebra_closed_and_twist_is_involutive_automorphism():
    rng = random.Random(5)
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        for _ in range(4):
            x, y = rand_algebra_element(m, rng), rand_algebra_element(m, rng)
            assert m.in_algebra(mat_commutator(x, y))
            if m.n_psi == 2:
                px, py = m.psi_tilde(x), m.psi_tilde(y)
                assert mat_eq(m.psi_tilde(mat_commutator(x, y)), mat_commutator(px, py))
                assert mat_eq(m.psi_tilde(px), x)
                assert mat_eq(mat_add(m.mode_project(x, 0), m.mode_project(x, 1)), x)


def test_weight_components_reassemble():
    rng = random.Random(8)
    for kind in LARS_KINDS:
        m = standard_model(kind, 2)
        x = rand_algebra_element(m, rng)
        total = mat_zero(L, m.dim)
        for _, comp in m.weight_components(x):
            total = mat_add(total, comp)
        assert mat_eq(total, x)


def _neg_transpose_conjugate(x, q):
    """-Q x^T Q^-1."""
    lhs = mat_mul(mat_mul(q, tuple(zip(*x))), mat_inverse(q))
    return mat_scale(Cyc.rational(L, -1), lhs)


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
                q = tuple(
                    tuple(Cyc.one(L) if mirror[j] == i else Cyc.zero(L) for j in range(d))
                    for i in range(d)
                )
            involution = m.psi_tilde if kind in ("C2", "BC2") else m._tau
            for _ in range(3):
                x = tuple(
                    tuple(
                        Cyc.rational(L, rng.randint(-3, 3)) + rng.randint(-2, 2) * Cyc.i(L)
                        for _ in range(d)
                    )
                    for _ in range(d)
                )
                assert mat_eq(involution(x), _neg_transpose_conjugate(x, q)), (kind, rank)
                if kind == "B2":
                    # the twist is conjugation by the flip F of one zero vector
                    f = m.twist_matrix(L)
                    flips = [a for a in range(d) if f[a][a] == Cyc.rational(L, -1)]
                    assert len(flips) == 1 and w[flips[0]] == 0
                    signs = [-1 if a in flips else 1 for a in range(d)]
                    assert mat_eq(f, mat_diagonal(L, [Cyc.rational(L, s) for s in signs]))
                    assert mat_eq(m.psi_tilde(x), mat_mul(mat_mul(f, x), f)), rank
