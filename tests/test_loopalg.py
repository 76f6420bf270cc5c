import json
import random
from fractions import Fraction as Q

import pytest

from twistaff import loopalg
from twistaff.affine import KINDS, LARS_KINDS, standard_spec
from twistaff.cli import main
from twistaff.cyclo import Cyc, ModeMatrix
from twistaff.loopalg import (
    DoubleExtElement,
    LoopElement,
    apply_derivation,
    bracket,
    bracket_sum,
    kappa_form,
    validate_element,
)
from twistaff.models import StandardModel, standard_model
from twistaff.rootdata import Functional, Root
from twistaff.sampling import random_loop_element

import elimination

L = 4


def test_central_element_brackets_to_zero():
    spec = standard_spec("A1", 2)
    m = standard_model("A1", 2)
    x = DoubleExtElement.from_loop(L, 1, m.basis_matrix(L, 0, 1))
    assert bracket(spec, DoubleExtElement.central(L), x).is_zero()


def test_derivation_coordinate_scales_modes():
    nu = Functional({1: Q(1, 3)})
    spec = standard_spec("A1", 2, nu=nu)
    m = standard_model("A1", 2)
    x = DoubleExtElement.from_loop(L, 1, m.basis_matrix(L, 0, 1))
    got = bracket(spec, DoubleExtElement.scaling(L), x)
    scal = Cyc.i(L) * Cyc.rational(L, Q(4, 3))
    assert got == DoubleExtElement.from_loop(L, 1, m.basis_matrix(L, 0, 1).scale(scal))


def test_paired_modes_produce_the_central_charge():
    spec = standard_spec("A1", 2)
    m = standard_model("A1", 2)
    x = m.basis_matrix(L, 0, 1)
    b = bracket(
        spec,
        DoubleExtElement.from_loop(L, 1, x),
        DoubleExtElement.from_loop(L, -1, x.conj_transpose()),
    )
    assert b.z == -Cyc.i(L)
    assert b.t.is_zero()
    loop = dict(b.loop.terms)
    assert list(loop) == [0]
    assert loop[0] == m.cartan_matrix(1, L) - m.cartan_matrix(2, L)


def test_root_vector_bracket_display():
    # [e_n x, (e_n x)*] = (-i (n/N + s(a#)) <x,x>, <x,x> a#, 0) for weight vectors
    from twistaff.affine import lars_finite_parts
    from twistaff.rootdata import inner

    for kind in LARS_KINDS:
        spec = standard_spec(kind, 2, nu=Functional({1: Q(1, 4)}))
        m = standard_model(kind, 2)
        for a in lars_finite_parts(kind, m.base)[:4]:
            for res in range(m.n_psi):
                # the (a, res) root space: the projected matrix units of weight a (none off its residues)
                for x in elimination.span_basis(m.mode_project(b, res) for b in m.weight_space_basis(L, a.coeffs)):
                    n = res
                    e = DoubleExtElement.from_loop(L, n, x)
                    estar = DoubleExtElement.from_loop(L, -n, x.conj_transpose())
                    b = bracket(spec, e, estar)
                    nx = Cyc.rational(L, m.form_scale) * x.trace_product(x.conj_transpose())  # <x, x>
                    scal = Q(n, spec.twist_order) + inner(spec.slant, a.functional())
                    want_z = -Cyc.i(L) * Cyc.rational(L, scal) * nx
                    assert b.z == want_z
                    sharp = ModeMatrix(L, m.dim, 1, [{} for _ in range(m.dim)])
                    for j, c in a.coeffs:
                        sharp = sharp + m.cartan_matrix(j, L).scale(c)
                    assert dict(b.loop.terms) == {} if nx.is_zero() else True
                    loop = dict(b.loop.terms)
                    assert loop[0] == sharp.scale(nx)


def test_kappa_examples():
    spec = standard_spec("A1", 2)
    c = DoubleExtElement.central(L)
    d = DoubleExtElement.scaling(L)
    assert kappa_form(spec, c, d) == Cyc.one(L)
    assert kappa_form(spec, c, c) == Cyc.zero(L)


def test_bracket_properties_random():
    rng = random.Random(42)
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 2, mu=Functional({1: Q(1, 4)}), nu=Functional({2: Q(-1, 3)}))
        nu = spec.slant_nu
        for _ in range(6):
            a = random_loop_element(rng, spec, L)
            b = random_loop_element(rng, spec, L)
            c = random_loop_element(rng, spec, L)
            validate_element(spec, a)
            ab = bracket(spec, a, b)
            assert (ab + bracket(spec, b, a)).is_zero()
            jac = (
                bracket(spec, a, bracket(spec, b, c))
                + bracket(spec, b, bracket(spec, c, a))
                + bracket(spec, c, ab)
            )
            assert jac.is_zero()
            assert kappa_form(spec, ab, c) == kappa_form(spec, a, bracket(spec, b, c))
            da, db = apply_derivation(spec, nu, a), apply_derivation(spec, nu, b)
            assert kappa_form(spec, da, b) == -kappa_form(spec, a, db)
            assert apply_derivation(spec, nu, ab) == bracket(spec, da, b) + bracket(spec, a, db)


@pytest.mark.parametrize("kind", LARS_KINDS)
def test_bracket_sum_is_the_sum_of_its_brackets(kind):
    rng = random.Random(f"bracket-sum:{kind}")
    for rank in (2, 3, 4):
        spec = standard_spec(kind, rank, mu=Functional({1: Q(1, 4)}), nu=Functional({2: Q(-1, 3)}))
        for _ in range(2):
            a, b, c = (random_loop_element(rng, spec, L) for _ in range(3))
            # nonzero central and derivation coordinates, and elements without loop terms
            zt = DoubleExtElement(Cyc.rational(L, Q(2, 3)), a.loop, Cyc.i(L))
            bare = DoubleExtElement(Cyc.one(L), LoopElement(()), -Cyc.i(L))
            jacobi = ((a, bracket(spec, b, c)), (b, bracket(spec, c, a)), (c, bracket(spec, a, b)))
            for pairs in (jacobi, ((zt, b), (c, zt), (bare, a)), ((a, bare), (bare, bare)), ((zt, c),)):
                want = sum((bracket(spec, x, y) for x, y in pairs), DoubleExtElement.zero(L))
                assert bracket_sum(spec, pairs) == want


def _bracket_check(tmp_path, monkeypatch, kind="C2"):
    """The exit code and report (None if none was written) of four seeded rank-3 bracket-check trials."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(standard_spec(kind, 3).to_json()))
    argv = ["bracket-check", "--input", "spec.json", "--seed", "1", "--count", "4", "--output", "out.json"]
    code, out = main(argv), tmp_path / "out.json"
    return code, json.loads(out.read_text()) if out.exists() else None


def test_bracket_check_fails_a_bracket_without_its_commutator_half(tmp_path, monkeypatch):
    # A1 keeps both products; every (-1, y, x) dropped, the loop part becomes the associative product x y
    kernel = loopalg._gaussian_sum
    monkeypatch.setattr(
        loopalg, "_gaussian_sum", lambda n, m, prods, *rest: kernel(n, m, [p for p in prods if p[0] == 1], *rest)
    )
    code, doc = _bracket_check(tmp_path, monkeypatch, "A1")
    assert code == 1
    assert doc["passed_counts"]["jacobi"] < doc["trials"] == 4


#: sigma-path mutations of ``_gaussian_sum``'s fold on C2, whose s_k is (-1)^k
SIGMA_MUTATIONS = {
    "fold_skipped": lambda fold: None,  # the loop part is the associative product x y
    "even_sign_on_odd_modes": lambda fold: (fold[0], 1),  # s_k = 1, the involution kinds' rule, on odd k too
}


def _mutate_fold(monkeypatch, mutation):
    kernel, mutate = loopalg._gaussian_sum, SIGMA_MUTATIONS[mutation]
    monkeypatch.setattr(
        loopalg,
        "_gaussian_sum",
        lambda n, m, prods, terms, shift, w, fold: kernel(n, m, prods, terms, shift, w, mutate(fold)),
    )


@pytest.mark.parametrize("mutation", SIGMA_MUTATIONS)
def test_bracket_check_fails_a_sigma_bracket_with_a_wrong_fold(tmp_path, monkeypatch, mutation):
    # without the input refusal, the mutated bracket fails the algebraic checks themselves
    _mutate_fold(monkeypatch, mutation)
    monkeypatch.setattr(StandardModel, "check_fixed", lambda *args: None)
    code, doc = _bracket_check(tmp_path, monkeypatch)
    counts = doc["passed_counts"]
    assert code == 1
    assert min(counts["jacobi"], counts["antisymmetry"]) < doc["trials"] == 4


@pytest.mark.parametrize("mutation", SIGMA_MUTATIONS)
def test_bracket_check_refuses_a_sigma_bracket_with_a_wrong_fold(tmp_path, monkeypatch, capsys, mutation):
    # the mutated [b, c] is not sigma-fixed with its mode's sign, so the Jacobi sum refuses it: a program fault
    _mutate_fold(monkeypatch, mutation)
    assert _bracket_check(tmp_path, monkeypatch) == (3, None)
    assert "under the model's involution -Q x^T Q^-1" in capsys.readouterr().err


def test_bracket_check_fails_a_bracket_without_its_a_t_derivation_term(tmp_path, monkeypatch):
    # every (1, a.t i / Q, b_n) term dropped: [a, b] + [b, a] = -(a.t D b + b.t D a), not zero
    kernel = loopalg._gaussian_sum
    monkeypatch.setattr(
        loopalg,
        "_gaussian_sum",
        lambda n, m, prods, terms, *rest: kernel(n, m, prods, [t for t in terms if t[0] == -1], *rest),
    )
    code, doc = _bracket_check(tmp_path, monkeypatch)
    assert code == 1
    assert doc["passed_counts"]["antisymmetry"] < doc["trials"] == 4


def test_derivation_examples():
    spec = standard_spec("A1", 2)
    m = standard_model("A1", 2)
    # constant loops with zero slant map to zero
    const = DoubleExtElement.from_loop(L, 0, m.cartan_matrix(1, L))
    assert apply_derivation(spec, Functional(()), const).is_zero()
    # weight vector scaling
    nu = Functional({1: Q(1, 2)})
    x = DoubleExtElement.from_loop(L, 2, m.basis_matrix(L, 0, 1))
    got = apply_derivation(spec, nu, x)
    scal = Cyc.i(L) * Cyc.rational(L, 2 + Q(1, 2))
    assert got == x.scale(scal)
    # linearity over a two-term element
    y = DoubleExtElement.from_loop(L, -1, m.basis_matrix(L, 1, 0))
    lhs = apply_derivation(spec, nu, x + y)
    assert lhs == apply_derivation(spec, nu, x) + apply_derivation(spec, nu, y)


def test_weight_decompose():
    m = standard_model("A1", 2)
    ident = ModeMatrix.identity(L, 2)
    comps = m.weight_components(ident)
    assert len(comps) == 1 and comps[0][0] is None
    unit = m.basis_matrix(L, 0, 1)
    comps = m.weight_components(unit)
    assert len(comps) == 1 and comps[0][0] == Root(((1, 1), (2, -1)))
    dense = ModeMatrix.from_rows(L, [[i + 2 * j + 1 for j in range(2)] for i in range(2)])
    comps = m.weight_components(dense)
    assert len(comps) <= 4
    total = ModeMatrix(L, 2, 1, [{}, {}])
    for _, comp in comps:
        total = total + comp
    assert total == dense


def test_mode_eigenspace_validation():
    spec = standard_spec("C2", 2)
    m = standard_model("C2", 2)
    x = m.mode_project(m.algebra_project(m.basis_matrix(L, 0, 2)), 0)  # long roots live at even modes
    assert m.entry_weight(0, 2) == ((1, 2),) and x
    good = DoubleExtElement.from_loop(L, 2, x)
    validate_element(spec, good)
    bad = DoubleExtElement.from_loop(L, 1, x)
    with pytest.raises(ValueError):
        validate_element(spec, bad)


@pytest.mark.parametrize("kind", [k for k in LARS_KINDS if KINDS[k].involution])
def test_validation_refuses_a_unit_off_the_involution(kind):
    # the bare unit E_01 is not fixed by tau = -Q x^T Q^-1, whatever the twist says
    spec, m = standard_spec(kind, 2), standard_model(kind, 2)
    unit = m.basis_matrix(L, 0, 1)
    with pytest.raises(ValueError, match="mode 0 matrix x is not 1 x under the model's involution -Q x"):
        validate_element(spec, DoubleExtElement.from_loop(L, 0, unit))
    x = m.algebra_project(unit)
    validate_element(spec, DoubleExtElement.from_loop(L, 0, x))
    if m.n_psi == 2:  # B2: E_01 misses the flipped zero vector, so x is even under the flip
        with pytest.raises(ValueError, match="mode 1 matrix x is not -1 x under the model's flip F x F"):
            validate_element(spec, DoubleExtElement.from_loop(L, 1, x))


def test_phi_hat_rejects_inadmissible_modes():
    import random

    from twistaff.autnorm import standardize
    from twistaff.loopalg import phi_hat
    from twistaff.sampling import random_operator

    rng = random.Random(44)
    spec = random_operator(rng, "C_unitary", 3, order_hint=3)
    cert = standardize(spec)
    if all(e == 0 for e in cert.exponents):  # need a genuinely twisted instance
        spec = random_operator(rng, "C_unitary", 3, order_hint=3)
        cert = standardize(spec)
    src = cert.source_spec()
    dst = cert.target_spec()
    m = cert.model
    Lc = cert.conductor
    # pick a root whose class is nonzero and feed it at a wrong mode
    from twistaff.affine import lars_finite_parts
    from twistaff.autnorm import mode_class

    for a in lars_finite_parts(cert.lars, cert.base):
        classes = mode_class(cert, a)
        bad = next((n for n in range(cert.orders[0])), None)
        if classes != (0,):
            off = (classes[0] + 1) % cert.orders[0]
            x = m.weight_space_basis(Lc, a.coeffs)[0]
            elem = DoubleExtElement.from_loop(Lc, off, x)
            with pytest.raises(ValueError):
                phi_hat(cert, src, dst, elem)
            return
    pytest.skip("sample produced an untwisted certificate")


def test_phi_hat_mode_relabel_diag_example():
    # the order-2 twist diag(1, -1): the crossing weight at source mode 1 lands at mode 0
    from twistaff.autnorm import OperatorSpec, standardize
    from twistaff.loopalg import phi_hat

    op = OperatorSpec("C", False, 2, ModeMatrix.diagonal(4, [1, -1]), 2)
    cert = standardize(op)
    src, dst = cert.source_spec(), cert.target_spec()
    m = cert.model
    Lc = cert.conductor
    e12 = m.basis_matrix(Lc, 0, 1)
    moved = phi_hat(cert, src, dst, DoubleExtElement.from_loop(Lc, 1, e12))
    assert moved == DoubleExtElement.from_loop(Lc, 0, e12)
    center = DoubleExtElement.central(Lc)
    assert phi_hat(cert, src, dst, center) == center
