import dataclasses
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistaff import DomainError
from twistaff.autnorm import (
    OperatorSpec,
    StandardizeError,
    _lift_with_orders,
    antiunitary_normal_form,
    automorphism_order,
    cartan_mode_vectors,
    matrix_order,
    mode_class,
    mode_class_vectors,
    operator_order,
    projective_order,
    standardize,
    verify_certificate,
)
from twistaff.cyclo import Cyc, ModeMatrix
from twistaff.rootdata import Functional, Root
from twistaff.sampling import random_operator

import conjugation
import elimination
import spectral

rows = ModeMatrix.from_rows
identity = ModeMatrix.identity


def diag(L, *entries):
    return ModeMatrix.diagonal(L, entries)


def finite_order_lift(spec):
    """The operator of exact finite order that the standardization lifts spec to."""
    return _lift_with_orders(spec)[0]


def test_finite_order_lift_rephases_projective_input():
    # B = zeta_3 * id has order 3 projectively trivial conjugation: order 1
    L = 12
    b = identity(L, 2).scale(Cyc.zeta(L, 4))
    spec = OperatorSpec("C", False, 2, b, 1)
    lifted = finite_order_lift(spec)
    assert lifted.matrix == identity(L, 2)
    # an operator already of the declared order is unchanged
    a = diag(L, 1, -1)
    spec2 = OperatorSpec("C", False, 2, a, 2)
    assert finite_order_lift(spec2).matrix == a


def test_finite_order_lift_antiunitary_square():
    # A = J o conj has A^2 = -1: kept as is, operator order 4
    L = 8
    j = rows(L, [[0, -1], [1, 0]])
    spec = OperatorSpec("C", True, 2, j, automorphism_order(OperatorSpec("C", True, 2, j, 1)))
    lifted = finite_order_lift(spec)
    assert operator_order(lifted) == 4


def test_declared_order_mismatch_is_an_error():
    L = 8
    spec = OperatorSpec("C", False, 2, diag(L, 1, -1), 4)
    with pytest.raises(StandardizeError):
        finite_order_lift(spec)


def eigenprojectors(a, m):
    """(k, P_k, rank) of each eigenspace of a, with a^m = 1, read off a's own power walk."""
    return [(s.k, spectral.projector(s), s.rank) for s in spectral.powers_of(a).eigenspaces(a.L, m, range(m))]


def test_eigensplit_examples_and_invariants():
    L = 8
    a = diag(L, 1, -1)
    projs = {k: p for k, p, _ in eigenprojectors(a, 2)}
    assert projs[0] == diag(L, 1, 0)
    assert projs[1] == diag(L, 0, 1)
    assert eigenprojectors(identity(L, 3), 1) == [(0, identity(L, 3), 3)]
    # 3-cycle permutation: three rank-1 projectors, exact idempotents resolving unity
    L = 12
    p3 = rows(L, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    projs = eigenprojectors(p3, 3)
    assert len(projs) == 3
    total = diag(L, 0, 0, 0)
    for k, p, rank in projs:
        assert p @ p == p
        assert rank == 1 == elimination.rank(p.to_rows())
        assert p == spectral.spectral_sum(p3, 3, k)
        zk = Cyc.zeta(L, (k * 4) % L)
        assert p3 @ p == p.scale(zk)
        for k2, p2, _ in projs:
            if k2 != k:
                assert not p @ p2
        total = total + p
    assert total == identity(L, 3)
    assert len(eigenprojectors(p3, matrix_order(p3))) == 3
    # a stated order the powers do not have is refused on the scalars
    with pytest.raises(StandardizeError, match="matrix does not have the stated finite order"):
        eigenprojectors(p3, 2)


def test_antiunitary_normal_form_plain_conjugation():
    # plain conjugation on C^2: one block with exponent 0, no fixed vector
    L = 8
    spec = OperatorSpec("C", True, 2, identity(L, 2), 2)
    form = antiunitary_normal_form(spec)
    assert len(form.blocks) == 1 and form.fixed_col is None
    assert form.blocks[0][0] == 0
    # on C^3: one block plus a fixed vector
    spec3 = OperatorSpec("C", True, 3, identity(L, 3), 2)
    form3 = antiunitary_normal_form(spec3)
    assert len(form3.blocks) == 1 and form3.fixed_col is not None


def test_antiunitary_normal_form_refuses_a_wrong_declared_order():
    # plain conjugation has order 2, as standardize reads it
    spec = OperatorSpec("C", True, 2, identity(8, 2), 4)
    with pytest.raises(StandardizeError, match="declared order 4 but the automorphism has exact order 2"):
        antiunitary_normal_form(spec)


def test_antiunitary_normal_form_quaternionic():
    # A^2 = -1 on C^2: a single block at the half exponent
    L = 8
    j = rows(L, [[0, -1], [1, 0]])
    spec = OperatorSpec("C", True, 2, j, 2)
    form = antiunitary_normal_form(spec)
    assert len(form.blocks) == 1 and form.fixed_col is None
    assert form.blocks[0][0] == form.half_order // 2


def test_normal_form_round_trip_on_seeded_operators():
    rng = random.Random(404)
    seen_fixed = 0
    for trial in range(12):
        dim = rng.choice([2, 3, 4, 5, 6])
        spec = random_operator(rng, "C_antiunitary", dim, order_hint=rng.choice([2, 3, 4, 5, 6]))
        form = antiunitary_normal_form(spec)
        assert 2 * len(form.blocks) + (1 if form.fixed_col is not None else 0) == dim
        seen_fixed += form.fixed_col is not None
        assert operator_order(spec) == 2 * form.half_order
    assert seen_fixed  # odd dimensions occur in the sample


def test_standardize_c_unitary_example():
    # diag(1, z3, z3^2) standardizes with slant (0, -1/3, -2/3)
    L = 12
    a = diag(L, Cyc.one(L), Cyc.zeta(L, 4), Cyc.zeta(L, 8))
    cert = standardize(OperatorSpec("C", False, 3, a, 3))
    assert cert.lars == "A1" and cert.psi_kind == "identity"
    assert cert.exponents == (0, 1, 2)
    assert cert.mu == Functional({2: Q(-1, 3), 3: Q(-2, 3)})
    assert verify_certificate(OperatorSpec("C", False, 3, a, 3), cert).all_passed


def test_standardize_r_families():
    rng = random.Random(31)
    seen = set()
    for _ in range(14):
        spec = random_operator(rng, "R", rng.choice([5, 6, 7]), order_hint=rng.choice([2, 3, 4]))
        cert = standardize(spec)
        seen.add(cert.lars)
        assert verify_certificate(spec, cert).all_passed
    assert "B2" in seen and ("B1" in seen or "D1" in seen)


def test_standardize_antiunitary_families():
    rng = random.Random(32)
    seen = set()
    for _ in range(8):
        spec = random_operator(rng, "C_antiunitary", rng.choice([4, 5, 6]), order_hint=rng.choice([2, 3]))
        cert = standardize(spec)
        seen.add(cert.lars)
        assert verify_certificate(spec, cert).all_passed
    assert seen == {"C2", "BC2"}


def test_standardize_verify_passes_all_families_larger_sizes():
    rng = random.Random(33)
    cases = [("C_unitary", 8, 8), ("H", 8, 6), ("R", 8, 8), ("C_antiunitary", 7, 6)]
    for fam, dim, order in cases:
        spec = random_operator(rng, fam, dim, order_hint=order)
        cert = standardize(spec)
        assert verify_certificate(spec, cert).all_passed, fam


def test_mode_class_examples():
    # identity twist: every root sits at the zero class
    L = 8
    cert = standardize(OperatorSpec("C", False, 3, identity(L, 3), 1))
    for a in (Root(((1, 1), (2, -1))), Root(((1, 1), (3, -1)))):
        assert mode_class(cert, a) == (0,)
    # diag(1, -1): the crossing root flips sign, class 1 mod 2
    cert2 = standardize(OperatorSpec("C", False, 2, diag(L, 1, -1), 2))
    assert mode_class(cert2, Root(((1, 1), (2, -1)))) == (1,)
    for a in (Root(((1, 1), (2, -1))),):
        plus = mode_class(cert2, a)
        minus = mode_class(cert2, -a)
        n = cert2.orders[0]
        assert sorted((-m) % n for m in plus) == sorted(minus)


def test_mode_class_vectors_span_and_eigenproperty():
    rng = random.Random(35)
    spec = random_operator(rng, "C_antiunitary", 5, order_hint=3)
    cert = standardize(spec)
    from twistaff.affine import lars_finite_parts

    L = cert.conductor
    n_phi = cert.orders[0]
    for a in lars_finite_parts(cert.lars, cert.base):
        vecs = mode_class_vectors(cert, a)
        assert len(vecs) == len(cert.model.weight_space_basis(L, a.coeffs))
        for m, v in vecs:
            img = _dense_phi_tilde_inverse(cert, v)
            assert img == v.scale(Cyc.zeta(L, (m * (L // n_phi)) % L))
    for m, v in cartan_mode_vectors(cert):
        img = _dense_phi_tilde_inverse(cert, v)
        assert img == v.scale(Cyc.zeta(L, (m * (L // n_phi)) % L))


def test_tampered_certificates_are_detected():
    rng = random.Random(36)
    spec = random_operator(rng, "R", 6, order_hint=4)
    cert = standardize(spec)
    assert verify_certificate(spec, cert).all_passed

    tampered_mu = dataclasses.replace(
        cert, mu=cert.mu + Functional({1: Q(1, 7)})
    )
    assert not verify_certificate(spec, tampered_mu).all_passed

    exps = list(cert.exponents)
    exps[0] += 1
    tampered_exp = dataclasses.replace(cert, exponents=tuple(exps))
    assert not verify_certificate(spec, tampered_exp).all_passed

    d = cert.basis_change.ncols
    corner = ModeMatrix.from_entries(cert.conductor, (d, d), {(0, 0): 1})
    tampered_basis = dataclasses.replace(cert, basis_change=cert.basis_change + corner)
    assert not verify_certificate(spec, tampered_basis).all_passed
    # the two checks that read the basis change refuse it on the merits
    checks = {name: (ok, detail) for name, ok, detail in verify_certificate(spec, tampered_basis).items}
    assert checks["reconstruction"] == (False, "reconstruction failed: operator != basis_change * standard form")
    assert checks["columns_orthogonal"] == (False, "basis columns are not orthogonal with recorded norms")

    norms = list(cert.col_norms)
    norms[0] = norms[0] * Cyc.rational(cert.conductor, 2)
    tampered_norms = dataclasses.replace(cert, col_norms=tuple(norms))
    assert not verify_certificate(spec, tampered_norms).all_passed


def test_a_program_fault_in_a_check_is_raised_not_itemized(monkeypatch):
    # a failed check raises DomainError (StandardizeError is one); any other error is a fault
    from twistaff import autnorm

    spec = random_operator(random.Random(36), "R", 6, order_hint=4)
    cert = standardize(spec)

    def broken(v, col_norms):
        raise TypeError("a fault in the column check")

    monkeypatch.setattr(autnorm, "_check_columns", broken)
    with pytest.raises(TypeError, match="a fault in the column check"):
        verify_certificate(spec, cert)


def test_operator_spec_json_round_trip():
    rng = random.Random(37)
    spec = random_operator(rng, "C_antiunitary", 4, order_hint=2)
    again = OperatorSpec.from_json(spec.to_json())
    assert again.field == spec.field and again.antiunitary == spec.antiunitary
    assert again.matrix == spec.matrix
    assert again.declared_order == spec.declared_order


def test_structure_validation():
    L = 8
    with pytest.raises(StandardizeError):
        OperatorSpec("R", True, 2, identity(L, 2), 1)
    bad = rows(L, [[1, 1], [0, 1]])
    with pytest.raises(StandardizeError):
        finite_order_lift(OperatorSpec("C", False, 2, bad, 1))
    img = identity(L, 2).scale(Cyc.i(L))
    with pytest.raises(StandardizeError):
        finite_order_lift(OperatorSpec("R", False, 2, img, 1))


def test_block_form_linear_part_reconstructs_operator():
    rng = random.Random(61)
    spec = random_operator(rng, "C_antiunitary", 5, order_hint=3)
    form = antiunitary_normal_form(spec)
    # A(V w) = V Std conj(w): u conj(V) = V Std in input coordinates
    v = form.basis_change
    lifted = spec.matrix.lift(form.conductor)
    assert lifted @ v.conj() == v @ form.block_matrix()


def _family_certificates():
    rng = random.Random(41)
    cases = [("C_unitary", 4, 3), ("H", 4, 4), ("R", 5, 4), ("C_antiunitary", 5, 3)]
    for fam, dim, order in cases:
        spec = random_operator(rng, fam, dim, order_hint=order)
        yield fam, spec, standardize(spec)


def test_mode_class_is_the_residues_of_the_grading():
    from twistaff.affine import lars_finite_parts

    for fam, _, cert in _family_certificates():
        roots = lars_finite_parts(cert.lars, cert.base)
        classes = [mode_class(cert, a) for a in roots]
        # a fresh copy grades from scratch, in the other order
        fresh = dataclasses.replace(cert)
        for a, residues in zip(roots, classes):
            assert residues == tuple(m for m, _ in mode_class_vectors(fresh, a)), (fam, a)
            assert len(residues) == len(cert.model.weight_space_basis(cert.conductor, a.coeffs))


def test_grading_is_computed_once_per_certificate_and_root(monkeypatch, tmp_path):
    import json

    from twistaff import autnorm
    from twistaff.affine import lars_finite_parts
    from twistaff.cli import main

    computed = []
    grade = autnorm._grade_weight_space

    def counting(cert, a):
        computed.append((cert.lars, cert.rank, a))
        return grade(cert, a)

    monkeypatch.setattr(autnorm, "_grade_weight_space", counting)
    _, spec, cert = next(_family_certificates())
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"operator": spec.to_json()}))
    # six sampled elements and the Weyl check all read one grading
    out = tmp_path / "out.json"
    assert main(["check-isom", "--input", str(path), "--count", "3", "--output", str(out)]) == 0
    roots = lars_finite_parts(cert.lars, cert.base)
    want = [(cert.lars, cert.rank, a) for a in roots]
    assert sorted(computed, key=repr) == sorted(want, key=repr)
    assert cartan_mode_vectors(cert) is cartan_mode_vectors(cert)


@pytest.mark.parametrize(
    "family, seed, dim, hint",
    [
        ("C_unitary", 1, 4, 3),
        ("H", 1, 4, 4),
        ("R", 1, 5, 3),
        ("R", 0, 5, 2),  # B1 on the negated operator
        ("C_antiunitary", 1, 5, 4),  # BC2
        ("C_antiunitary", 2, 4, 6),  # C2
        ("C_unitary", 0, 4, 2),  # rephased
        ("H", 0, 6, 3),
    ],
)
def test_standardize_validates_once_and_reads_the_order_once(monkeypatch, family, seed, dim, hint):
    """One validation and one power walk, which the eigenspaces read: projective_order, which
    drops the walk's powers, is not called at all.

    The d x d product-kernel calls are the validation's (one, two for H), the order matrix
    u conj(u) of an antiunitary u, the walk's k - 1 products up to its projective order k, and
    the reconstruction (two) and column (one) checks: a second power walk or a projector built
    as a matrix shows here."""
    from collections import Counter

    from twistaff import autnorm, cyclo

    spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    k, _ = projective_order(autnorm._order_matrix(spec))
    square, real = [], cyclo.mat_product_sum

    def kernel(products):
        out = real(products)
        square.append((len(out.rows), out.ncols) == (dim, dim))
        return out

    monkeypatch.setattr(cyclo, "mat_product_sum", kernel)
    calls = Counter()
    for name in ("validate_operator", "_power_walk", "projective_order"):

        def counting(*args, _real=getattr(autnorm, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(autnorm, name, counting)
    cert = standardize(spec)
    assert cert.negated == ((family, seed) == ("R", 0))
    assert calls["validate_operator"] == 1
    assert calls["_power_walk"] == 1
    assert calls["projective_order"] == 0
    assert sum(square) == k - 1 + {"C_unitary": 4, "R": 4, "H": 5, "C_antiunitary": 5}[family]
    # the orders recorded on the certificate are the ones the independent check finds
    monkeypatch.undo()
    assert verify_certificate(spec, cert).all_passed
    lifted = finite_order_lift(spec)
    if cert.negated:
        lifted = dataclasses.replace(lifted, matrix=-lifted.matrix)
    assert cert.operator_order == operator_order(lifted)
    assert cert.orders[0] == automorphism_order(spec)


def test_replaced_certificate_gets_its_own_grading():
    from twistaff.affine import lars_finite_parts

    rng = random.Random(42)
    spec = random_operator(rng, "C_unitary", 3, order_hint=3)
    cert = standardize(spec)
    a = next(a for a in lars_finite_parts(cert.lars, cert.base) if mode_class(cert, a) != (0,))
    before = mode_class(cert, a)
    pieces = cartan_mode_vectors(cert)
    # the identity exponents make the twist trivial: every root sits at residue 0
    trivial = dataclasses.replace(cert, exponents=(0,) * cert.rank)
    assert trivial.grading == {}
    assert mode_class(trivial, a) == (0,)
    assert mode_class(cert, a) == before
    assert cartan_mode_vectors(trivial) is not pieces
    assert all(m == 0 for m, _ in cartan_mode_vectors(trivial))
    # a wrong automorphism order leaves eigenvalues that are not its roots of unity
    wrong_order = dataclasses.replace(cert, orders=(1, cert.orders[1]))
    with pytest.raises(StandardizeError, match="do not fill"):
        mode_class(wrong_order, a)


def test_dimension_and_order_bounds_are_named():
    L = 8
    with pytest.raises(StandardizeError, match="dimension must be at least 1"):
        OperatorSpec("C", False, 0, identity(L, 0), 1)
    # a rational rotation has infinite order
    rot = rows(L, [[Q(3, 5), Q(-4, 5)], [Q(4, 5), Q(3, 5)]])
    with pytest.raises(StandardizeError, match="projective_order bound 512"):
        standardize(OperatorSpec("R", False, 2, rot, 4))


#: dim-2 operators whose working field would be 960: (matrix builder, antiunitary, order)
OVERSIZED = {
    # the C_unitary shift: its square is zeta_480, so the lift's rephasing needs zeta_960
    "shift": (lambda: rows(480, [[0, 1], [Cyc.zeta(480), 0]]), False, 2),
    # order 240: _working_form needs the 960-th roots of unity
    "diagonal": (lambda: diag(240, 1, Cyc.zeta(240)), False, 240),
    # order 240, operator order 480: _antiunitary_blocks needs the 960-th roots of unity
    "antiunitary": (lambda: rows(240, [[0, Cyc.zeta(240)], [1, 0]]), True, 240),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_a_working_field_above_the_bound_is_refused(name, time_limit):
    build, antiunitary, order = OVERSIZED[name]
    spec = OperatorSpec("C", antiunitary, 2, build(), order)
    with time_limit(2), pytest.raises(DomainError, match="MAX_CONDUCTOR = 480"):
        standardize(spec)


def test_conductor_enlargement_bound_is_named():
    from twistaff.autnorm import (
        MAX_CONDUCTOR,
        _conjugation_block_decomposition,
        _Enlarge,
        _pair_conjugation_fixed,
    )

    L = 8
    e1, e2 = identity(L, 2).columns()
    # sqrt(491) needs conductor 4 * 491, past the cap: no pairing
    assert _pair_conjugation_fixed(e1, Cyc.one(L), e2, Cyc.rational(L, 491)) is None
    # real vectors of squared norms 1 and 491 = 21^2 + 7^2 + 1^2 under complex
    # conjugation: neither a B-plane nor a fixed-vector pairing exists, and
    # the refusal names the conductor bound
    span = [[1, 0, 0, 0], [0, 21, 0, 0], [0, 7, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(StandardizeError, match=f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"):
        _conjugation_block_decomposition(identity(L, 4), 2, rows(L, span).columns())
    # squared norms 1 and 5 = 2^2 + 1^2 pair once sqrt(5) is adjoined at conductor 40:
    # at 8 the decomposition asks for that conductor, and at 40 it completes
    span = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(_Enlarge) as enlarged:
        _conjugation_block_decomposition(identity(L, 4), 2, rows(L, span).columns())
    L = enlarged.value.conductor
    assert L == 40
    plus, minus, norms, fixed = _conjugation_block_decomposition(identity(L, 4), 2, rows(L, span).columns())
    assert (len(plus), len(minus), len(norms), fixed) == (1, 1, 1, None)


def test_square_root_factor_bound_is_named(time_limit):
    from twistaff.autnorm import _Enlarge, _pair_conjugation_fixed

    def pair(L, q):
        e1, e2 = identity(L, 2).columns()
        return _pair_conjugation_fixed(e1, Cyc.one(L), e2, Cyc.rational(L, q))

    # sqrt(2 * 10**4) = 100 sqrt(2) is adjoined at conductor 8
    with pytest.raises(_Enlarge) as enlarged:
        pair(4, 2 * 10**4)
    assert enlarged.value.conductor == 8
    # so is sqrt(2 * 10**6) = 1000 sqrt(2): the square factor 10**6 is no bound
    with pytest.raises(_Enlarge) as enlarged:
        pair(4, 2 * 10**6)
    assert enlarged.value.conductor == 8
    plus, _ = pair(8, 2 * 10**6)
    (second,) = plus.to_rows()[1]
    assert second * second == Cyc.rational(8, Q(-1, 2 * 10**6))  # i / (1000 sqrt(2)), squared
    # the squarefree part of p * q has primes far past MAX_CONDUCTOR // 4: no
    # trial division reaches them, and the pairing is refused at once (the
    # refusal's text, which names the bound, is pinned in the test above)
    p, q = 10000000000000000051, 20000000000000000011
    with time_limit(5):
        assert pair(4, p * q) is None


def test_rational_square_root_stall_reproducer_standardizes(time_limit):
    # R, dim 6, hint 2, seed 5 once sat in sympy's factoring of y**2 - q for
    # rationals q such as -41/16 at conductor 328
    spec = random_operator(random.Random(5), "R", 6, order_hint=2)
    with time_limit(10):
        cert = standardize(spec)
    assert verify_certificate(spec, cert).all_passed


def _enlarging_r_operator():
    """An R operator whose +1 eigenspace has two anisotropic vectors that pair through a
    B-plane only after sqrt(5/4) is adjoined, which takes the working conductor 8 to 40."""
    matrix = [
        [Q(3, 5), Q(-4, 5), 0, 0, 0],
        [Q(-4, 5), Q(-3, 5), 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    return OperatorSpec("R", False, 5, rows(4, matrix), 2)


def test_block_decomposition_enlarges_the_conductor():
    import hashlib
    import json

    spec = _enlarging_r_operator()
    cert = standardize(spec)
    assert (cert.lars, cert.rank, cert.conductor) == ("B1", 2, 40)
    assert verify_certificate(spec, cert).all_passed
    text = json.dumps(cert.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1b37c0a342975e2267770388acc271e6047374f69c1a7ed433471d6d9d36ca9e"
    )


#: one seeded operator per affine kind: (family, seed, dim, order hint)
KIND_OPERATORS = {
    "A1": ("C_unitary", 0, 4, 3),
    "B1": ("R", 0, 5, 3),
    "C1": ("H", 0, 4, 4),
    "D1": ("R", 0, 6, 2),
    "B2": ("R", 2, 6, 2),
    "C2": ("C_antiunitary", 0, 6, 4),
    "BC2": ("C_antiunitary", 0, 5, 3),
}


def _kind_certificate(kind):
    family, seed, dim, hint = KIND_OPERATORS[kind]
    cert = standardize(random_operator(random.Random(seed), family, dim, order_hint=hint))
    assert cert.lars == kind
    return cert


def _dense_phi_tilde_inverse(cert, x):
    """The reference: D* x D for the linear standard form D = U_1 T, psi~(U_1* x U_1) otherwise."""
    L = x.L
    if cert.family == "C_antiunitary":
        u1 = cert.u_matrix(L)
        return cert.model.psi_tilde(u1.conj_transpose() @ x @ u1)
    dhat = cert.standard_linear_matrix(L)
    return dhat.conj_transpose() @ x @ dhat


@pytest.mark.parametrize("kind", sorted(KIND_OPERATORS))
def test_phi_tilde_inverse_is_a_phase_times_psi_tilde(kind):
    """On the weight-a space the dense phi~^-1 is zeta_L^s(a) psi~, s(a) = -(L / D) sum_j a_j e_j
    for the exponents e over their denominator D, and psi~ is an involution."""
    from twistaff.affine import lars_finite_parts

    cert = _kind_certificate(kind)
    model = cert.model
    L = cert.conductor
    step = L // cert.exp_denominator
    assert step * cert.exp_denominator == L
    for a in lars_finite_parts(cert.lars, cert.base):
        s = -step * sum(c * cert.exponents[j - 1] for j, c in a.coeffs) % L
        for b in model.weight_space_basis(L, a.coeffs):
            want = model.psi_tilde(b).scale(Cyc.zeta(L, s))
            assert _dense_phi_tilde_inverse(cert, b) == want, (kind, a)
    rng = random.Random(kind)
    d = model.dim
    for _ in range(4):
        x = rows(L, [
            [Cyc.rational(L, Q(rng.randint(-5, 5), rng.randint(1, 3))) * Cyc.zeta(L, rng.randrange(L)) for _ in range(d)]
            for _ in range(d)
        ])
        assert model.psi_tilde(model.psi_tilde(x)) == x


@pytest.mark.parametrize(
    "seed, dim, hint", [(0, 4, 2), (0, 6, 4), (0, 5, 3), (1, 5, 3)]  # C2, C2, BC2, BC2
)
def test_cartan_pieces_are_an_eigenbasis_of_the_cartan(seed, dim, hint):
    cert = standardize(random_operator(random.Random(seed), "C_antiunitary", dim, order_hint=hint))
    model = cert.model
    L = cert.conductor
    cartan = elimination.span_basis(model.algebra_project(model.basis_matrix(L, i, i)) for i in range(model.dim))
    pieces = [v for _, v in cartan_mode_vectors(cert)]
    assert len(pieces) == len(cartan)
    # the pieces mix the orbits of the projected units, so independence is read by elimination
    assert len(elimination.span_basis(pieces)) == len(pieces)


@pytest.mark.parametrize(
    "family, seed, dim, hint",
    [("C_unitary", 1, 4, 3), ("H", 1, 4, 4), ("R", 1, 5, 3), ("R", 0, 5, 2), ("C_antiunitary", 1, 5, 4)],
)
def test_verification_takes_the_projective_order_once(monkeypatch, family, seed, dim, hint):
    from twistaff import autnorm

    spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    cert = standardize(spec)
    calls = []
    real = autnorm.projective_order

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(autnorm, "projective_order", counting)
    assert verify_certificate(spec, cert).all_passed
    assert len(calls) == 1


def test_verification_details_for_a_wrong_order_and_a_non_unitary_operator():
    spec = random_operator(random.Random(3), "C_unitary", 3, order_hint=3)
    cert = standardize(spec)
    n = spec.declared_order
    wrong = dataclasses.replace(spec, declared_order=n + 1)
    checks = {name: (ok, detail) for name, ok, detail in verify_certificate(wrong, cert).items}
    assert checks["reconstruction"] == (
        False, f"declared order {n + 1} but the automorphism has exact order {n}"
    )
    assert checks["declared_order"] == (False, "declared order mismatch")
    # the declared-order check does not depend on unitarity
    scaled = dataclasses.replace(spec, matrix=spec.matrix.scale(2))
    checks = {name: (ok, detail) for name, ok, detail in verify_certificate(scaled, cert).items}
    assert checks["reconstruction"] == (False, "matrix is not unitary")
    assert checks["declared_order"] == (True, f"order {n}")


def test_certificates_of_one_kind_share_the_weight_space_bases(monkeypatch):
    from twistaff import autnorm
    from twistaff.affine import lars_finite_parts

    read = {}  # id of the certificate -> the bases it graded, in order
    real = autnorm._grade

    def recording(cert, basis):
        read.setdefault(id(cert), []).append(basis)
        return real(cert, basis)

    monkeypatch.setattr(autnorm, "_grade", recording)
    certs = [standardize(random_operator(random.Random(s), "C_unitary", 4, order_hint=3)) for s in (0, 1)]
    assert len({(c.lars, c.rank, c.conductor) for c in certs}) == 1
    for cert in certs:
        for a in lars_finite_parts(cert.lars, cert.base):
            mode_class_vectors(cert, a)
    first, second = (read[id(c)] for c in certs)
    assert len(first) == len(second) > 0
    for b1, b2 in zip(first, second):
        assert isinstance(b1, tuple) and b1 is b2


#: seeded probe-grid operators (family, seed, dim, order hint) whose conjugation block
#: decompositions reach, between them, every branch: a B-plane (the R one), a stage-1
#: isotropic vector (14, 4, 2), a B-plane with cw = 0 (4, 5, 2), a B-plane with a
#: leftover (2, 5, 2) and a fixed-vector pairing (28, 5, 2); the H ones walk only
#: J^2 = -1 eigenspaces, where every vector is isotropic
BLOCK_OPERATORS = [
    ("R", 1, 5, 2),
    ("C_antiunitary", 14, 4, 2),
    ("C_antiunitary", 4, 5, 2),
    ("C_antiunitary", 2, 5, 2),
    ("C_antiunitary", 28, 5, 2),
    ("H", 0, 4, 4),
    ("H", 0, 6, 3),
]


@pytest.mark.parametrize("family, seed, dim, hint", BLOCK_OPERATORS)
def test_block_decomposition_gives_isotropic_orthogonal_blocks(monkeypatch, family, seed, dim, hint):
    """What the walk no longer re-tests: each plus is B-isotropic with minus = theta(plus) of
    equal norm, the returned norm, all block vectors and the fixed vector are orthogonal, the
    fixed vector is theta-fixed, and the blocks and the fixed vector fill the projector's rank."""
    from itertools import combinations

    from twistaff import autnorm

    decompositions = []  # (u, eigenspace, output) of every self-paired eigenspace the walk splits
    real = autnorm._conjugation_block_decomposition

    def recording(u, rank, space):
        out = real(u, rank, space)
        decompositions.append((u, space, out))
        return out

    monkeypatch.setattr(autnorm, "_conjugation_block_decomposition", recording)
    standardize(random_operator(random.Random(seed), family, dim, order_hint=hint))
    assert decompositions
    hdot = autnorm._hdot
    for u, space, (pluses, minuses, norms, fixed) in decompositions:
        theta = autnorm._antilinear(u)
        assert len(pluses) == len(minuses) == len(norms)
        for plus, minus, q in zip(pluses, minuses, norms):
            assert not hdot(plus, theta(plus))
            assert minus == theta(plus)
            assert hdot(plus, plus) == hdot(minus, minus) == q
        vectors = [v for block in zip(pluses, minuses) for v in block] + ([fixed] if fixed is not None else [])
        for x, y in combinations(vectors, 2):
            assert not hdot(x, y)
        if fixed is not None:
            assert theta(fixed) == fixed
        assert len(vectors) == space.rank == elimination.rank(spectral.projector(space).to_rows())


#: seeded operators (family, seed, dim, order hint) with J^2 = -1 eigenspaces of ranks 2 and 4:
#: every self-paired one for H, and the 2k = N one of u conj(u) for an antiunitary operator
MINUS_ONE_OPERATORS = [
    ("H", 0, 4, 4),
    ("H", 1, 6, 3),
    ("H", 2, 6, 2),
    ("C_antiunitary", 0, 4, 2),
    ("C_antiunitary", 1, 5, 4),
    ("C_antiunitary", 3, 7, 4),
]


@pytest.mark.parametrize("family, seed, dim, hint", MINUS_ONE_OPERATORS)
def test_the_block_walk_where_j_squares_to_minus_one_is_the_sigma_stable_gram_schmidt(
    monkeypatch, family, seed, dim, hint
):
    """Where J^2 = -1, B(v, v) = <v, Jv> = 0 for every v, so the walk's first stage adds each
    reduced column as its block, against the same ordered span and with the same stop at the
    rank: its plus and minus vectors and norms are the sigma-stable Gram-Schmidt's, and no
    fixed vector comes out."""
    from twistaff import autnorm

    signs, real = [], autnorm._conjugation_block_decomposition

    def comparing(u, rank, space):
        out = real(u, rank, space)
        theta = autnorm._antilinear(u)
        v = next(c for c in space if c)
        signs.append(1 if theta(theta(v)) == v else -1)
        if signs[-1] == -1:
            assert theta(theta(v)) == -v
            assert out[:3] == spectral.sigma_stable_gram_schmidt(space, rank, theta)
            assert out[3] is None
        return out

    monkeypatch.setattr(autnorm, "_conjugation_block_decomposition", comparing)
    spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    assert verify_certificate(spec, standardize(spec)).all_passed
    assert -1 in signs
    if family == "H":
        assert set(signs) == {-1}


def test_an_isotropic_refusal_keeps_its_message():
    spec = random_operator(random.Random(4), "C_antiunitary", 3, order_hint=3)
    with pytest.raises(StandardizeError) as refused:
        standardize(spec)
    assert str(refused.value) == (
        "cannot complete the block normal form exactly: no reachable isotropic vectors or "
        "fixed-vector pairings in the working cyclotomic field or an enlargement up to "
        "MAX_CONDUCTOR = 480 (only for rationals)"
    )


#: (seed, hint) of the dim-3 C_antiunitary operators refused for want of an isotropic vector
ISOTROPIC_REFUSALS = ((4, 3), (4, 4), (18, 2), (18, 3), (18, 4))
#: antiunitary diagonal blocks that pad them to dims 5 and 7, where rank 2 or more is possible
PADS = ((1, 1), (1, 1, 1, 1), (1, -1))


@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("seed,hint", ISOTROPIC_REFUSALS)
def test_padded_isotropic_refusals_keep_their_message(seed, hint, pad):
    """Padding does not help: the walk still builds an isotropic vector whose root
    (such as sqrt(1 + sqrt 2)) no cyclotomic field holds."""
    spec = random_operator(random.Random(seed), "C_antiunitary", 3, order_hint=hint)
    with pytest.raises(StandardizeError, match="no reachable isotropic vectors or fixed-vector pairings"):
        standardize(conjugation.padded(spec, pad))


@pytest.mark.parametrize("L", [8, 12, 24])
def test_square_roots_exist_per_square_class(L):
    """sqrt(x) exists exactly when sqrt(x c^2) does, for nonzero c; a rational's root, of
    either sign, asks for the same enlargement either way.  So the fixed-vector pairing
    needs no retry with sqrt(q1 q2) = sqrt((q1 / q2) q2^2)."""
    from twistaff.autnorm import _Enlarge, _sqrt
    from twistaff.cyclo import cyc_sqrt

    rng = random.Random(L)

    def draw(rational, square):
        """A seeded nonzero element, rational or not, and a square when asked."""
        while True:
            x = Cyc.rational(L, Q(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 6)))
            if not rational:
                for _ in range(2):
                    x = x + Cyc.zeta(L, rng.randrange(1, L)) * Cyc.rational(L, Q(rng.randint(-4, 4), rng.randint(1, 3)))
            x = x * x if square else x
            if x and x.is_rational() == rational:
                return x

    def enlargement(q):
        try:
            return _sqrt(q) is not None
        except _Enlarge as enlarged:
            return enlarged.conductor

    roots, enlargements = set(), set()
    for rational in (True, False):
        for t in range(8):
            x, c = draw(rational, square=t % 4 == 0), draw(rational, square=False)
            has_root = cyc_sqrt(x) is not None
            assert (cyc_sqrt(x * c * c) is not None) == has_root
            roots.add(has_root)
            if rational:
                enlargements.add(enlargement(x))
                assert enlargement(x * c * c) == enlargement(x)
    assert roots == {True, False}
    assert any(type(e) is int for e in enlargements)


def test_a_negative_rational_asks_for_the_root_of_its_absolute_value():
    """i is in every field, so sqrt(-q) needs the field of sqrt(q): sqrt(-5) at conductor 8
    asks for 40, as sqrt(5) does, and sqrt(-4) is 2i."""
    from twistaff.autnorm import _Enlarge, _sqrt

    L = 8
    with pytest.raises(_Enlarge) as enlarged:
        _sqrt(Cyc.rational(L, -5))
    assert enlarged.value.conductor == 40
    assert _sqrt(Cyc.rational(L, -4)) == Cyc.i(L) * 2


# -- the eigenspaces: read off the power walk, and every walk stops at tr(P) ----------------


def _lift_reference(spec, L, negated=False):
    """The finite-order linear map whose eigenspaces the walk reads, at conductor L, built
    without the power walk's phases: the lifted operator (negated when the R sign negates it), or
    u conj(u) for an antiunitary u."""
    if spec.antiunitary:
        u = spec.matrix.lift(L)
        return u @ u.conj()
    a = finite_order_lift(spec).matrix.lift(L)
    return -a if negated else a


def _check_eigenspaces(spaces, a, m, exponents):
    """Every eigenspace's columns are its spectral sum's and of the kernel projector, its rank
    is the elimination rank, and exactly the nonzero projectors among the exponents appear."""
    reference = [(k, spectral.spectral_sum(a, m, k)) for k in exponents]
    reference = [(k, p) for k, p in reference if p]
    assert [s.k for s in spaces] == [k for k, _ in reference]
    assert reference == spectral.kernel_projectors(a, m, exponents)
    for space, (_, p) in zip(spaces, reference):
        assert list(space) == p.columns()
        assert space.rank == elimination.rank(p.to_rows())


#: one seeded operator per family (family, seed, dim, order hint) on which a walk stopped
#: one vector short of its projector's rank misses a column
WALK_OPERATORS = [("C_unitary", 0, 4, 2), ("H", 0, 6, 3), ("R", 0, 5, 2), ("C_antiunitary", 0, 5, 2)]


@pytest.mark.parametrize("operator", [*WALK_OPERATORS, "enlarging"])
def test_walks_read_kernel_projectors_and_stop_at_their_rank(monkeypatch, operator):
    """The eigenspaces a standardization reads have the columns of the spectral sums and of
    the kernel projectors; over all exponents those are idempotent and sum to the identity;
    each eigenspace walk places exactly tr(P) vectors, its rank."""
    from twistaff import autnorm

    if operator == "enlarging":
        spec = _enlarging_r_operator()
    else:
        family, seed, dim, hint = operator
        spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    readings, walks = [], []
    real_spaces, real_gs, real_blocks = (
        autnorm._Powers.eigenspaces, autnorm._gram_schmidt, autnorm._conjugation_block_decomposition,
    )

    def eigenspaces(powers, L, m, exponents):
        out = real_spaces(powers, L, m, exponents)
        readings.append((powers, L, m, exponents, out))
        return out

    def gram_schmidt(vectors, rank):
        basis, norms = real_gs(vectors, rank)
        walks.append((rank, len(basis), elimination.rank(ModeMatrix.from_columns(list(vectors)).to_rows())))
        return basis, norms

    def blocks(u, rank, space):
        out = real_blocks(u, rank, space)
        walks.append((rank, 2 * len(out[0]) + (out[3] is not None), elimination.rank(spectral.projector(space).to_rows())))
        return out

    monkeypatch.setattr(autnorm._Powers, "eigenspaces", eigenspaces)
    monkeypatch.setattr(autnorm, "_gram_schmidt", gram_schmidt)
    monkeypatch.setattr(autnorm, "_conjugation_block_decomposition", blocks)
    cert = standardize(spec)
    assert verify_certificate(spec, cert).all_passed
    if operator == "enlarging":
        # the R sign's reading of k = 0 and 1, then the walk, restarted at 40
        assert cert.conductor == 40
        assert [(L, e) for _, L, _, e, _ in readings] == [(8, (0, 1)), (8, range(2)), (40, range(2))]
    assert readings and walks
    first = readings[0][0]
    for powers, L, m, exponents, out in readings:
        a = _lift_reference(spec, L, negated=powers != first)  # the walk of a negated R operator reads -a
        _check_eigenspaces(out, a, m, exponents)
        full = [spectral.projector(s) for s in real_spaces(powers, L, m, range(m))]
        assert all(p @ p == p for p in full)
        assert sum(full[1:], full[0]) == identity(L, len(a.rows))
    for rank, placed, eliminated in walks:
        assert rank == placed == eliminated


def test_each_r_standardization_walks_once(monkeypatch):
    """The R sign is read off the ranks of the self-paired eigenspaces before the walk, so every
    R standardization, negated or not, runs ``_antilinear_blocks`` once; a restart after an
    enlargement is part of that one walk."""
    from twistaff import autnorm

    real, depth, walks = autnorm._antilinear_blocks, [], []

    def counting(*args):
        walks.append(not depth)
        depth.append(None)
        try:
            return real(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(autnorm, "_antilinear_blocks", counting)
    specs = [_enlarging_r_operator()]
    specs += [random_operator(random.Random(seed), "R", dim, order_hint=hint)
              for seed in range(6) for dim in (4, 5) for hint in (2, 3, 4, 6)]
    seen = set()
    for spec in specs:
        walks.clear()
        cert = standardize(spec)
        assert sum(walks) == 1, (spec.dim, cert.negated)
        seen.add((cert.negated, len(walks) > 1))
    assert seen >= {(True, False), (False, True)}  # a negated operator, and a restarted walk


def _rephased_c_unitary():
    """A C_unitary operator w S w* with S^3 = zeta_12, S the cyclic shift with one entry zeta_12
    and w a seeded unitary: its lift needs a cube root of zeta_12^-1, at conductor 36 = 3 * 12."""
    L = 12
    w = random_operator(random.Random(3), "C_unitary", 3, order_hint=3).matrix
    u = w @ rows(L, [[0, 0, Cyc.zeta(L)], [1, 0, 0], [0, 1, 0]]) @ w.conj_transpose()
    return OperatorSpec("C", False, 3, u, automorphism_order(OperatorSpec("C", False, 3, u, 1)))


def _lift_eigenspaces(spec, negated=False, L=None):
    """Check the eigenspaces of the lift (of its negation, for a negated R operator) at L, by
    default the least conductor holding the 4m-th roots of unity, over every exponent, against
    the references; return the lift's (lifted spec, powers, order)."""
    lifted, _, m, powers = _lift_with_orders(spec)
    if spec.antiunitary:
        m //= 2  # the order of u conj(u)
    if negated:
        powers, m = powers.negated(), matrix_order(-lifted.matrix)
    L = L or math.lcm(lifted.conductor, 4 * m)
    _check_eigenspaces(powers.eigenspaces(L, m, range(m)), _lift_reference(spec, L, negated), m, range(m))
    return lifted, powers, m


#: seeded operators on the paths of the power walk's index arithmetic: (builder, reading)
EIGENSPACE_PATHS = {
    "C_unitary rephased at n L": (_rephased_c_unitary, {}),
    "R, lam0 = -1": (lambda: random_operator(random.Random(9), "R", 4, order_hint=4), {}),
    "H, lam0 = -1": (lambda: random_operator(random.Random(12), "H", 4, order_hint=4), {}),
    "R negated": (lambda: random_operator(random.Random(0), "R", 5, order_hint=3), {"negated": True}),
    "antiunitary u conj(u)": (lambda: random_operator(random.Random(0), "C_antiunitary", 4, order_hint=4), {}),
    "enlarging, restarted at 40": (_enlarging_r_operator, {"L": 40}),
}


@pytest.mark.parametrize("path", sorted(EIGENSPACE_PATHS))
def test_eigenspaces_from_the_power_walk_on_every_path(path):
    """Every column and rank of every eigenspace equals the spectral sum's and the kernel
    projector's, on each path of a^j = zeta^e u^(j mod k): the rephasing, the sign lam0 = -1 on
    the powers j >= k, the R negation, u conj(u) and the rebuild at an enlarged conductor."""
    build, reading = EIGENSPACE_PATHS[path]
    spec = build()
    lifted, powers, m = _lift_eigenspaces(spec, **reading)
    k = len(powers.walk)
    cert = standardize(spec)
    assert verify_certificate(spec, cert).all_passed
    if path.startswith("C_unitary"):
        assert lifted.conductor == spec.declared_order * spec.conductor and powers.phase
    if "lam0 = -1" in path or path.startswith("antiunitary"):
        assert powers.scalar == Q(1, 2) and m == 2 * k and k >= 2
    if path == "R negated":
        assert cert.negated and powers.phase == Q(1, 2) and k >= 2
    if path.startswith("enlarging"):
        assert cert.conductor == 40


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["C_unitary", "R", "H", "C_antiunitary"]),
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.integers(2, 4),
)
def test_eigenspaces_of_seeded_operators_equal_the_spectral_sums(family, seed, half_dim, hint):
    """The eigenspace property on seeded operators of every family, dimensions 4 to 7 (even for H)."""
    dim = 2 * half_dim + (family != "H" and seed % 2)
    _lift_eigenspaces(random_operator(random.Random(seed), family, dim, order_hint=hint))


@pytest.mark.parametrize("family, seed, dim, hint", WALK_OPERATORS)
def test_a_walk_stopped_short_of_its_rank_is_refused(monkeypatch, family, seed, dim, hint):
    """A rank of tr(P) - 1 stops a walk one vector early: the basis change misses a column
    of each such eigenspace, and the column count refuses it."""
    from twistaff import autnorm

    real = autnorm._Eigenspace
    monkeypatch.setattr(autnorm, "_Eigenspace", lambda k, rank, column, dim: real(k, rank - 1, column, dim))
    spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    with pytest.raises(StandardizeError, match=f"the block construction gave [0-9]+ columns in dimension {dim}"):
        standardize(spec)


@pytest.mark.parametrize("kind", sorted(KIND_OPERATORS))
def test_image_mode_is_the_relabel_of_the_slant(kind):
    """image_mode(a, n) = N_psi (n / N_phi - mu(a)) at every finite root and the Cartan, also
    for a mu shifted off the exponents."""
    from twistaff.affine import lars_finite_parts
    from twistaff.rootdata import inner

    cert = _kind_certificate(kind)
    shift = Functional({j: Q(1, 7) for j in range(1, cert.rank + 1)})
    for c in (cert, dataclasses.replace(cert, mu=cert.mu + shift)):
        n_phi, n_psi = c.orders
        for a in (None, *lars_finite_parts(c.lars, c.base)):
            mu_a = inner(c.mu, a) if a is not None else 0
            for n in range(-4 * n_phi, 4 * n_phi + 1):
                assert c.image_mode(a, n) == n_psi * (Q(n, n_phi) - mu_a), (kind, a, n)
