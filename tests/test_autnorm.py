import dataclasses
import random
from fractions import Fraction as Q

import pytest

from twistaff import DomainError
from twistaff.autnorm import (
    OperatorSpec,
    StandardizeError,
    _lift_with_orders,
    antiunitary_normal_form,
    automorphism_order,
    cartan_mode_vectors,
    eigenprojectors,
    matrix_order,
    mode_class,
    mode_class_vectors,
    operator_order,
    standardize,
    verify_certificate,
)
from twistaff.cyclo import Cyc, ModeMatrix
from twistaff.rootdata import Functional, Root
from twistaff.sampling import random_operator

import elimination

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


def test_eigensplit_examples_and_invariants():
    L = 8
    a = diag(L, 1, -1)
    projs = dict(eigenprojectors(a, 2))
    assert projs[0] == diag(L, 1, 0)
    assert projs[1] == diag(L, 0, 1)
    assert dict(eigenprojectors(identity(L, 3), 1))[0] == identity(L, 3)
    # 3-cycle permutation: three rank-1 projectors, exact idempotents resolving unity
    L = 12
    p3 = rows(L, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    projs = eigenprojectors(p3, 3)
    assert len(projs) == 3
    total = diag(L, 0, 0, 0)
    for k, p in projs:
        assert p @ p == p
        zk = Cyc.zeta(L, (k * 4) % L)
        assert p3 @ p == p.scale(zk)
        for k2, p2 in projs:
            if k2 != k:
                assert not p @ p2
        total = total + p
    assert total == identity(L, 3)
    assert len(eigenprojectors(p3, matrix_order(p3))) == 3


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
        ("R", 0, 5, 2),  # B1 after the sign retry
        ("C_antiunitary", 1, 5, 4),  # BC2
        ("C_antiunitary", 2, 4, 6),  # C2
    ],
)
def test_standardize_validates_once_and_reads_the_order_once(monkeypatch, family, seed, dim, hint):
    from collections import Counter

    from twistaff import autnorm

    spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
    calls = Counter()
    for name in ("validate_operator", "projective_order"):

        def counting(*args, _real=getattr(autnorm, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(autnorm, name, counting)
    cert = standardize(spec)
    assert cert.negated == ((family, seed) == ("R", 0))
    assert calls["validate_operator"] == 1
    assert calls["projective_order"] <= 2
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
    proj = [[1, 0, 0, 0], [0, 21, 0, 0], [0, 7, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(StandardizeError, match=f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"):
        _conjugation_block_decomposition(identity(L, 4), rows(L, proj))
    # squared norms 1 and 5 = 2^2 + 1^2 pair once sqrt(5) is adjoined at conductor 40:
    # at 8 the decomposition asks for that conductor, and at 40 it completes
    proj = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(_Enlarge) as enlarged:
        _conjugation_block_decomposition(identity(L, 4), rows(L, proj))
    L = enlarged.value.conductor
    assert L == 40
    blocks, fixed = _conjugation_block_decomposition(identity(L, 4), rows(L, proj))
    assert (len(blocks), fixed) == (1, None)


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


def test_block_decomposition_enlarges_the_conductor():
    import hashlib
    import json

    # two anisotropic vectors of the +1 eigenspace pair through a B-plane only
    # after sqrt(5/4) is adjoined, which takes the working conductor 8 to 40
    matrix = [
        [Q(3, 5), Q(-4, 5), 0, 0, 0],
        [Q(-4, 5), Q(-3, 5), 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    spec = OperatorSpec("R", False, 5, rows(4, matrix), 2)
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
    from twistaff.models import span_basis

    cert = standardize(random_operator(random.Random(seed), "C_antiunitary", dim, order_hint=hint))
    model = cert.model
    L = cert.conductor
    cartan = span_basis(model.algebra_project(model.basis_matrix(L, i, i)) for i in range(model.dim))
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
#: leftover (2, 5, 2) and a fixed-vector pairing (28, 5, 2)
BLOCK_OPERATORS = [
    ("R", 1, 5, 2),
    ("C_antiunitary", 14, 4, 2),
    ("C_antiunitary", 4, 5, 2),
    ("C_antiunitary", 2, 5, 2),
    ("C_antiunitary", 28, 5, 2),
]


@pytest.mark.parametrize("family, seed, dim, hint", BLOCK_OPERATORS)
def test_block_decomposition_gives_isotropic_orthogonal_blocks(monkeypatch, family, seed, dim, hint):
    """What the walk no longer re-tests: each plus is B-isotropic with minus = theta(plus) of
    equal norm, all block vectors and the fixed vector are orthogonal, the fixed vector is
    theta-fixed, and the blocks and the fixed vector fill the projector's rank."""
    from itertools import combinations

    from twistaff import autnorm

    decompositions = []  # (u, projector, output) of every J^2 = 1 eigenspace the walk splits
    real = autnorm._conjugation_block_decomposition

    def recording(u, proj):
        out = real(u, proj)
        decompositions.append((u, proj, out))
        return out

    monkeypatch.setattr(autnorm, "_conjugation_block_decomposition", recording)
    standardize(random_operator(random.Random(seed), family, dim, order_hint=hint))
    assert decompositions
    hdot = autnorm._hdot
    for u, proj, (blocks, fixed) in decompositions:
        theta = autnorm._antilinear(u)
        for plus, minus in blocks:
            assert not hdot(plus, theta(plus))
            assert minus == theta(plus)
            assert hdot(plus, plus) == hdot(minus, minus)
        vectors = [v for block in blocks for v in block] + ([fixed] if fixed is not None else [])
        for x, y in combinations(vectors, 2):
            assert not hdot(x, y)
        if fixed is not None:
            assert theta(fixed) == fixed
        assert len(vectors) == elimination.rank(proj.to_rows())


def test_an_isotropic_refusal_keeps_its_message():
    spec = random_operator(random.Random(4), "C_antiunitary", 3, order_hint=3)
    with pytest.raises(StandardizeError) as refused:
        standardize(spec)
    assert str(refused.value) == (
        "cannot complete the block normal form exactly: no reachable isotropic vectors or "
        "fixed-vector pairings in the working cyclotomic field or an enlargement up to "
        "MAX_CONDUCTOR = 480 (only for positive rationals)"
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
    L, n = spec.matrix.L, spec.dim + len(pad)
    entries = {(i, j): c for i, row in enumerate(spec.matrix.to_rows()) for j, c in enumerate(row)}
    entries |= {(spec.dim + k, spec.dim + k): s for k, s in enumerate(pad)}
    padded = OperatorSpec("C", True, n, ModeMatrix.from_entries(L, (n, n), entries), 1)
    padded = dataclasses.replace(padded, declared_order=automorphism_order(padded))
    with pytest.raises(StandardizeError, match="no reachable isotropic vectors or fixed-vector pairings"):
        standardize(padded)


@pytest.mark.parametrize("L", [8, 12, 24])
def test_square_roots_exist_per_square_class(L):
    """sqrt(x) exists exactly when sqrt(x c^2) does, for nonzero c; a positive rational's
    root asks for the same enlargement either way.  So the fixed-vector pairing needs no
    retry with sqrt(q1 q2) = sqrt((q1 / q2) q2^2)."""
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
            if rational and x.as_fraction() > 0:
                enlargements.add(enlargement(x))
                assert enlargement(x * c * c) == enlargement(x)
    assert roots == {True, False}
    assert any(type(e) is int for e in enlargements)
