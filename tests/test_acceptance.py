"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything is exact arithmetic, so tolerances are equality throughout; the
two timed criteria also assert their runtime budgets.
"""

import random
import time
from fractions import Fraction as Q

from twistaff.affine import (
    LARS_KINDS,
    AffineRoot,
    ExtCartanVector,
    Weight,
    admissible_mode_step,
    lars_contains,
    lars_finite_parts,
    standard_spec,
)
from twistaff.autnorm import (
    antiunitary_normal_form,
    mode_class,
    operator_order,
    standardize,
    verify_certificate,
)
from twistaff.cyclo import Cyc, ModeMatrix
from twistaff.energy import Character, min_energy
from twistaff.loopalg import (
    DoubleExtElement,
    apply_derivation,
    bracket,
    kappa_form,
    phi_hat,
    validate_element,
)
from twistaff.rootdata import CartanVector, Functional, coroot, inner
from twistaff.sampling import (
    random_functional,
    random_loop_element,
    random_operator,
    random_twisted_element,
)
from twistaff.weyl import (
    AffWeylElement,
    FiniteWeylElement,
    Translation,
    f_word,
    reflect_affine,
    reflection_element,
    translate,
    translation_lattice,
    unslanted_action_check,
)

FAMILIES = ("C_unitary", "H", "R", "C_antiunitary")
FAMILY_DIMS = {"C_unitary": (3, 4, 5, 6), "H": (4, 6), "R": (4, 5, 6), "C_antiunitary": (4, 5, 6)}


def report(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


def ext_basis(rank):
    out = [ExtCartanVector(1, CartanVector(()), 0), ExtCartanVector(0, CartanVector(()), 1)]
    out += [ExtCartanVector(0, CartanVector({j: 1}), 0) for j in range(1, rank + 1)]
    return out


def test_criterion_1_lie_algebra_layer():
    # antisymmetry, Jacobi, invariance, derivation skewness: 100 triples per kind
    t0 = time.time()
    rng = random.Random(1001)
    L = 4
    trials = 0
    ok = True
    for kind in LARS_KINDS:
        spec = standard_spec(
            kind, 2, mu=Functional({1: Q(1, 4)}), nu=Functional({2: Q(-1, 3)})
        )
        nu = spec.slant_nu
        for _ in range(100):
            a = random_loop_element(rng, spec, L, max_mode=3)
            b = random_loop_element(rng, spec, L, max_mode=3)
            c = random_loop_element(rng, spec, L, max_mode=3)
            ab = bracket(spec, a, b)
            ok &= (ab + bracket(spec, b, a)).is_zero()
            jac = (
                bracket(spec, a, bracket(spec, b, c))
                + bracket(spec, b, bracket(spec, c, a))
                + bracket(spec, c, ab)
            )
            ok &= jac.is_zero()
            ok &= kappa_form(spec, ab, c) == kappa_form(spec, a, bracket(spec, b, c))
            da, db = apply_derivation(spec, nu, a), apply_derivation(spec, nu, b)
            ok &= kappa_form(spec, da, b) == -kappa_form(spec, a, db)
            trials += 1
    took = time.time() - t0
    ok &= took < 60
    report(1, ok, f"{trials} seeded triples across 7 standard twists, exact, {took:.1f}s (< 60s)")


def test_criterion_2_untwisting_is_a_bracket_isomorphism():
    rng = random.Random(1002)
    pairs = 0
    ok = True
    for fam in FAMILIES:
        done = 0
        while done < 50:
            # antiunitary operators have order twice the hint: stay within order 6
            hints = (2, 3) if fam == "C_antiunitary" else (2, 3, 4, 6)
            spec = random_operator(rng, fam, rng.choice(FAMILY_DIMS[fam]), order_hint=rng.choice(hints))
            cert = standardize(spec)
            nu = random_functional(rng, cert.rank)
            src, dst = cert.source_spec(nu), cert.target_spec(nu)
            L = cert.conductor
            for _ in range(10):
                a = random_twisted_element(rng, cert)
                b = random_twisted_element(rng, cert)
                fa, fb = phi_hat(cert, src, dst, a), phi_hat(cert, src, dst, b)
                validate_element(dst, fa)
                validate_element(dst, fb)
                ok &= phi_hat(cert, src, dst, bracket(src, a, b)) == bracket(dst, fa, fb)
                done += 1
                pairs += 1
            fixed = [DoubleExtElement.central(L), DoubleExtElement.scaling(L)] + [
                DoubleExtElement.from_loop(L, 0, cert.model.cartan_matrix(j, L))
                for j in range(1, cert.rank + 1)
            ]
            ok &= all(phi_hat(cert, src, dst, v) == v for v in fixed)
    report(2, ok, f"bracket preservation + pointwise fixed Cartan on {pairs} pairs, 4 families")


def _window_map_data(cert):
    n_phi, n_psi = cert.orders
    window = 4 * n_phi
    for a in lars_finite_parts(cert.lars, cert.base):
        residues = mode_class(cert, a)
        shift = inner(cert.mu, a.functional())
        admissible = [n for n in range(-window, window + 1) if n % n_phi in residues]
        yield a, shift, admissible


def test_criterion_3_root_map_is_an_integral_bijection():
    rng = random.Random(1003)
    ok = True
    checked = 0
    for fam in FAMILIES:
        for _ in range(3):
            spec = random_operator(rng, fam, rng.choice(FAMILY_DIMS[fam]), order_hint=rng.choice([2, 3, 4]))
            cert = standardize(spec)
            n_phi, n_psi = cert.orders
            for a, shift, admissible in _window_map_data(cert):
                images = []
                for n in admissible:
                    t = n_psi * (Q(n, n_phi) - shift)
                    ok &= t.denominator == 1
                    ok &= lars_contains(cert.lars, AffineRoot(a, int(t)), cert.base)
                    images.append(int(t))
                    checked += 1
                ok &= len(set(images)) == len(images)
                if images:
                    res, step = admissible_mode_step(cert.lars, a)
                    expect = [
                        m for m in range(min(images), max(images) + 1) if m % step == res % step
                    ]
                    ok &= sorted(images) == expect
    report(3, ok, f"integer-valued window bijections onto the realizations, {checked} matched roots")


def test_criterion_4_matched_reflections_coincide():
    rng = random.Random(1004)
    ok = True
    pairs = 0
    for fam in FAMILIES:
        for _ in range(2):
            spec = random_operator(rng, fam, rng.choice(FAMILY_DIMS[fam]), order_hint=rng.choice([2, 3, 4]))
            cert = standardize(spec)
            nu = random_functional(rng, cert.rank)
            src, dst = cert.source_spec(nu), cert.target_spec(nu)
            n_phi, n_psi = cert.orders
            basis = ext_basis(cert.rank)
            for a, shift, admissible in _window_map_data(cert):
                for n in admissible:
                    t = int(n_psi * (Q(n, n_phi) - shift))
                    for v in basis:
                        ok &= reflect_affine(src, AffineRoot(a, n), v) == reflect_affine(
                            dst, AffineRoot(a, t), v
                        )
                    pairs += 1
    report(4, ok, f"equal reflection operators on the extended Cartan basis, {pairs} matched roots")


def test_criterion_5_antiunitary_normal_form_round_trip():
    rng = random.Random(1005)
    ok = True
    done = 0
    seen_even = seen_odd = 0
    seen_orders = set()
    while done < 30:
        dim = rng.choice((2, 3, 4, 5, 6))
        hint = rng.choice((2, 3, 4, 5, 6))
        spec = random_operator(rng, "C_antiunitary", dim, order_hint=hint)
        m = operator_order(spec)
        if m > 12:
            continue
        form = antiunitary_normal_form(spec)  # raises unless the round trip is exact
        fixed = 1 if form.fixed_col is not None else 0
        ok &= fixed <= 1
        ok &= 2 * len(form.blocks) + fixed == dim
        seen_even += dim % 2 == 0
        seen_odd += dim % 2 == 1
        seen_orders.add(m)
        done += 1
    ok &= seen_even > 0 and seen_odd > 0 and len(seen_orders) >= 3
    report(5, ok, f"{done} exact block reconstructions, orders {sorted(seen_orders)}, at most one fixed vector")


def test_criterion_6_weyl_identities():
    rng = random.Random(1006)
    ok = True
    checks = 0
    for kind in LARS_KINDS:
        spec = standard_spec(
            kind, 3, mu=Functional({2: Q(1, 4)}), nu=Functional({1: Q(1, 2), 3: Q(-1, 3)})
        )
        parts = lars_finite_parts(kind, spec.base)
        nu_total = spec.slant

        def rand_vec():
            return ExtCartanVector(
                Q(rng.randint(-6, 6), 2),
                CartanVector({j: Q(rng.randint(-6, 6), 3) for j in (1, 2, 3)}),
                Q(rng.randint(-6, 6), 2),
            )

        for a in parts:
            res, step = admissible_mode_step(kind, a)
            for n in range(-4, 5):
                if n % step != res % step:
                    continue
                v = rand_vec()
                lhs = reflect_affine(
                    spec, AffineRoot(a, 0), reflect_affine(spec, AffineRoot(a, n), v)
                )
                ok &= lhs == translate(spec, coroot(a).scale(Q(-n, spec.twist_order)), v)
                checks += 1
        for a in parts[:6]:
            y = CartanVector({1: Q(3, 2), 2: Q(-1, 2)})
            v = rand_vec()
            r0 = AffineRoot(a, 0)
            lhs = reflect_affine(spec, r0, translate(spec, y, reflect_affine(spec, r0, v)))
            from twistaff.rootdata import reflect_finite

            ok &= lhs == translate(spec, reflect_finite(a, y), v)
            checks += 1
        for _ in range(12):
            letters = [parts[rng.randrange(len(parts))] for _ in range(rng.randint(0, 6))]
            v = rand_vec()
            f = f_word(spec, nu_total, letters, v)
            direct = v
            for a in letters:
                direct = reflect_affine(spec, AffineRoot(a, 0), direct)
            ok &= direct - v == ExtCartanVector(inner(nu_total, Functional(f.coords)), -f, 0)
            checks += 1
    report(6, ok, f"translation/conjugation/word identities, {checks} exact checks across 7 kinds")


def test_criterion_7_slanted_action_comparison():
    rng = random.Random(1007)
    ok = True
    for trial in range(200):
        kind = LARS_KINDS[trial % len(LARS_KINDS)]
        spec = standard_spec(kind, 3)
        nu = random_functional(rng, 3)
        y = CartanVector(())
        for b in translation_lattice(spec):
            y = y + b.scale(rng.randint(-3, 3))
        w = AffWeylElement(Translation(y), FiniteWeylElement.identity(3))
        parts = lars_finite_parts(kind, spec.base)
        for _ in range(rng.randint(0, 4)):
            w = w * AffWeylElement(
                Translation(CartanVector(())),
                reflection_element(parts[rng.randrange(len(parts))], 3),
            )
        lam = Weight(
            Q(rng.randint(-6, 6), 2), random_functional(rng, 3), Q(rng.randint(-6, 6), 3)
        )
        chi = ExtCartanVector(
            Q(rng.randint(-6, 6), 2),
            CartanVector({j: Q(rng.randint(-6, 6), 3) for j in (1, 2, 3)}),
            Q(rng.randint(-6, 6), 2),
        )
        lhs, rhs = unslanted_action_check(spec, nu, w, lam, chi)
        ok &= lhs == rhs
    report(7, ok, "slanted orbit values equal unslanted values of the shifted pair, 200 tuples")


def test_criterion_8_minimal_energy_grid():
    t0 = time.time()
    ok = True
    nu_primes = [Functional(()), Functional({1: 1}), Functional({2: Q(1, 2), 3: Q(-1, 3)})]
    instances = 0
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 3)
        for lc in (1, 2, -1):
            lam = Weight(lc, Functional({1: 1, 2: Q(1, 2)}), 0)
            for nup in nu_primes:
                chi = Character(0, nup.sharp(), 1)
                rep = min_energy(spec, lam, chi, oracle_bound=10)
                ok &= rep.method_agreement is True
                ok &= rep.positive_energy == (lc > 0)
                instances += 1
    # the worked example: M = 0 exactly
    rep = min_energy(
        standard_spec("A1", 2), Weight(1, Functional({1: 1}), 0), Character(0, CartanVector(()), 1)
    )
    ok &= rep.minimum == 0
    took = time.time() - t0
    ok &= took < 300
    report(8, ok, f"closed form == box oracle on all {instances} grid instances, {took:.0f}s (< 300s)")


def test_criterion_9_certificates_verify_and_tampering_is_detected():
    import dataclasses

    rng = random.Random(1009)
    ok = True
    verified = 0
    for fam in FAMILIES:
        for _ in range(3):
            spec = random_operator(rng, fam, rng.choice(FAMILY_DIMS[fam]), order_hint=rng.choice([2, 3, 4]))
            cert = standardize(spec)
            ok &= verify_certificate(spec, cert).all_passed
            verified += 1
        # single-field tampering must always be caught
        spec = random_operator(rng, fam, max(FAMILY_DIMS[fam]), order_hint=4)
        cert = standardize(spec)
        tampers = [
            dataclasses.replace(cert, mu=cert.mu + Functional({1: Q(1, 7)})),
            dataclasses.replace(
                cert, exponents=tuple(e + (1 if i == 0 else 0) for i, e in enumerate(cert.exponents))
            ),
            dataclasses.replace(
                cert,
                basis_change=cert.basis_change + ModeMatrix.from_entries(
                    cert.conductor, (cert.basis_change.ncols,) * 2, {(0, 0): 1}
                ),
            ),
            dataclasses.replace(
                cert, col_norms=tuple(
                    (n * Cyc.rational(cert.conductor, 2)) if k == 0 else n
                    for k, n in enumerate(cert.col_norms)
                )
            ),
            dataclasses.replace(cert, orders=(cert.orders[0] * 2, cert.orders[1])),
        ]
        for t in tampers:
            ok &= not verify_certificate(spec, t).all_passed
    report(9, ok, f"{verified} certificates verified; every single-field tamper detected")
