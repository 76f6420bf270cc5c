import itertools
import random
from fractions import Fraction as Q
from math import lcm
from operator import sub

import pytest

from twistaff.affine import KINDS, LARS_KINDS, Weight, standard_spec
from twistaff.autnorm import OperatorSpec, mode_class, standardize
from twistaff.cyclo import ModeMatrix
from twistaff.energy import (
    Character,
    _distinct_images,
    _oracle_minimum,
    character_of,
    is_integral,
    lattice_cvp,
    min_energy,
    slant_shift,
    theorem_b_pipeline,
)
from twistaff.rootdata import CartanVector, Functional, common_rows, int_vector, pairing
from twistaff.sampling import random_functional
from twistaff.weyl import (
    AffWeylElement,
    FiniteWeylElement,
    Translation,
    act,
    act_slanted,
    finite_weyl_group,
    translation_lattice,
)

BD_CHI = Character(0, CartanVector(()), 1)


def _group_scan_images(group, chi0_sharp):
    """(w, w.chi0_sharp) for the first w of the group with each distinct image:
    the scan over the whole finite Weyl group that `_distinct_images` must
    match, elements and order."""
    first = {}
    for w in group:
        first.setdefault(w.apply(chi0_sharp), w)
    return [(w, u) for u, w in first.items()]


def _as_elements(images, den):
    """`_distinct_images` triples as (FiniteWeylElement, CartanVector) pairs."""
    return [(FiniteWeylElement(perm, signs), int_vector(u, den)) for perm, signs, u in images]


def test_is_integral_examples():
    spec = standard_spec("A1", 2)
    assert is_integral(spec, Weight(1, Functional({1: 1}), 0))
    assert is_integral(spec, Weight(0, Functional(()), 0))
    assert not is_integral(spec, Weight(Q(1, 2), Functional(()), 0))


def test_character_of_examples():
    spec = standard_spec("A1", 2)
    nu = Functional({1: Q(1, 3)})
    assert character_of(spec, nu, nu).chi0_sharp.is_zero()
    ch = character_of(spec, Functional(()), Functional({1: 1}))
    assert ch.chi0_sharp == CartanVector({1: 1})
    assert ch.chi_d == 1 and character_of(spec, nu, Functional(()), 5).chi_d == 1


def test_slant_shift_examples():
    lam = Weight(1, Functional({1: 1}), 0)
    chi = Character(0, CartanVector(()), 1)
    l0, c0 = slant_shift(lam, chi, Functional(()))
    assert l0 == lam and c0 == chi
    l1, c1 = slant_shift(lam, chi, Functional({2: 1}))
    assert l1.l0 == Functional({1: 1, 2: -1})
    assert c1.chi0_sharp == CartanVector({2: 1})


def test_min_energy_worked_example():
    spec = standard_spec("A1", 2)
    lam = Weight(1, Functional({1: 1}), 0)
    rep = min_energy(spec, lam, BD_CHI)
    assert rep.positive_energy and rep.minimum == 0 and rep.method_agreement
    # orbit values along the coroot line are m^2 - m: both 0-witnesses exist
    y = rep.witness.trans.y
    assert y.is_zero() or y in (CartanVector({1: 1, 2: -1}), CartanVector({1: -1, 2: 1}))


def test_min_energy_negative_charge_diverges():
    spec = standard_spec("A1", 2)
    rep = min_energy(spec, Weight(-1, Functional({1: 1}), 0), BD_CHI)
    assert not rep.positive_energy and rep.minimum is None
    assert rep.method_agreement  # the box minimum strictly decreases


def test_min_energy_trivial_orbit():
    spec = standard_spec("A1", 2)
    rep = min_energy(spec, Weight(1, Functional(()), 0), BD_CHI)
    assert rep.minimum == 0 and rep.witness.trans.y.is_zero()


def test_zero_charge_rejected():
    spec = standard_spec("A1", 2)
    with pytest.raises(ValueError):
        min_energy(spec, Weight(0, Functional({1: 1}), 0), BD_CHI)


def test_min_energy_above_exhaustive_rank_names_the_bound():
    spec = standard_spec("B1", 6)
    with pytest.raises(ValueError, match="exhaustive_rank = 5"):
        min_energy(spec, Weight(1, Functional({1: 1}), 0), BD_CHI)
    with pytest.raises(ValueError, match="exhaustive_rank = 2"):
        min_energy(standard_spec("C1", 3), Weight(1, Functional(()), 0), BD_CHI, exhaustive_rank=2)


def _box_reference(spec, lam, chi, bound):
    """Least orbit value over every finite Weyl element and every box point, via the action."""
    basis = translation_lattice(spec)
    ys = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        y = CartanVector(())
        for m, b in zip(coeffs, basis):
            y = y + b.scale(m)
        ys.append(y)
    best = None
    for w in finite_weyl_group(spec.lars, spec.base.rank):
        for y in ys:
            val = lam(act(spec, AffWeylElement(Translation(y), w), chi) - chi)
            if best is None or val < best:
                best = val
    return best


def test_oracle_matches_plain_box_enumeration():
    # lc rotates with the kind and rank, so every character meets every lc
    rng = random.Random(53)
    for k, kind in enumerate(LARS_KINDS):
        for rank, bound in ((2, 2), (3, 1)):
            spec = standard_spec(kind, rank)
            chis = [
                Character(0, CartanVector(()), 1),
                Character(0, CartanVector({1: 1}), 1),
                Character(0, random_functional(rng, rank).sharp(), 1),
                Character(0, random_functional(rng, rank).sharp(), 0),  # chi_d = 0: linear
            ]
            for i, chi in enumerate(chis):
                lc = (1, 2, -1)[(i + k + rank) % 3]
                lam = Weight(lc, random_functional(rng, rank, denoms=(1, 2)), 0)
                got = _oracle_minimum(spec, lam, chi, bound)
                assert got == _box_reference(spec, lam, chi, bound), (kind, rank, chi, lc)


def _box_sums(weights, bound: int) -> list[int]:
    """sum_i m_i * weights[i] for every m in [-bound, bound]^k, last index fastest."""
    out = [0]
    for wt in weights:
        steps = [m * wt for m in range(-bound, bound + 1)]
        out = [v + s for v in out for s in steps]
    return out


def _vectorized_box_minimum(spec, lam, chi, bound) -> Q:
    """Every box point times every distinct orbit image, evaluated exactly: the
    earlier oracle, kept as the reference with its process pool left out."""
    rank = spec.base.rank
    basis = translation_lattice(spec)
    rows, den = common_rows(basis, rank)  # y = sum m_i rows_i / den
    quad = lam.lc * chi.chi_d / (den * den)  # per unit of |den * y|^2
    tasks = []
    for _, u in _as_elements(_distinct_images(spec.lars, rank, chi.chi0_sharp), chi.chi0_sharp.den):
        grad = u.scale(lam.lc) + lam.l0.scale(chi.chi_d)
        kappa = 2 * pairing(lam.l0, u - chi.chi0_sharp)
        tasks.append(([2 * pairing(grad, b) for b in basis], kappa))
    scale = lcm(quad.denominator, *(q.denominator for betas, kappa in tasks for q in (*betas, kappa)))
    a = int(quad * scale)
    int_tasks = [([int(q * scale) for q in betas], int(kappa * scale)) for betas, kappa in tasks]

    # |den * y|^2 over the box, built once; sliced by the last coefficient
    width = 2 * bound + 1
    norms = [0] * width ** len(basis)
    for column in zip(*rows):
        col = _box_sums(column, bound)
        norms = [n + x * x for n, x in zip(norms, col)]
    slices = [[a * n for n in norms[i::width]] for i in range(width)]

    values = []
    for betas, kappa in int_tasks:
        head = _box_sums(betas[:-1], bound)
        last = betas[-1]
        per_m = [min(map(sub, sl, head)) - m * last for m, sl in zip(range(-bound, bound + 1), slices)]
        values.append(min(per_m) + kappa)
    return Q(min(values), 2 * scale)


#: per rank: the bounds 0-2, the benchmark's bound and one larger bound
ORACLE_BOUNDS = {2: (0, 1, 2, 10, 40), 3: (0, 1, 2, 10, 20), 4: (0, 1, 2, 3, 4)}
#: (lc, chi_d) pairs: positive definite, concave and affine quadratics
ORACLE_SIGNS = tuple(itertools.product((1, 2, -1, -2), (0, 1, 2)))


def test_oracle_equals_the_vectorized_box_minimum():
    # the sign pairs rotate over two draws per (kind, rank, bound), one at the
    # costly larger bound, so every kind meets all 12 pairs; the
    # weight is scaled up now and then so that the real minimizer leaves the box
    rng = random.Random(67)
    turn = 0
    for kind in LARS_KINDS:
        for rank, bounds in ORACLE_BOUNDS.items():
            spec = standard_spec(kind, rank)
            for bound in bounds:
                for _ in range(1 if bound == bounds[-1] else 2):
                    lc, chi_d = ORACLE_SIGNS[turn % len(ORACLE_SIGNS)]
                    turn += 1
                    l0 = random_functional(rng, rank, denoms=(1, 2)).scale(rng.choice((1, 1, 4)))
                    lam = Weight(lc, l0, 0)
                    chi = Character(0, random_functional(rng, rank, denoms=(1, 2, 3)).sharp(), chi_d)
                    want = _vectorized_box_minimum(spec, lam, chi, bound)
                    assert _oracle_minimum(spec, lam, chi, bound) == want, (kind, rank, bound, lc, chi_d)


def test_oracle_keeps_the_box_when_the_minimizer_lies_outside():
    # the closed-form witness y = (6, 6, 6) lies outside the box |m_i| <= 3
    spec = standard_spec("C1", 3)
    lam = Weight(1, Functional({1: 6, 2: 6, 3: 6}), 0)
    chi = Character(0, CartanVector(()), 1)
    rep = min_energy(spec, lam, chi, oracle_bound=3)
    assert rep.minimum == -54 and rep.witness.trans.y == CartanVector({1: 6, 2: 6, 3: 6})
    assert rep.method_agreement is False
    assert _oracle_minimum(spec, lam, chi, 3) == _vectorized_box_minimum(spec, lam, chi, 3) > -54


def test_oracle_jobs_do_not_change_the_minimum():
    rng = random.Random(59)
    spec = standard_spec("B1", 3)
    lam = Weight(2, random_functional(rng, 3, denoms=(1, 2)), 0)
    chi = Character(0, CartanVector({1: Q(1, 2), 2: Q(-1, 3), 3: 2}), 1)
    assert _oracle_minimum(spec, lam, chi, 3, jobs=2) == _oracle_minimum(spec, lam, chi, 3, jobs=1)

    # here the least value lies in the second of the two chunks, so the first
    # chunk stops at its own, larger, ceiling
    lam = Weight(2, Functional({3: 1}), 0)
    chi = Character(0, CartanVector({1: Q(1, 3), 2: Q(-1, 5), 3: Q(2, 7)}), 1)
    images = _distinct_images("B1", 3, chi.chi0_sharp)
    half = (len(images) + 1) // 2
    first = _oracle_minimum(spec, lam, chi, 3, images=images[:half])
    second = _oracle_minimum(spec, lam, chi, 3, images=images[half:])
    assert second < first
    assert _oracle_minimum(spec, lam, chi, 3, jobs=2) == _oracle_minimum(spec, lam, chi, 3, jobs=1) == second
    assert second == _vectorized_box_minimum(spec, lam, chi, 3)


def test_cvp_families():
    assert lattice_cvp("C1", 3, CartanVector({1: Q(7, 5), 2: Q(-1, 2), 3: 0})) == CartanVector(
        {1: 1, 2: -1}
    ) or lattice_cvp("C1", 3, CartanVector({1: Q(7, 5), 2: Q(-1, 2), 3: 0})) == CartanVector({1: 1})
    # checkerboard parity correction
    got = lattice_cvp("D1", 2, CartanVector({1: 1, 2: Q(1, 5)}))
    assert sum(got[j] for j in (1, 2)) % 2 == 0
    # sum-zero projection
    got = lattice_cvp("A1", 3, CartanVector({1: 1}))
    assert sum(got[j] for j in (1, 2, 3)) == 0
    # halved lattices
    got = lattice_cvp("BC2", 2, CartanVector({1: Q(1, 4), 2: Q(3, 4)}))
    assert all((2 * got[j]).denominator == 1 for j in (1, 2))


def test_cvp_beats_box_enumeration():
    rng = random.Random(17)
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 3)
        basis = translation_lattice(spec)
        for _ in range(10):
            target = CartanVector({j: Q(rng.randint(-12, 12), 4) for j in (1, 2, 3)})
            best = lattice_cvp(kind, 3, target)
            d_best = pairing(best - target, best - target)
            for trial in range(60):
                y = CartanVector(())
                for b in basis:
                    y = y + b.scale(rng.randint(-4, 4))
                assert pairing(y - target, y - target) >= d_best


def _orbit_test_vectors(rng, rank):
    """Seeded chi0_sharp vectors: zeros, repeated magnitudes, both signs and denominators."""
    fixed = [
        CartanVector(()),
        CartanVector({1: 1}),
        CartanVector({j: (-1) ** j for j in range(1, rank + 1)}),  # one magnitude, no zero
        CartanVector({j: Q(-1, 2) for j in range(1, rank + 1)}),
        CartanVector({1: Q(1, 3), rank: Q(-1, 3)}),
    ]
    drawn = [
        CartanVector({
            j: rng.choice((1, -1)) * rng.choice((0, 0, 1, 1, 2, Q(1, 2), Q(2, 3)))
            for j in range(1, rank + 1)
        })
        for _ in range(5)
    ]
    return fixed + drawn


def test_orbit_enumeration_matches_the_group_scan():
    rng = random.Random(71)
    for kind in LARS_KINDS:
        for rank in (2, 3, 4, 5):
            group = finite_weyl_group(kind, rank)
            for chi0 in _orbit_test_vectors(rng, rank):
                got = _as_elements(_distinct_images(kind, rank, chi0), chi0.den)
                assert got == _group_scan_images(group, chi0), (kind, rank, chi0)


# -- the Fraction closed form, kept as the reference for the integer one --------


def _round_nearest(x: Q) -> int:
    # nearest integer, ties toward minus infinity for determinism
    floor = x.numerator // x.denominator
    return floor + (1 if x - floor > Q(1, 2) else 0)


def _cvp_integer(target):
    return [_round_nearest(t) for t in target]


def _cvp_checkerboard(target):
    r = _cvp_integer(target)
    if sum(r) % 2 == 0:
        return r
    best_i, best_cost = None, None
    for i, (t, ri) in enumerate(zip(target, r)):
        delta = ri - t
        up = 1 + 2 * delta  # cost of r_i + 1
        down = 1 - 2 * delta  # cost of r_i - 1
        move = 1 if up <= down else -1
        cost = min(up, down)
        if best_cost is None or cost < best_cost:
            best_i, best_cost, best_move = i, cost, move
    r[best_i] += best_move
    return r


def _cvp_sum_zero(target):
    n = len(target)
    mean = sum(target, Q(0)) / n
    t = [x - mean for x in target]
    r = [_round_nearest(x) for x in t]
    delta = sum(r)
    if delta:
        residuals = sorted(range(n), key=lambda i: (r[i] - t[i], i))
        if delta > 0:
            # decrement where the rounding went up the most
            for i in reversed(residuals[-delta:]):
                r[i] -= 1
        else:
            for i in residuals[: -delta]:
                r[i] += 1
    return r


def _lattice_cvp_reference(kind, rank, target):
    shape, scale = KINDS[kind].lattice
    t = [target[j] / scale for j in range(1, rank + 1)]
    decode = {"Z": _cvp_integer, "D": _cvp_checkerboard, "A": _cvp_sum_zero}[shape]
    return int_vector(decode(t)).scale(scale)


def _orbit_value(lam, chi, u, y):
    """lam((y, w).chi - chi) in closed form, for the image u = w.chi0_sharp."""
    return (
        lam.lc * chi.chi_d * pairing(y, y) / 2
        - lam.lc * pairing(u, y)
        + pairing(lam.l0, u - chi.chi0_sharp)
        - chi.chi_d * pairing(lam.l0, y)
    )


def _closed_form_reference(spec, lam, chi):
    """(minimum, witness) of the Fraction closed form over the group scan's
    images, or None for minus infinity."""
    kind, rank = spec.lars, spec.base.rank
    coeff = lam.lc * chi.chi_d / 2
    if coeff < 0:
        return None
    basis = translation_lattice(spec)
    best = None
    for w, u in _group_scan_images(finite_weyl_group(kind, rank), chi.chi0_sharp):
        grad = u.scale(lam.lc) + lam.l0.scale(chi.chi_d)
        if coeff == 0:
            if any(pairing(grad, b) for b in basis):
                return None
            y = CartanVector()
        else:
            y = _lattice_cvp_reference(kind, rank, grad.scale(Q(1, 2) / coeff))
        val = _orbit_value(lam, chi, u, y)
        if best is None or val < best[0]:
            best = (val, AffWeylElement(Translation(y), w))
    return best


#: (lc, chi_d): positive definite with integer and fractional values (both
#: signs negative included), divergent (lc chi_d < 0) and linear (chi_d = 0)
CLOSED_FORM_SIGNS = (
    (1, 1), (2, 1), (Q(1, 2), Q(3, 2)), (Q(-2, 3), Q(-1, 2)), (Q(5, 3), 2),
    (-1, 1), (1, Q(-1, 3)), (Q(3, 2), 0), (-2, 0),
)


def test_integer_closed_form_matches_the_fraction_reference():
    rng = random.Random(73)
    for kind in LARS_KINDS:  # CVP families Z (C1, B2, BC2), D (B1, D1, C2) and A (A1)
        for rank in (2, 3, 4, 5):
            spec = standard_spec(kind, rank)
            for lc, chi_d in CLOSED_FORM_SIGNS:
                for chi0 in rng.sample(_orbit_test_vectors(rng, rank), 2):
                    l0 = random_functional(rng, rank, denoms=(1, 2, 3)).scale(rng.choice((1, 1, 3)))
                    lam, chi = Weight(lc, l0, 0), Character(0, chi0, chi_d)
                    rep = min_energy(spec, lam, chi, with_oracle=False)
                    want = _closed_form_reference(spec, lam, chi)
                    case = (kind, rank, lc, chi_d, chi0, l0)
                    if want is None:
                        assert not rep.positive_energy and rep.minimum is None and rep.witness is None, case
                    else:
                        assert rep.positive_energy and (rep.minimum, rep.witness) == want, case


def test_lattice_cvp_matches_the_fraction_decoders():
    # halves and quarters make rounding ties and parity and sum fix-ups common
    rng = random.Random(79)
    for kind in LARS_KINDS:
        for rank in (2, 3, 4, 5):
            for _ in range(40):
                coords = {j: Q(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for j in range(1, rank + 1)}
                target = CartanVector(coords)
                assert lattice_cvp(kind, rank, target) == _lattice_cvp_reference(kind, rank, target), (kind, target)


def test_divergence_check_at_small_bounds():
    # bound 1 compares the box {0} with box 1; bound 0 has one box, so no check runs
    spec = standard_spec("C1", 3)
    lam = Weight(-1, Functional({1: 1}), 0)
    agreement = {b: min_energy(spec, lam, BD_CHI, oracle_bound=b).method_agreement for b in (0, 1, 2)}
    assert agreement == {0: None, 1: True, 2: True}
    rep = min_energy(spec, lam, BD_CHI, oracle_bound=0)
    assert not rep.positive_energy and rep.to_json()["method_agreement"] is None


def test_minimum_independent_of_chi_c_and_lambda_d():
    spec = standard_spec("B2", 2)
    lam = Weight(2, Functional({1: 1, 2: Q(1, 2)}), 0)
    chi = Character(0, CartanVector({1: Q(1, 3)}), 1)
    base = min_energy(spec, lam, chi, with_oracle=False).minimum
    for dc, dl in ((5, 0), (0, Q(7, 3)), (Q(-2, 5), 1)):
        lam2 = Weight(lam.lc, lam.l0, lam.ld + dl)
        chi2 = Character(chi.chi_c + dc, chi.chi0_sharp, chi.chi_d)
        assert min_energy(spec, lam2, chi2, with_oracle=False).minimum == base


def test_unslanting_preserves_the_minimum():
    # the slanted orbit minimum equals the unslanted minimum of the shifted pair
    rng = random.Random(23)
    for kind in ("A1", "C2"):
        spec = standard_spec(kind, 2)
        nu = random_functional(rng, 2, denoms=(1, 2))
        lam = Weight(2, random_functional(rng, 2, denoms=(1, 2)), Q(1, 3))
        chi = Character(Q(1, 2), random_functional(rng, 2, denoms=(1, 2)).sharp(), 1)
        lam_nu, chi_nu = slant_shift(lam, chi, nu)
        rep = min_energy(spec, lam_nu, chi_nu, with_oracle=False)
        # enumerate the slanted orbit over a box and compare
        from twistaff.weyl import AffWeylElement, Translation, finite_weyl_group

        best = None
        basis = translation_lattice(spec)
        coeff_boxes = [range(-6, 7)] * len(basis)
        import itertools

        for w in finite_weyl_group(kind, 2):
            for coeffs in itertools.product(*coeff_boxes):
                y = CartanVector(())
                for m, b in zip(coeffs, basis):
                    y = y + b.scale(m)
                el = AffWeylElement(Translation(y), w)
                val = lam(act_slanted(spec, nu, el, chi) - chi)
                if best is None or val < best:
                    best = val
        assert best == rep.minimum, kind


def test_orbit_convex_combinations_dominate_minimum():
    spec = standard_spec("A1", 3)
    lam = Weight(1, Functional({1: 1}), 0)
    chi = Character(0, CartanVector({2: Q(1, 2)}), 1)
    rep = min_energy(spec, lam, chi, with_oracle=False)
    rng = random.Random(29)
    from twistaff.weyl import AffWeylElement, Translation, finite_weyl_group

    basis = translation_lattice(spec)
    group = finite_weyl_group("A1", 3)
    for _ in range(40):
        pts = []
        for _ in range(2):
            y = CartanVector(())
            for b in basis:
                y = y + b.scale(rng.randint(-3, 3))
            el = AffWeylElement(Translation(y), group[rng.randrange(len(group))])
            pts.append(act(spec, el, chi))
        mid_value = sum(lam(p - chi) for p in pts) / 2
        assert mid_value >= rep.minimum


def test_positive_energy_boundary():
    # with chi_d = 1 finiteness tracks the sign of the central charge on samples
    rng = random.Random(41)
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 2)
        for lc in (2, Q(1, 2), -3, -Q(1, 4)):
            lam = Weight(lc, random_functional(rng, 2, denoms=(1, 2)), 0)
            chi = Character(0, random_functional(rng, 2, denoms=(1, 2)).sharp(), 1)
            rep = min_energy(spec, lam, chi, with_oracle=False)
            assert rep.positive_energy == (lc > 0)


def test_theorem_b_pipeline_examples():
    op = OperatorSpec("C", False, 2, ModeMatrix.diagonal(4, [1, -1]), 2)
    lam = Weight(2, Functional({1: 1}), 0)
    cert = standardize(op)
    rep = theorem_b_pipeline(cert, lam, Functional(()), Functional(()))
    assert cert.mu == Functional({2: Q(-1, 2)})
    assert rep.positive_energy and rep.method_agreement

    # the identity twist reduces to a plain orbit minimization
    op_id = OperatorSpec("C", False, 2, ModeMatrix.identity(4, 2), 1)
    rep2 = theorem_b_pipeline(standardize(op_id), lam, Functional(()), Functional(()))
    direct = min_energy(standard_spec("A1", 2), lam, BD_CHI)
    assert rep2.minimum == direct.minimum

    # negative central charge diverges regardless of the twist
    rep3 = theorem_b_pipeline(cert, Weight(-2, Functional({1: 1}), 0), Functional(()), Functional(()))
    assert not rep3.positive_energy

    # non-integral weights are rejected unless overridden
    with pytest.raises(ValueError):
        theorem_b_pipeline(cert, Weight(1, Functional({1: 1}), 0), Functional(()), Functional(()))
    rep4 = theorem_b_pipeline(
        cert, Weight(1, Functional({1: 1}), 0), Functional(()), Functional(()),
        require_integral=False,
    )
    assert rep4.method_agreement


def test_theorem_b_integrality_uses_twisted_modes():
    op = OperatorSpec("C", False, 2, ModeMatrix.diagonal(4, [1, -1]), 2)
    cert = standardize(op)
    src = cert.source_spec(Functional(()))
    assert is_integral(src, Weight(2, Functional({1: 1}), 0), residues=lambda a: mode_class(cert, a))
    assert not is_integral(src, Weight(1, Functional({1: 1}), 0), residues=lambda a: mode_class(cert, a))


def test_report_json():
    spec = standard_spec("A1", 2)
    rep = min_energy(spec, Weight(1, Functional({1: 1}), 0), BD_CHI)
    obj = rep.to_json()
    assert obj["schema"] == "v1" and obj["minimum"] == "0"
    rep2 = min_energy(spec, Weight(-1, Functional({1: 1}), 0), BD_CHI, with_oracle=False)
    assert rep2.to_json()["minimum"] == "-inf"
