from fractions import Fraction as Q

import pytest

from twistaff.affine import (
    LARS_KINDS,
    AffineRoot,
    AffinisationSpec,
    ExtCartanVector,
    Weight,
    admissible_mode_step,
    affine_coroot,
    enumerate_affine_roots,
    lars_contains,
    lars_finite_parts,
    root_weight,
    standard_spec,
)
from twistaff.rootdata import CartanVector, Functional, Root, RootSystem

E1 = CartanVector({1: 1})
e12 = Root(((1, 1), (2, -1)))


def test_membership_examples():
    B = RootSystem("B", 3)
    C = RootSystem("C", 3)
    assert lars_contains("BC2", AffineRoot(Root(((1, 1),)), 1), B)
    assert not lars_contains("BC2", AffineRoot(Root(((1, 2),)), 2), B)
    assert lars_contains("C2", AffineRoot(e12, 1), C)


def test_mode_step_examples():
    assert admissible_mode_step("B2", Root(((1, 1),))) == (0, 1)
    assert admissible_mode_step("B2", Root(((1, 1), (2, 1)))) == (0, 2)
    assert admissible_mode_step("BC2", Root(((1, 2),))) == (1, 2)


def test_membership_agrees_with_mode_step():
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 3)
        for a in lars_finite_parts(kind, spec.base):
            res, step = admissible_mode_step(kind, a)
            for n in range(-8, 9):
                assert lars_contains(kind, AffineRoot(a, n), spec.base) == (
                    n % step == res % step
                )


def test_x1_kinds_contain_all_modes():
    for kind in ("A1", "B1", "C1", "D1"):
        spec = standard_spec(kind, 3)
        for a in lars_finite_parts(kind, spec.base):
            for n in range(-5, 6):
                assert lars_contains(kind, AffineRoot(a, n), spec.base)


def test_eval_examples():
    spec = standard_spec("A1", 3)
    v = ExtCartanVector(5, E1, 2)
    assert root_weight(spec, AffineRoot(e12, 3))(v) == 7
    assert root_weight(spec, AffineRoot(e12, 3))(ExtCartanVector(9, CartanVector(()), 0)) == 0
    spec2 = AffinisationSpec(
        RootSystem("A", 3), "A1", 2, slant_mu=Functional({2: Q(-1, 2)})
    )
    assert root_weight(spec2, AffineRoot(e12, 1))(ExtCartanVector(0, CartanVector(()), 2)) == 2


def test_coroot_examples():
    spec = standard_spec("A1", 3)
    assert affine_coroot(spec, AffineRoot(e12, 3)) == ExtCartanVector(
        -3, CartanVector({1: 1, 2: -1}), 0
    )
    assert affine_coroot(spec, AffineRoot(e12, 0)) == ExtCartanVector(
        0, CartanVector({1: 1, 2: -1}), 0
    )
    spec3 = AffinisationSpec(
        RootSystem("A", 3), "A1", 2, slant_mu=Functional({1: Q(-1, 2)})
    )
    assert affine_coroot(spec3, AffineRoot(e12, 1)) == ExtCartanVector(
        0, CartanVector({1: 1, 2: -1}), 0
    )
    with pytest.raises(ValueError):
        affine_coroot(spec, AffineRoot(None, 1))


def test_coroot_evaluates_to_two_exhaustively():
    mu = Functional({1: Q(1, 3), 4: Q(-1, 2)})
    for kind in LARS_KINDS:
        spec = standard_spec(kind, 4, mu=mu)
        for r in enumerate_affine_roots(kind, spec.base, 8):
            assert root_weight(spec, r)(affine_coroot(spec, r)) == 2


def test_affine_root_invariants():
    with pytest.raises(ValueError):
        AffineRoot(None, 0)
    assert not AffineRoot(None, 3).is_compact()
    assert AffineRoot(e12, 0).is_compact()


def test_spec_validation_and_json():
    with pytest.raises(ValueError):
        AffinisationSpec(RootSystem("A", 2), "B2")
    spec = AffinisationSpec(
        RootSystem("C", 3), "C2", 2,
        slant_mu=Functional({1: Q(-1, 2)}), slant_nu=Functional({2: Q(1, 3)}),
    )
    again = AffinisationSpec.from_json(spec.to_json())
    assert again == spec
    assert spec.slant == Functional({1: Q(-1, 2), 2: Q(1, 3)})
    w = Weight(1, Functional({1: 1}), Q(2, 3))
    assert Weight.from_json(w.to_json()) == w
