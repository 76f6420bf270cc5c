import json
from fractions import Fraction as Q
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistaff.rootdata import (
    CartanVector,
    Functional,
    Root,
    RootSystem,
    coroot,
    enumerate_roots,
    inner,
    pairing,
    reflect_finite,
    sharp,
)
from twistaff.weyl import FiniteWeylElement


def brute_force_roots(kind, n):
    """Independent enumeration straight from the type definitions."""
    out = set()
    if kind == "A":
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j != k:
                    out.add(((j, 1), (k, -1)) if j < k else ((k, -1), (j, 1)))
    else:
        for j, k in combinations(range(1, n + 1), 2):
            for sj in (1, -1):
                for sk in (1, -1):
                    out.add(((j, sj), (k, sk)))
        if kind == "B":
            for j in range(1, n + 1):
                out.add(((j, 1),))
                out.add(((j, -1),))
        if kind == "C":
            for j in range(1, n + 1):
                out.add(((j, 2),))
                out.add(((j, -2),))
    return out


def test_enumerate_matches_brute_force():
    for kind in "ABCD":
        for n in (2, 3, 4):
            got = enumerate_roots(RootSystem(kind, n))
            assert len(got) == len(set(got))
            assert {r.coeffs for r in got} == brute_force_roots(kind, n)


def test_enumeration_examples():
    assert len(enumerate_roots(RootSystem("A", 2))) == 2
    assert len(enumerate_roots(RootSystem("B", 3))) == 18
    assert len(enumerate_roots(RootSystem("D", 2))) == 4


def test_sharp_is_coordinate_transport():
    assert sharp(Functional({1: 1})) == CartanVector({1: 1})
    f = Functional({1: Q(1, 2), 2: Q(-1, 3)})
    assert sharp(f) == CartanVector({1: Q(1, 2), 2: Q(-1, 3)})
    assert pairing(sharp(Functional({1: 1, 2: -1})), CartanVector({1: 1})) == 1
    g = Functional({2: Q(2, 5)})
    assert pairing(sharp(f), sharp(g)) == inner(f, g)


def test_inner_examples():
    e12 = Root(((1, 1), (2, -1)))
    e23 = Root(((2, 1), (3, -1)))
    assert inner(e12, e23) == -1
    assert inner(Root(((1, 2),)), Root(((1, 2),))) == 4
    assert inner(Functional({1: 1}), Functional({2: 1})) == 0


def test_coroot_examples():
    assert coroot(Root(((1, 1), (2, -1)))) == CartanVector({1: 1, 2: -1})
    assert coroot(Root(((1, 2),))) == CartanVector({1: 1})
    assert coroot(Root(((1, 1),))) == CartanVector({1: 2})


def test_reflection_examples():
    e12 = Root(((1, 1), (2, -1)))
    assert reflect_finite(e12, CartanVector({1: 1})) == CartanVector({2: 1})
    fixed = CartanVector({1: 1, 2: 1})
    assert reflect_finite(e12, fixed) == fixed
    assert reflect_finite(Root(((1, 2),)), CartanVector({1: 1})) == CartanVector({1: -1})


def test_norms_and_coroot_pairing():
    for kind in "ABCD":
        system = RootSystem(kind, 4)
        for a in enumerate_roots(system):
            assert inner(a, a) in (1, 2, 4)
            assert a.functional()(coroot(a)) == 2


def test_reflections_permute_roots_and_preserve_inner():
    for kind in "ABCD":
        system = RootSystem(kind, 4)
        roots = enumerate_roots(system)
        vectors = {r: r.functional().sharp() for r in roots}
        for a in roots:
            images = []
            for b in roots:
                img = reflect_finite(a, vectors[b])
                match = [r for r, v in vectors.items() if v == img]
                assert len(match) == 1
                images.append(match[0])
            assert set(images) == set(roots)
            for b in roots[:6]:
                for c in roots[:6]:
                    ib = reflect_finite(a, vectors[b])
                    ic = reflect_finite(a, vectors[c])
                    assert pairing(ib, ic) == inner(b, c)
        for a in roots:
            for h in (CartanVector({1: 1, 3: Q(1, 2)}), CartanVector({2: Q(-2, 3)})):
                assert reflect_finite(a, reflect_finite(a, h)) == h


def test_root_pattern_validation():
    with pytest.raises(ValueError):
        Root(((1, 3),))
    with pytest.raises(ValueError):
        Root(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        Root(())
    with pytest.raises(ValueError):
        RootSystem("A", 1)


def test_json_round_trip():
    s = RootSystem("B", 3)
    assert RootSystem.from_json(s.to_json()) == s
    f = Functional({1: Q(1, 2)})
    assert Functional.from_json(f.to_json()) == f


RANK = 6


def ref_vectors():
    """A vector as a dict of Fractions over indices 1..RANK, zero values included."""
    values = st.builds(Q, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9, 12)))
    return st.dictionaries(st.integers(1, RANK), values, max_size=RANK)


def nonzero(ref):
    return {j: v for j, v in ref.items() if v}


def ref_combine(a, b, sign):
    return nonzero({j: a.get(j, 0) + sign * b.get(j, 0) for j in set(a) | set(b)})


def assert_canonical(v):
    assert v.den > 0 and gcd(v.den, *v.num) == 1
    assert not v.num or v.num[-1] != 0
    assert v.is_zero() == (v.num == () and v.den == 1)


@settings(max_examples=200, deadline=None)
@given(
    ref_vectors(),
    ref_vectors(),
    st.builds(Q, st.integers(-6, 6), st.integers(1, 6)),
    st.permutations(range(1, RANK + 1)),
    st.lists(st.sampled_from((1, -1)), min_size=RANK, max_size=RANK),
)
def test_vector_matches_fraction_reference(a, b, c, perm, signs):
    u, v = CartanVector(a), CartanVector(b)
    for w in (u, v, u + v, u - v, -u, u.scale(c), u.scale(int(c))):
        assert_canonical(w)
    assert dict(u.coords) == nonzero(a)
    assert all(u[j] == a.get(j, 0) for j in range(0, RANK + 2))
    assert u.support() == tuple(sorted(nonzero(a)))
    assert dict((u + v).coords) == ref_combine(a, b, 1)
    assert dict((u - v).coords) == ref_combine(a, b, -1)
    assert dict((-u).coords) == nonzero({j: -x for j, x in a.items()})
    assert dict(u.scale(c).coords) == nonzero({j: c * x for j, x in a.items()})
    assert pairing(u, v) == sum((x * b.get(j, 0) for j, x in a.items()), Q(0))
    w = FiniteWeylElement(tuple(perm), tuple(signs))
    assert dict(w.apply(u).coords) == nonzero({perm[j - 1]: signs[j - 1] * x for j, x in a.items()})
    # canonical form: equal <=> same num and den <=> same reference, and equal => same hash
    same = (u.num, u.den) == (v.num, v.den)
    assert (u == v) == same == (nonzero(a) == nonzero(b))
    back = (u + v) - v
    assert back == u and hash(back) == hash(u) and (back.num, back.den) == (u.num, u.den)
    assert (u - u).num == () and (u - u).den == 1
    # JSON: the {"coords": {"j": "p/q"}} form, byte for byte, and back
    text = json.dumps(u.to_json(), sort_keys=True)
    assert text == json.dumps({"coords": {str(j): str(x) for j, x in nonzero(a).items()}}, sort_keys=True)
    assert CartanVector.from_json(json.loads(text)) == u


def test_vector_json_form():
    assert CartanVector({1: Q(1, 2)}).to_json() == {"coords": {"1": "1/2"}}
    assert CartanVector({3: Q(-4, 6), 1: 2}).to_json() == {"coords": {"1": "2", "3": "-2/3"}}
    assert CartanVector().to_json() == {"coords": {}}
    f = Functional({1: 1})
    assert Functional is CartanVector and sharp(f) is f and f.sharp() is f
