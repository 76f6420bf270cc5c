"""Conjugation invariance: an operator and its conjugates standardize alike.

An operator a and its conjugate g a g^-1 by g in its family's group
(``conjugation.conjugate``) twist isomorphic affinisations.  So where both
certify, their certificates agree on the standard kind, the rank, the exponents
as a multiset and the orders, and both verify; a disagreement is a program
fault, never a refusal.  Some conjugates of certified operators are refused,
for want of an isotropic vector in the working field or a field enlargement
(only for rationals): those are pinned with their message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistaff import DomainError
from twistaff.autnorm import StandardizeError, standardize, verify_certificate

from conjugation import conjugate, scan_operator

FAMILIES = ("C_unitary", "H", "R", "C_antiunitary")


def _certified_fields(spec):
    """(lars, rank, sorted exponents, orders) of the spec's verified certificate, or None when
    it is refused."""
    try:
        cert = standardize(spec)
    except DomainError:
        return None
    assert verify_certificate(spec, cert).all_passed
    return cert.lars, cert.rank, tuple(sorted(cert.exponents)), cert.orders


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 10**6),
    st.integers(4, 7),
    st.integers(2, 4),
    st.integers(0, 1),
)
def test_conjugates_standardize_alike(family, seed, dim, hint, k):
    """The conjugation grid's property at any seed, dimensions 4 to 7 (even for H)."""
    dim -= family == "H" and dim % 2
    spec = scan_operator(family, seed, dim, hint)
    fields = _certified_fields(spec)
    conjugated = _certified_fields(conjugate(spec, (seed, dim, hint, k)))
    if fields is not None and conjugated is not None:
        assert conjugated == fields


#: (family, seed, dim, hint, k) of every conjugate, on the grid of seeds 0-19, dims 4-7 and
#: hints 2-4, of an operator that certifies while the conjugate is refused
REFUSED_CONJUGATES = [
    ("R", 2, 5, 2, 0), ("R", 3, 6, 2, 1), ("R", 4, 5, 2, 0), ("R", 4, 6, 2, 1), ("R", 6, 7, 2, 0),
    ("R", 12, 5, 2, 1), ("R", 13, 5, 2, 0), ("R", 13, 6, 4, 0), ("R", 14, 5, 2, 0), ("R", 16, 7, 2, 1),
    ("C_antiunitary", 0, 5, 3, 1), ("C_antiunitary", 1, 4, 4, 1), ("C_antiunitary", 4, 5, 4, 1),
    ("C_antiunitary", 5, 5, 3, 1), ("C_antiunitary", 11, 4, 4, 0), ("C_antiunitary", 11, 4, 4, 1),
    ("C_antiunitary", 11, 5, 2, 1), ("C_antiunitary", 12, 4, 2, 1), ("C_antiunitary", 12, 5, 2, 1),
    ("C_antiunitary", 16, 4, 2, 0), ("C_antiunitary", 16, 4, 3, 0), ("C_antiunitary", 16, 5, 2, 0),
    ("C_antiunitary", 19, 5, 2, 0), ("C_antiunitary", 19, 5, 2, 1),
]


@pytest.mark.parametrize("family, seed, dim, hint, k", REFUSED_CONJUGATES)
def test_refused_conjugates_keep_their_isotropic_message(family, seed, dim, hint, k):
    """The operator certifies, and its conjugate is refused with the isotropic message."""
    spec = scan_operator(family, seed, dim, hint)
    assert verify_certificate(spec, standardize(spec)).all_passed
    with pytest.raises(StandardizeError, match="no reachable isotropic vectors or fixed-vector pairings"):
        standardize(conjugate(spec, (seed, dim, hint, k)))
