"""Seeded variants of operators that keep their conjugacy class or pad them, as test inputs.

The isomorphism class of a twisted affinisation depends only on the twist up to
conjugacy, so an operator a and its conjugate g a g^-1 by g in the family's
group must standardize to the same standard affinisation.  ``scan_operator``
draws the operator of one grid point and ``conjugate`` its conjugate by the
seeded g of one key: ``sampling._random_moves`` (real for R) or
``sampling.random_quaternionic_unitary`` for H, at the operator's conductor.
``padded`` extends an antiunitary operator by a diagonal block, which keeps its
refusals.
"""

import dataclasses
import random

from twistaff.autnorm import OperatorSpec, automorphism_order, family_of
from twistaff.cyclo import ModeMatrix
from twistaff.sampling import _random_moves, random_operator, random_quaternionic_unitary


def scan_operator(family, seed, dim, hint):
    """The seeded operator of one point (family, seed, dim, order hint) of the conjugation grid."""
    return random_operator(random.Random(f"C:{family}:{seed}:{dim}:{hint}"), family, dim, hint)


def conjugate(spec, key):
    """spec conjugated by the seeded g of key, in its family's group: g a g* for a unitary a,
    and g a g^T, the linear part of g (a o conj) g*, for an antiunitary one."""
    rng, L, family = random.Random(f"g:{key}"), spec.conductor, family_of(spec)
    if family == "H":
        g = random_quaternionic_unitary(rng, L, spec.dim)
    else:
        g = _random_moves(rng, L, spec.dim, real=family == "R")
    right = g.conj_transpose().conj() if spec.antiunitary else g.conj_transpose()
    return dataclasses.replace(spec, matrix=g @ spec.matrix @ right)


def padded(spec, pad):
    """The antiunitary spec extended by the diagonal entries pad, at its exact order."""
    L, n = spec.matrix.L, spec.dim + len(pad)
    entries = {(i, j): c for i, row in enumerate(spec.matrix.to_rows()) for j, c in enumerate(row)}
    entries |= {(spec.dim + k, spec.dim + k): s for k, s in enumerate(pad)}
    out = OperatorSpec("C", True, n, ModeMatrix.from_entries(L, (n, n), entries), 1)
    return dataclasses.replace(out, declared_order=automorphism_order(out))
