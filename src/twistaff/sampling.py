"""Seeded generators of exact test data: operators, weights, characters.

Random unitaries are products of elementary exact moves (rational Givens
rotations, root-of-unity phases, permutations), each exactly unitary, so the
inverse of the product is its conjugate transpose: conjugating a standard
form never needs matrix inversion and stays exactly unitary.
Structure-compatible variants exist per family, each over the field that
``cyclo.working_conductor`` chooses for its order.  Every matrix is a
``cyclo.ModeMatrix``; ``random_unitary`` alone hands out rows of ``Cyc``, the
operands of ``cyclo.mat_mul`` and ``cyclo.mat_inverse`` that the benchmark's
micro timings read.  No subcommand calls it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .autnorm import OperatorSpec, automorphism_order
from .cyclo import Cyc, Matrix, ModeMatrix, working_conductor
from .rootdata import Functional

#: rational points on the unit circle used for exact rotations
PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)), (Fraction(20, 29), Fraction(21, 29)))
#: the elementary moves of a random unitary
MOVES = 6
#: the chance that a random loop element draws an entry
LOOP_DENSITY = 0.6
#: the terms of a random twisted element, and their mode window in periods of the twist
TWISTED_TERMS, TWISTED_WINDOW = 3, 1


def _embed(L: int, d: int, entries: dict) -> ModeMatrix:
    """The identity with the given entries (Cyc or rationals) written over it."""
    return ModeMatrix.from_entries(L, (d, d), {(i, i): 1 for i in range(d)} | entries)


def _givens(L: int, d: int, i: int, j: int, c: Fraction, s: Fraction) -> ModeMatrix:
    return _embed(L, d, {(i, i): c, (i, j): -s, (j, i): s, (j, j): c})


def _phase(L: int, d: int, i: int, k: int) -> ModeMatrix:
    return _embed(L, d, {(i, i): Cyc.zeta(L, k)})


def _unitary(L: int, d: int, factors) -> ModeMatrix:
    """The product of exactly unitary factors; its exact inverse is its conjugate transpose."""
    fwd = ModeMatrix.identity(L, d)
    for f in factors:
        fwd = fwd @ f
    return fwd


def random_unitary(rng: random.Random, L: int, d: int) -> tuple[Matrix, Matrix]:
    """An exact unitary with its exact inverse, both as rows of Cyc."""
    u = _random_moves(rng, L, d)
    return u.to_rows(), u.conj_transpose().to_rows()


def _random_moves(rng: random.Random, L: int, d: int, real: bool = False) -> ModeMatrix:
    """An exact unitary (orthogonal when real) of MOVES elementary moves."""
    factors = []
    for _ in range(MOVES):
        kind = rng.choice(("givens", "phase", "swap") if not real else ("givens", "sign", "swap"))
        i, j = rng.sample(range(d), 2) if d >= 2 else (0, 0)
        if kind == "givens":
            c, s = rng.choice(PYTHAGOREAN)
            factors.append(_givens(L, d, i, j, c, s))
        elif kind == "phase":
            factors.append(_phase(L, d, i, rng.randrange(L)))
        elif kind == "sign":
            factors.append(_phase(L, d, i, L // 2))
        else:
            factors.append(_embed(L, d, {(i, i): 0, (j, j): 0, (i, j): 1, (j, i): 1}))
    return _unitary(L, d, factors)


def random_quaternionic_unitary(rng: random.Random, L: int, d: int) -> ModeMatrix:
    """An exact unitary of MOVES moves commuting with the doubled-model structure map."""
    r = d // 2
    factors = []
    for _ in range(MOVES):
        kind = rng.choice(("rot", "phase", "flip"))
        if kind == "rot" and r >= 2:
            i, j = rng.sample(range(r), 2)
            c, s = rng.choice(PYTHAGOREAN)
            # the same rotation on the plus and the minus block
            entries = {(i, i): c, (i, j): -s, (j, i): s, (j, j): c}
            entries.update({(r + a, r + b): v for (a, b), v in entries.items()})
        elif kind == "phase":
            i = rng.randrange(r)
            k = rng.randrange(L)
            entries = {(i, i): Cyc.zeta(L, k), (r + i, r + i): Cyc.zeta(L, -k)}
        else:
            i = rng.randrange(r)
            # e_i+ -> e_i-, e_i- -> -e_i+: the structure map's own rotation
            entries = {(i, i): 0, (r + i, r + i): 0, (i, r + i): -1, (r + i, i): 1}
        factors.append(_embed(L, d, entries))
    return _unitary(L, d, factors)


def random_operator(rng: random.Random, family: str, dim: int, order_hint: int = 4) -> OperatorSpec:
    """A seeded finite-order operator of the given family, as an OperatorSpec."""
    if family == "C_unitary":
        m = order_hint
        L = working_conductor(4, 4 * m)
        v = _random_moves(rng, L, dim)
        exps = [rng.randrange(m) for _ in range(dim)]
        exps[0] = 0
        exps[min(1, dim - 1)] = 1 if m > 1 else 0  # force the full order
        diag = _embed(L, dim, {(i, i): Cyc.zeta(L, (e * (L // m)) % L) for i, e in enumerate(exps)})
        a = v @ diag @ v.conj_transpose()
        # a projective phase exercises the finite-order lift
        a = a.scale(Cyc.zeta(L, rng.randrange(L)))
        spec = OperatorSpec("C", False, dim, a, 1)
        return OperatorSpec("C", False, dim, a, automorphism_order(spec))
    if family == "H":
        r = dim // 2
        m = order_hint
        L = working_conductor(4, 4 * m)
        v = random_quaternionic_unitary(rng, L, dim)
        exps = [rng.randrange(m // 2 + 1) for _ in range(r)]
        entries = {}
        for i, e in enumerate(exps):
            entries[(i, i)] = Cyc.zeta(L, (e * (L // m)) % L)
            entries[(r + i, r + i)] = Cyc.zeta(L, (-e * (L // m)) % L)
        a = v @ _embed(L, dim, entries) @ v.conj_transpose()
        spec = OperatorSpec("H", False, dim, a, 1)
        return OperatorSpec("H", False, dim, a, automorphism_order(spec))
    if family == "R":
        m = order_hint
        L = working_conductor(4, 4 * m)
        v = _random_moves(rng, L, dim, real=True)
        entries = {}
        i = 0
        # single +-1 axes: one for odd dims, sometimes a (+1, -1) pair for even dims
        singles = [1] if dim % 2 else (rng.choice(([], [1, -1])) if dim >= 6 else [])
        if dim % 2 and dim >= 5 and rng.random() < 0.5:
            singles = [1, -1, rng.choice([1, -1])]
        for s in singles:
            entries[(i, i)] = Cyc.rational(L, s)
            i += 1
        while i + 1 < dim:
            k = rng.randrange(m)
            c = Cyc.zeta(L, (k * (L // m)) % L)
            # real rotation block with angle 2*pi*k/m
            entries[(i, i)] = (c + c.conj()) * Cyc.rational(L, Fraction(1, 2))
            entries[(i + 1, i + 1)] = entries[(i, i)]
            sin = (c - c.conj()) * Cyc.i(L).inverse() * Cyc.rational(L, Fraction(1, 2))
            entries[(i, i + 1)] = -sin
            entries[(i + 1, i)] = sin
            i += 2
        if i < dim:
            entries[(i, i)] = Cyc.rational(L, rng.choice((1, -1)))
            i += 1
        a = v @ _embed(L, dim, entries) @ v.conj_transpose()
        spec = OperatorSpec("R", False, dim, a, 1)
        return OperatorSpec("R", False, dim, a, automorphism_order(spec))
    if family == "C_antiunitary":
        # conjugate a standard block form by an exact unitary
        n = max(2, order_hint)
        L = working_conductor(8, 4 * n)
        r = dim // 2
        has_fixed = dim % 2 == 1
        entries = {}
        for i in range(r):
            e = rng.randrange(n // 2 + 1)
            pc, mc = i, (r + 1 if has_fixed else r) + i
            entries[(pc, pc)] = 0
            entries[(mc, mc)] = 0
            entries[(pc, mc)] = Cyc.zeta(L, (e * (L // (2 * n))) % L)
            entries[(mc, pc)] = Cyc.zeta(L, (-e * (L // (2 * n))) % L)
        if has_fixed:
            entries[(r, r)] = 1
        std = _embed(L, dim, entries)
        v = _random_moves(rng, L, dim)
        # linear part of V (Std o conj) V^-1 is V Std conj(V^-1) = V Std V^T
        a = v @ std @ v.conj_transpose().conj()
        spec = OperatorSpec("C", True, dim, a, 2)
        return OperatorSpec("C", True, dim, a, automorphism_order(spec))
    raise ValueError(f"unknown family {family}")


def random_functional(rng: random.Random, rank: int, denoms=(1, 2, 3)) -> Functional:
    return Functional(
        {j: Fraction(rng.randint(-3, 3), rng.choice(denoms)) for j in range(1, rank + 1)}
    )


def random_loop_element(rng: random.Random, spec, L: int, max_mode: int = 2):
    """A seeded element of a standard double extension, entries in 0, +-1, +-i."""
    from .loopalg import DoubleExtElement, LoopElement
    from .models import standard_model

    model, random, choice = standard_model(spec.lars, spec.base.rank), rng.random, rng.choice
    z, t = Cyc.rational(L, rng.randint(-1, 1)), Cyc.rational(L, rng.randint(-1, 1))
    units = {(c, u): tuple(c * x for x in (Cyc.i(L) if u else Cyc.one(L)).num) for c in (1, -1) for u in (True, False)}
    modes = {}
    for _ in range(2):
        n = rng.randint(-max_mode, max_mode)
        rows = [{} for _ in range(model.dim)]
        for row in rows:
            for j in range(model.dim):
                if random() < LOOP_DENSITY:
                    c = choice((0, 1, -1))
                    u = random() < 0.3  # drawn for c = 0 too, so the stream of draws stays the same
                    if c:
                        row[j] = units[c, u]
        mm = model.mode_project(model.algebra_project(ModeMatrix(L, model.dim, 1, rows, canonical=True)), n)
        modes[n] = modes[n] + mm if n in modes else mm
    return DoubleExtElement(z, LoopElement(tuple(modes.items())), t)


def random_twisted_element(rng: random.Random, cert):
    """A seeded element of the pre-standardization (twisted) double extension."""
    from .loopalg import DoubleExtElement, LoopElement

    L = cert.conductor
    n_phi = cert.orders[0]
    pieces = cert.grading_pieces
    out = DoubleExtElement(
        Cyc.rational(L, rng.randint(-1, 1)), LoopElement(()), Cyc.rational(L, rng.randint(-1, 1))
    )
    for _ in range(TWISTED_TERMS):
        m, vec = pieces[rng.randrange(len(pieces))]
        n = m + n_phi * rng.randint(-TWISTED_WINDOW, TWISTED_WINDOW)
        coef = Cyc.rational(L, rng.choice((1, -1, 2))) * (
            Cyc.i(L) if rng.random() < 0.3 else Cyc.one(L)
        )
        out = out + DoubleExtElement.from_loop(L, n, vec.scale(coef))
    return out
