"""Micro timings of the cyclotomic kernel at the conductors the workloads use.

Operands are seeded and fixed before timing; each figure is the median over
repeats of the mean time per operation, so one preempted repeat does not
move it.
"""

from __future__ import annotations

import random
import statistics
import time

from twistaff.cyclo import Cyc, conductor_degree, mat_inverse, mat_mul
from twistaff.sampling import random_unitary

REPEATS = 5


def _scalar(rng, L):
    while True:
        num = tuple(rng.randint(-3, 3) for _ in range(conductor_degree(L)))
        if any(num):
            return Cyc(L, num, rng.randint(1, 4))


def _matrix(rng, L, d):
    return tuple(tuple(_scalar(rng, L) for _ in range(d)) for _ in range(d))


def _per_op(fn, operands, loops):
    """Median over repeats of the mean seconds per call of fn on the operand pairs."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for a, b in operands:
                fn(a, b)
        samples.append((time.perf_counter() - start) / (loops * len(operands)))
    return statistics.median(samples)


def cyclo_micro(seed: int) -> dict:
    """The `cyclo.*_ns.L*` and `cyclo.*_us.L*d*` metrics, in their units."""
    rng = random.Random(f"micro:{seed}")
    out = {}
    for L in (4, 12, 24):
        pairs = [(_scalar(rng, L), _scalar(rng, L)) for _ in range(64)]
        out[f"cyclo.add_ns.L{L}"] = _per_op(lambda a, b: a + b, pairs, 40) * 1e9
        out[f"cyclo.mul_ns.L{L}"] = _per_op(lambda a, b: a * b, pairs, 20) * 1e9
        out[f"cyclo.inverse_us.L{L}"] = _per_op(lambda a, b: a.inverse(), pairs, 2) * 1e6
    pairs = [(_matrix(rng, 4, 7), _matrix(rng, 4, 7)) for _ in range(4)]
    out["cyclo.mat_mul_us.L4d7"] = _per_op(mat_mul, pairs, 3) * 1e6
    pairs = [(_matrix(rng, 24, 6), _matrix(rng, 24, 6)) for _ in range(4)]
    out["cyclo.mat_mul_us.L24d6"] = _per_op(mat_mul, pairs, 2) * 1e6
    unitaries = [(random_unitary(rng, 24, 6)[0], None) for _ in range(2)]
    out["cyclo.mat_inverse_us.L24d6"] = _per_op(lambda a, _: mat_inverse(a), unitaries, 1) * 1e6
    return out
