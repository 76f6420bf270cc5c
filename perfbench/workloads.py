"""Seeded request streams for the three benchmark workloads.

Every stream is a fixed cycle of strata (family/kind, size, order) repeated
with fresh seeded content, so any prefix a timed run reaches holds the same
mix of request kinds whatever the seed; the seed only changes the operators,
slants, weights and pseudorandom checks inside each stratum.  All inputs are
built with `twistaff.sampling` and the public constructors, and written as
the JSON requests the CLI reads.

Operators come from a fixed pool per stratum (POOL seeded members each) and
the seed picks the member, so every operator a stream can hold, and every
min-energy input, is known in advance: `run.py --check-pool` sends them all.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from twistaff.affine import LARS_KINDS, Weight, standard_spec
from twistaff.rootdata import Functional
from twistaff.sampling import random_functional, random_operator

DEFAULT_SEED = 0
WORKLOADS = ("twist-pipeline", "lie-brackets", "energy-grid")

#: operator strata of twist-pipeline: (family, dims, order hints); dims and
#: hints give conductors 8..24, the antiunitary ones with sqrt(2) adjoined
TWIST_STRATA = (
    ("C_unitary", (3, 4, 5, 6), (2, 3, 4, 6)),
    ("H", (4, 6), (2, 3, 4, 6)),
    ("R", (4, 5, 6), (2, 3, 4, 6)),
    ("C_antiunitary", (4, 5, 6), (2, 3)),
)
#: bracket-pair trials per check-isom request
CHECK_ISOM_COUNT = 3
#: random triples per bracket-check request
BRACKET_COUNT = 4
#: standard ranks of lie-brackets
RANKS = (2, 3, 4)
#: rank rotation of energy-grid: rank 2 and A1 requests are quick, so they stay
#: a minority and the median request is a rank-3 or rank-4 box oracle
ENERGY_RANKS = (2, 3, 4, 3)
#: oracle box bound per rank in energy-grid
ENERGY_BOUND = {2: 10, 3: 10, 4: 3}
#: central values of the energy weights; lc < 0 takes the divergence path
ENERGY_LC = (1, 2, -1)
#: finite part of the energy weights and the nu_prime choices, as in the
#: acceptance grid; larger random ones can put the minimizer outside the
#: rank-4 oracle box, which then reports a disagreement
ENERGY_L0 = {1: Fraction(1), 2: Fraction(1, 2)}
ENERGY_NU_PRIME = ({}, {1: Fraction(1)}, {2: Fraction(1, 2), 3: Fraction(-1, 3)})
#: theorem-b operators (family, dim): standardized ranks 2 to 4
THEOREM_B_OPERATORS = (
    ("H", 6), ("R", 4), ("C_unitary", 4), ("C_antiunitary", 6), ("R", 6), ("C_antiunitary", 5),
)
#: one theorem-b request after this many min-energy requests
THEOREM_B_EVERY = 6
#: cycles generated per stream; more than a 60 s run completes at the seed commit
CYCLES = {"twist-pipeline": 4, "lie-brackets": 8, "energy-grid": 4}
#: seeded operators per stratum that a stream picks from, per stream; twist-pipeline
#: keeps one, because one run covers about one cycle, and members of a stratum
#: differ in cost up to fivefold (R dim 5 order 6: 0.6 s against 3.1 s), so
#: drawing among four gave five-seed spreads of 0.17 (throughput) and 0.26
#: (tail) against 0.03 and 0.07 with one
POOL = {"twist": 1, "tb": 4}


@dataclass
class Request:
    """One CLI call: `twistaff <command> --input <input> <args> --output ...`."""

    command: str
    input: str
    args: list = field(default_factory=list)
    lc: int | None = None  # central value of the weight, for the energy sign check
    operator: str | None = None  # fixture name of the operator, when there is one
    shape: tuple | None = None  # (kind, rank) of a min-energy request
    member: tuple | None = None  # (stream, family, dim, order hint, k) of its pool operator

    def argv(self, output: str, extra=()) -> list:
        return [self.command, "--input", self.input, *self.args, *extra, "--output", output]


@functools.lru_cache(maxsize=None)
def _member(stream, fam, dim, hint, k):
    """Pool member k of a stratum: the operator and the generator that drew it."""
    rng = random.Random(f"{stream}:{fam}:{dim}:{hint}:{k}")
    return random_operator(rng, fam, dim, order_hint=hint).to_json(), rng.getstate()


def _twist_strata():
    strata = [(fam, d, h) for fam, dims, hints in TWIST_STRATA for h in hints for d in dims]
    # one fixed order, the same for every seed, that mixes cheap and costly
    # strata so the part of a cycle a run reaches has the cycle's mix
    random.Random("twist-pipeline strata").shuffle(strata)
    return strata


def _twist_requests(files, requests, fam, dim, hint, k, seed):
    """The normalize -> map-roots -> check-isom triple on one pool member."""
    member = ("twist", fam, dim, hint, k)
    op_name, req_name = (f"{kind}-{fam}-{dim}-{hint}-{k}.json" for kind in ("op", "req"))
    if op_name not in files:
        op = _member(*member)[0]
        files[op_name] = op
        files[req_name] = {"operator": op}
    requests.append(Request("normalize", op_name, operator=op_name, member=member))
    requests.append(Request("map-roots", req_name, operator=op_name, member=member))
    requests.append(Request(
        "check-isom", req_name, ["--seed", str(seed), "--count", str(CHECK_ISOM_COUNT)],
        operator=op_name, member=member,
    ))


def _twist_pipeline(rng, cycles):
    files, requests = {}, []
    for c in range(cycles):
        for fam, dim, hint in _twist_strata():
            k = rng.randrange(POOL["twist"])
            _twist_requests(files, requests, fam, dim, hint, k, rng.randrange(1 << 16))
    return files, requests


def _kind_rank_cycle(ranks):
    # block j pairs every kind with a rotated rank, so ranks mix in each block
    n = len(ranks)
    return [(LARS_KINDS[k], ranks[(k + j) % n], j) for j in range(n) for k in range(len(LARS_KINDS))]


def _lie_brackets(rng, cycles):
    files, requests = {}, []
    for c in range(cycles):
        for kind, rank, _ in _kind_rank_cycle(RANKS):
            spec = standard_spec(kind, rank, nu=random_functional(rng, rank))
            name = f"spec-{len(files):04d}.json"
            files[name] = spec.to_json()
            # two bracket checks per root listing keep the median inside the
            # bracket-check times instead of at the gap to the faster listings
            for cmd in ("bracket-check", "roots", "bracket-check"):
                if cmd == "roots":
                    args = ["--window", str(rng.randint(6, 12))]
                else:
                    args = ["--seed", str(rng.randrange(1 << 16)), "--count", str(BRACKET_COUNT)]
                requests.append(Request(cmd, name, args))
    return files, requests


def _energy_request(files, kind, rank, lc, nu_prime):
    name = f"energy-{len(files):04d}.json"
    files[name] = {
        "spec": standard_spec(kind, rank).to_json(),
        "weight": Weight(lc, Functional(ENERGY_L0), 0).to_json(),
        "nu_prime": Functional({j: v for j, v in nu_prime.items() if j <= rank}).to_json(),
    }
    return Request("min-energy", name, ["--bound", str(ENERGY_BOUND[rank])], lc=lc, shape=(kind, rank))


def _energy_grid(rng, cycles):
    files, requests = {}, []
    since_theorem_b = 0
    for c in range(cycles):
        for k, (kind, rank, j) in enumerate(_kind_rank_cycle(ENERGY_RANKS)):
            lc = ENERGY_LC[(k + 2 * j + c) % 3]
            requests.append(_energy_request(files, kind, rank, lc, rng.choice(ENERGY_NU_PRIME)))
            since_theorem_b += 1
            if since_theorem_b == THEOREM_B_EVERY:
                since_theorem_b = 0
                count = sum(1 for n in files if n.startswith("tb-"))
                fam, dim = THEOREM_B_OPERATORS[count % len(THEOREM_B_OPERATORS)]
                hint = rng.choice(_theorem_b_hints(fam))
                k = rng.randrange(POOL["tb"])
                requests.append(_theorem_b_request(files, fam, dim, hint, k, negative=count % 4 == 3))
    return files, requests


def _theorem_b_hints(fam):
    return (2, 3) if fam == "C_antiunitary" else (2, 3, 4)


def _theorem_b_request(files, fam, dim, hint, k, negative):
    op, state = _member("tb", fam, dim, hint, k)
    rng = random.Random()
    rng.setstate(state)
    # twice the operator order makes the weight integral on the twisted side
    lc = 2 * op["order"] * (-1 if negative else 1)
    name = f"tb-{sum(1 for n in files if n.startswith('tb-')):04d}.json"
    files[name] = {
        "operator": op,
        "weight": Weight(lc, Functional({1: rng.randint(-1, 1)}), 0).to_json(),
        "nu": {"coords": {}},
        "nu_prime": Functional({1: Fraction(rng.randint(-2, 2), 2)}).to_json(),
    }
    return Request("theorem-b", name, ["--bound", "10"], lc=lc, operator=name, member=("tb", fam, dim, hint, k))


def _twist_pool():
    files, requests = {}, []
    for fam, dim, hint in _twist_strata():
        for k in range(POOL["twist"]):
            _twist_requests(files, requests, fam, dim, hint, k, k)
    return files, requests


def _energy_pool():
    files, requests = {}, []
    for kind in LARS_KINDS:
        for rank in sorted(ENERGY_BOUND):
            for lc in ENERGY_LC:
                for nu_prime in ENERGY_NU_PRIME:
                    requests.append(_energy_request(files, kind, rank, lc, nu_prime))
    for fam, dim in THEOREM_B_OPERATORS:
        for hint in _theorem_b_hints(fam):
            for k in range(POOL["tb"]):
                for negative in (False, True):
                    requests.append(_theorem_b_request(files, fam, dim, hint, k, negative))
    return files, requests


_BUILDERS = {
    "twist-pipeline": _twist_pipeline,
    "lie-brackets": _lie_brackets,
    "energy-grid": _energy_grid,
}


_POOLS = {"twist-pipeline": _twist_pool, "energy-grid": _energy_pool}
#: workloads whose streams draw every input from a finite pool
POOLED = tuple(_POOLS)


def pool(workload: str):
    """The files and every request a stream of a POOLED workload can hold."""
    return _POOLS[workload]()


def build(workload: str, seed: int):
    """The fixture files (name -> JSON object), the ordered request stream and
    the length of one cycle of it."""
    rng = random.Random(f"{workload}:{seed}")
    files, requests = _BUILDERS[workload](rng, CYCLES[workload])
    return files, requests, len(requests) // CYCLES[workload]
