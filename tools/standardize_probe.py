"""Standardize and verify a grid of seeded operators and count the outcomes.

    PYTHONPATH=src python3 tools/standardize_probe.py

Every operator is `random_operator(random.Random(seed), family, dim, hint)` for
seeds 0-47, the four families, dims 2-7 (only the even ones for H, whose
doubled complex model needs an even dimension) and order hints 2, 3, 4 and 6
(4032 operators).  `standardize` and `verify_certificate` run under a per-operator
SIGALRM of ALARM_S seconds; an operator that outlives it, whose certificate
fails verification, or whose error is not a `StandardizeError` (a program
fault, not a refusal) is listed as it happens.  The last lines print the number
of certificates of each affine kind, which shows that every row of
`affine.KINDS` is reached, the count and total time of the operators whose
certificate sits at a conductor above 24 (the benchmark pools never enlarge
the conductor, so this line is where the large fields are timed), and one
count per outcome: "ok", each distinct error message, "past the alarm" and
"certificate fails verification".  The last two lines are SHA-256 digests in
grid order.  The first is over each operator's certificate and verification
report JSON, or over its outcome text when it has no certificate; it pins the
whole grid's output, but an operator past the alarm makes it depend on the
host's speed.  The second is
over the twisted grading of every certificate that passes verification: the
root, residue and matrix JSON of each `mode_class_vectors` piece of every
finite root, then of each `cartan_mode_vectors` piece (or the error text
when grading raises).  Exit status 1 when any operator is listed, or when
either digest differs from the pair in PINNED, so
a run gates byte-identical certificates and gradings on the whole grid.  A
change that means to move a certificate updates PINNED.  Not part of the test
suite: it takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import time
from collections import Counter

from twistaff.affine import LARS_KINDS, lars_finite_parts
from twistaff.autnorm import (
    StandardizeError,
    cartan_mode_vectors,
    mode_class_vectors,
    standardize,
    verify_certificate,
)
from twistaff.jsonio import mat_to_json
from twistaff.sampling import random_operator

SEEDS = range(48)
FAMILIES = ("C_unitary", "H", "R", "C_antiunitary")
DIMS = range(2, 8)
HINTS = (2, 3, 4, 6)
ALARM_S = 5
FAULTS = ("past the alarm", "certificate fails verification")
#: the certificate-and-report digest and the grading digest of the whole grid
PINNED = (
    "b81b99d5d2592ccae0432f6b0ea81898b4d6e6c5ff1f98aeaffbb9872b52a25a",
    "2d3c034a4456cb5c50e732c0dcf56e8422e209ce0c420f308ad563694c66a9a1",
)


class Alarm(Exception):
    pass


def _expire(signum, frame):
    raise Alarm


def grading_text(cert):
    """The JSON lines of every grading piece of a certificate, or the error text."""
    try:
        pieces = [
            [a.to_json(), m, mat_to_json(v)]
            for a in lars_finite_parts(cert.lars, cert.base)
            for m, v in mode_class_vectors(cert, a)
        ]
        pieces += [[None, m, mat_to_json(v)] for m, v in cartan_mode_vectors(cert)]
    except Alarm:
        raise
    except Exception as exc:  # a grading error is part of the pinned output
        return f"{type(exc).__name__}: {exc}"
    return "\n".join(json.dumps(p) for p in pieces)


def probe_one(seed, family, dim, hint):
    """The outcome of one operator ("ok", one of FAULTS, or "<ErrorType>: <message>"),
    whether it is a fault (one of FAULTS, or an error other than a
    StandardizeError), its certificate (None without one), the text it adds to
    the digest (the certificate and report JSON, else the outcome) and the text
    it adds to the grading digest (None without a verified certificate)."""
    signal.alarm(ALARM_S)
    try:
        spec = random_operator(random.Random(seed), family, dim, order_hint=hint)
        cert = standardize(spec)
        report = verify_certificate(spec, cert)
        text = json.dumps(cert.to_json(), sort_keys=True) + json.dumps(report.to_json(), sort_keys=True)
        if not report.all_passed:
            return FAULTS[1], True, cert, text, None
        return "ok", False, cert, text, grading_text(cert)
    except Alarm:
        return FAULTS[0], True, None, FAULTS[0], None
    except Exception as exc:  # counted by its message; only a StandardizeError is a refusal
        outcome = f"{type(exc).__name__}: {exc}"
        return outcome, not isinstance(exc, StandardizeError), None, outcome, None
    finally:
        signal.alarm(0)


def main():
    signal.signal(signal.SIGALRM, _expire)
    counts: Counter = Counter()
    kinds: Counter = Counter()
    digest = hashlib.sha256()
    grading = hashlib.sha256()
    large, large_s = 0, 0.0  # operators certified above conductor 24, and their time
    faults = 0
    start = time.perf_counter()
    for seed in SEEDS:
        for family in FAMILIES:
            for dim in DIMS:
                if family == "H" and dim % 2:
                    continue
                for hint in HINTS:
                    began = time.perf_counter()
                    outcome, fault, cert, text, graded = probe_one(seed, family, dim, hint)
                    if cert is not None:
                        kinds[cert.lars] += 1
                        if cert.conductor > 24:
                            large += 1
                            large_s += time.perf_counter() - began
                    digest.update(text.encode() + b"\n")
                    if graded is not None:
                        grading.update(graded.encode() + b"\n")
                    counts[outcome] += 1
                    if fault:
                        faults += 1
                        print(f"{outcome}: seed {seed} {family} dim {dim} hint {hint}", flush=True)
    print(f"{sum(counts.values())} operators in {time.perf_counter() - start:.1f} s")
    print("certificates per kind: " + ", ".join(f"{k} {kinds[k]}" for k in LARS_KINDS))
    print(f"{large} operators certified above conductor 24 in {large_s:.2f} s")
    for outcome, n in counts.most_common():
        print(f"{n:6d}  {outcome}")
    digests = (digest.hexdigest(), grading.hexdigest())
    print(f"sha256 of every certificate and report: {digests[0]}")
    print(f"sha256 of every grading piece: {digests[1]}")
    if digests != PINNED:
        print("the digests differ from PINNED")
    return 1 if digests != PINNED or faults else 0


if __name__ == "__main__":
    sys.exit(main())
