"""JSON encoding shared by the CLI and the serialization round-trip tests.

Rationals travel as strings "p/q" in lowest terms; cyclotomic scalars as
{"conductor": L, "coeffs": [...]} in the power basis; matrices as nested
row lists.  Every report carries a "schema": "v1" marker.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .cyclo import Cyc, conductor_degree


def cyc_to_json(c: Cyc) -> dict:
    return {"conductor": c.L, "coeffs": [str(Fraction(n, c.den)) for n in c.num]}


def cyc_from_json(obj) -> Cyc:
    """Parse a scalar; a malformed one raises IOError, which the CLI reports with exit 2."""
    where = "malformed cyclotomic scalar"
    if not isinstance(obj, dict):
        raise IOError(f"{where}: expected an object, got {obj!r}")
    L, coeffs = obj["conductor"], obj["coeffs"]
    if type(L) is not int or L < 4 or L % 4:
        raise IOError(f"{where}: conductor {L!r} is not a positive integer divisible by 4")
    phi = conductor_degree(L)
    if not isinstance(coeffs, list) or len(coeffs) != phi:
        raise IOError(f"{where}: conductor {L} needs {phi} coefficients, got {coeffs!r}")
    if any(type(x) not in (int, str) for x in coeffs):
        raise IOError(f"{where}: coefficients must be integers or 'p/q' strings, got {coeffs!r}")
    try:
        fracs = [Fraction(x) for x in coeffs]
    except ZeroDivisionError as exc:
        raise IOError(f"{where}: zero denominator in {coeffs!r}") from exc
    except ValueError as exc:
        raise IOError(f"{where}: {exc}") from exc
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return Cyc(L, tuple(int(f * den) for f in fracs), den)


def mat_to_json(m) -> list:
    return [[cyc_to_json(c) for c in row] for row in m]


def mat_from_json(rows, L: int | None = None):
    out = tuple(tuple(cyc_from_json(c) for c in row) for row in rows)
    if L is not None:
        out = tuple(tuple(c.lift(L) if c.L != L else c for c in row) for row in out)
    return out


def element_to_json(a) -> dict:
    """DoubleExtElement as {"z": ..., "modes": {...}, "t": ...}."""
    return {
        "z": cyc_to_json(a.z),
        "modes": {str(n): mat_to_json(m) for n, m in a.loop.terms},
        "t": cyc_to_json(a.t),
    }


def element_from_json(obj):
    from .loopalg import DoubleExtElement, LoopElement

    z = cyc_from_json(obj["z"])
    terms = tuple((int(n), mat_from_json(m, z.L)) for n, m in obj.get("modes", {}).items())
    return DoubleExtElement(z, LoopElement(terms), cyc_from_json(obj["t"]))


def dump_report(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
