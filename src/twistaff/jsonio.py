"""JSON encoding of the CLI's requests and reports.

Rationals travel as strings "p/q" in lowest terms (integers and "-p/q" strings
of ASCII digits are accepted on input, everything else is refused by
`rational_from_json`); cyclotomic scalars as {"conductor": L, "coeffs": [...]}
in the power basis, with L at most `cyclo.MAX_CONDUCTOR`; matrices as nested
row lists.  Every report carries a "schema": "v1" marker.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .cyclo import MAX_CONDUCTOR, Cyc, conductor_degree


def cyc_to_json(c: Cyc) -> dict:
    """Each coefficient n / den as "0", "p" or "p/q" in lowest terms, one gcd per nonzero n."""
    coeffs = []
    for n in c.num:
        g = gcd(n, c.den) if n else c.den
        coeffs.append(str(n // g) if g == c.den else f"{n // g}/{c.den // g}")
    return {"conductor": c.L, "coeffs": coeffs}


def int_from_json(value, where: str) -> int:
    """A JSON integer (not a boolean); anything else raises IOError naming it."""
    if type(value) is not int:
        raise IOError(f"{where}: expected an integer, got {value!r}")
    return value


def str_from_json(value, where: str) -> str:
    """A JSON string; anything else raises IOError naming it."""
    if type(value) is not str:
        raise IOError(f"{where}: expected a string, got {value!r}")
    return value


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_from_json(value, where: str) -> Fraction:
    """A JSON integer or "p/q" string as a Fraction; anything else raises IOError naming it.

    A string is an optional "-", ASCII digits and optionally "/" and ASCII
    digits: no sign on the denominator, no spaces, decimals, exponents or
    underscores.
    """
    if type(value) is int:
        return Fraction(value)
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise IOError(f"{where}: rationals are integers or 'p/q' strings, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise IOError(f"{where}: zero denominator in {value!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise IOError(f"{where}: {exc}") from None


def cyc_from_json(obj) -> Cyc:
    """Parse a scalar; a malformed one raises IOError, which the CLI reports with exit 2."""
    where = "malformed cyclotomic scalar"
    if not isinstance(obj, dict):
        raise IOError(f"{where}: expected an object, got {obj!r}")
    L, coeffs = obj["conductor"], obj["coeffs"]
    if type(L) is not int or L < 4 or L % 4:
        raise IOError(f"{where}: conductor {L!r} is not a positive integer divisible by 4")
    if L > MAX_CONDUCTOR:
        raise IOError(f"{where}: conductor {L} is above MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    phi = conductor_degree(L)
    if not isinstance(coeffs, list) or len(coeffs) != phi:
        raise IOError(f"{where}: conductor {L} needs {phi} coefficients, got {coeffs!r}")
    fracs = [rational_from_json(x, where) for x in coeffs]
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


def dump_report(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
