"""JSON encoding of the CLI's requests and reports.

Rationals travel as strings "p/q" in lowest terms (integers and "-p/q" strings
of ASCII digits are accepted on input, everything else is refused by
`rational_from_json`); cyclotomic scalars as {"conductor": L, "coeffs": [...]}
in the power basis, with L at most `cyclo.MAX_CONDUCTOR`; matrices as nested
row lists, read straight into a `cyclo.ModeMatrix` with no `Fraction` per
coefficient.  Every request field is read by `json_field`.  Every report
carries a "schema": "v1" marker and is written by `dump_report` with the bytes
of `json.dumps(report, sort_keys=True, indent=2)`, from a recursive writer
instead of `json`'s pure-Python indenting encoder; a subtree that the report
holds more than once is written once per indent and its text reused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from sys import getrefcount

from .cyclo import MAX_CONDUCTOR, Cyc, ModeMatrix, conductor_degree


def _coeffs_to_json(num, den: int) -> list[str]:
    """Each coefficient n / den as "0", "p" or "p/q" in lowest terms, one gcd per nonzero n."""
    coeffs = []
    for n in num:
        g = gcd(n, den) if n else den
        coeffs.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return coeffs


def cyc_to_json(c: Cyc) -> dict:
    return {"conductor": c.L, "coeffs": _coeffs_to_json(c.num, c.den)}


#: the name of each JSON type a request field may be required to have
_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string", dict: "an object"}


def json_field(obj, key: str, where: str, kind=None, default=None):
    """obj[key] of a JSON object obj, or default when the key is absent and default is not None.

    With a kind the value must have exactly that type, so a boolean is not an
    integer.  A non-object obj, a missing field or a value of another type
    raises IOError naming where and key.
    """
    if type(obj) is not dict:
        raise IOError(f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        if default is None:
            raise IOError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise IOError(f"{where} {key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational_parts(value, where: str) -> tuple[int, int]:
    """(p, q) with q > 0 for a JSON integer or "p/q" string, not reduced; anything else
    raises IOError naming it.

    A string is an optional "-", ASCII digits and optionally "/" and ASCII
    digits: no sign on the denominator, no spaces, decimals, exponents or
    underscores.
    """
    if type(value) is int:
        return value, 1
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise IOError(f"{where}: rationals are integers or 'p/q' strings, got {value!r}")
    p, _, q = value.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError as exc:  # more digits than int() converts
        raise IOError(f"{where}: {exc}") from None
    if q == 0:
        raise IOError(f"{where}: zero denominator in {value!r}")
    return p, q


def rational_from_json(value, where: str) -> Fraction:
    """A JSON integer or "p/q" string as a Fraction (see ``_rational_parts``)."""
    return Fraction(*_rational_parts(value, where))


def _scalar_from_json(obj) -> tuple[int, list[tuple[int, int]]]:
    """The conductor and the coefficients, as (p, q) pairs, of a scalar; a malformed one
    raises IOError, which the CLI reports with exit 2."""
    where = "malformed cyclotomic scalar"
    L, coeffs = json_field(obj, "conductor", where), json_field(obj, "coeffs", where)
    if type(L) is not int or L < 4 or L % 4:
        raise IOError(f"{where}: conductor {L!r} is not a positive integer divisible by 4")
    if L > MAX_CONDUCTOR:
        raise IOError(f"{where}: conductor {L} is above MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    phi = conductor_degree(L)
    if not isinstance(coeffs, list) or len(coeffs) != phi:
        raise IOError(f"{where}: conductor {L} needs {phi} coefficients, got {coeffs!r}")
    return L, [_rational_parts(x, where) for x in coeffs]


def cyc_from_json(obj) -> Cyc:
    L, parts = _scalar_from_json(obj)
    den = lcm(*(q for _, q in parts))
    return Cyc(L, tuple(p * (den // q) for p, q in parts), den)


def mat_to_json(m: ModeMatrix) -> list:
    zero = {"conductor": m.L, "coeffs": ["0"] * conductor_degree(m.L)}
    return [
        [{"conductor": m.L, "coeffs": _coeffs_to_json(row[j], m.den)} if j in row else zero for j in range(m.ncols)]
        for row in m.rows
    ]


def mat_from_json(rows) -> ModeMatrix:
    """The operator matrix of a list of rows of scalars, read into integers over one denominator.

    Every scalar is checked as ``cyc_from_json`` checks it, then the conductors
    must agree.  A matrix without entries is read at conductor 4.
    """
    where = "operator matrix"
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise IOError(f"{where}: expected a list of row lists, got {rows!r}")
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise IOError(f"{where}: rows of unequal lengths {lengths}")
    parsed = [[_scalar_from_json(c) for c in row] for row in rows]
    conductors = sorted({L for row in parsed for L, _ in row})
    if len(conductors) > 1:
        raise IOError(f"{where}: entries at more than one conductor: {conductors}")
    den = lcm(*(q for row in parsed for _, parts in row for _, q in parts))
    nums = [{j: tuple(p * (den // q) for p, q in parts) for j, (_, parts) in enumerate(row)} for row in parsed]
    return ModeMatrix(conductors[0] if conductors else 4, len(rows[0]) if rows else 0, den, nums)


def _write_json(obj, out: list, newline: str, seen: dict) -> None:
    """Append the pieces of obj's ``json.dumps(obj, sort_keys=True, indent=2)`` text to out;
    newline is a newline followed by the indent of obj's own line.

    seen maps (id, newline) of a container that may recur (one held only by its parent, this frame
    and getrefcount's argument cannot) to the slice of out holding its text, joined when next met.
    """
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict or kind is list:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        key = (id(obj), newline) if getrefcount(obj) > 3 else None
        text = seen.get(key)  # nothing is kept under None
        if text is not None:
            if type(text) is tuple:
                text = seen[key] = "".join(out[text[0] : text[1]])
            out.append(text)
            return
        start, inner = len(out), newline + "  "
        if kind is dict:
            if not all(type(k) is str for k in obj):
                raise TypeError("report keys must be str")
            sep = "{"
            for k in sorted(obj):
                out += (sep, inner, encode_basestring_ascii(k), ": ")
                _write_json(obj[k], out, inner, seen)
                sep = ","
            out.append(newline + "}")
        else:
            sep = "["
            for item in obj:
                out += (sep, inner)
                _write_json(item, out, inner, seen)
                sep = ","
            out.append(newline + "]")
        if key:
            seen[key] = (start, len(out))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"a report holds no {kind.__name__}")


def dump_report(obj, path=None) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, written
    to path when one is given.

    ``json``'s C encoder does not indent, and its pure-Python one is slow, so
    ``_write_json`` writes the same bytes for the types a report holds: dicts
    with str keys, lists, str, int, bool and None; anything else raises
    TypeError.  The writer is to be deleted when the compact report
    schema v2 of ROADMAP item 5, written by the C encoder, lands.
    """
    out = []
    _write_json(obj, out, "\n", {})
    text = "".join(out) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
