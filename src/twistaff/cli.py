"""Batch command line front end: JSON in, JSON report out.

One subcommand per pipeline.  Exit codes: 0 on success; 1 on a refusal, a
`DomainError` (invariant violation, failed verification); 2 on a malformed
request or an I/O error, an `OSError`; 3 on a program fault, any other
exception, with its traceback on stderr.
Each handler takes the parsed options and the request object and returns
(exit code, report body); ``main`` loads the request and frames every report
as {"schema": "v1", "request": echo, **body}.  The echo holds the command,
the input path and every option the command reads but ``UNECHOED``.
Reports are byte-stable for a fixed request and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from functools import lru_cache

from . import DomainError, jsonio
from .affine import AffinisationSpec, Weight, check_root_window, enumerate_affine_roots, lars_finite_parts
from .autnorm import OperatorSpec, mode_class, standardize, verify_certificate
from .energy import Character, character_of, min_energy, theorem_b_pipeline
from .loopalg import apply_derivation, bracket, bracket_sum, kappa_form, phi_hat, validate_element
from .rootdata import Functional
from .sampling import random_loop_element, random_twisted_element


#: the JSON of the zero functional, the default of optional functional fields
NO_COORDS = {"coords": {}}


def _load(path):
    """The request object of an input file; anything but a JSON object is a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise IOError(f"input file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise IOError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise IOError(f"the input in {path} must be a JSON object, got {json.dumps(obj)}")
    return obj


def _parse(parse, value, where):
    """parse(value) for a JSON object; a malformed value's IOError is re-raised naming where."""
    if not isinstance(value, dict):
        raise IOError(f"{where} must be a JSON object, got {json.dumps(value)}")
    try:
        return parse(value)
    except IOError as exc:
        raise IOError(f"malformed {where}: {exc}") from exc


def _vector(cls, rank):
    """The parser of a vector-valued field whose indices must not exceed rank."""
    return lambda value: cls.from_json(value, rank)


def _field(obj, key, parse, where, default=None):
    """parse(obj[key]) for an object field, with an optional default for a missing one."""
    return _parse(parse, jsonio.json_field(obj, key, where, default=default), f"field {key!r} of {where}")


def _ranked_field(obj, key, cls, rank, where, default=None):
    """A vector field with indices at most a certificate's rank; a refusal names the field and the rank."""
    return _field(obj, key, _vector(cls, rank), f"{where} (standardized rank {rank})", default)


def _cert_summary(cert) -> dict:
    """The certificate fields that map-roots, check-isom and theorem-b report."""
    return {"lars": cert.lars, "rank": cert.rank, "orders": list(cert.orders)}


def cmd_normalize(args, obj):
    spec = _parse(OperatorSpec.from_json, obj, "normalize input")
    cert = standardize(spec)
    report = verify_certificate(spec, cert)
    body = {"certificate": cert.to_json(), "verification": report.to_json()}
    return (0 if report.all_passed else 1), body


def cmd_roots(args, obj):
    spec = _parse(AffinisationSpec.from_json, obj, "roots input")
    roots = enumerate_affine_roots(spec.lars, spec.base, args.window)
    parts = {a: a.to_json() for a in lars_finite_parts(spec.lars, spec.base)}
    listing = [{"root": parts[r.root], "mode": r.mode} for r in roots]
    return 0, {"spec": spec.to_json(), "count": len(roots), "roots": listing}


def cmd_map_roots(args, obj):
    spec = _field(obj, "operator", OperatorSpec.from_json, "map-roots input")
    cert = standardize(spec)
    n_phi = cert.orders[0]
    window = args.window = args.window or 4 * n_phi  # the echo reports the resolved window
    parts = lars_finite_parts(cert.lars, cert.base)
    check_root_window(parts, window)
    table = []
    for a in parts:
        root, residues = a.to_json(), mode_class(cert, a)
        modes = (n for n in range(-window, window + 1) if n % n_phi in residues)
        for n, t, contained in cert.image_modes(a, modes):
            table.append(
                {"root": root, "mode": n, "image_mode": str(t), "integral": type(t) is int, "in_target": contained}
            )
    ok = all(e["integral"] and e["in_target"] for e in table)
    body = {"certificate": _cert_summary(cert), "map": table, "all_integral_and_contained": ok}
    return (0 if ok else 1), body


def cmd_check_isom(args, obj):
    spec = _field(obj, "operator", OperatorSpec.from_json, "check-isom input")
    cert = standardize(spec)
    nu = _ranked_field(obj, "nu", Functional, cert.rank, "check-isom input", NO_COORDS)
    src = cert.source_spec(nu)
    dst = cert.target_spec(nu)
    rng = random.Random(args.seed)
    checks = []
    ok_all = True
    for trial in range(args.count):
        a = random_twisted_element(rng, cert)
        b = random_twisted_element(rng, cert)
        fa = phi_hat(cert, src, dst, a)
        fb = phi_hat(cert, src, dst, b)
        validate_element(dst, fa)
        lhs = phi_hat(cert, src, dst, bracket(src, a, b))
        rhs = bracket(dst, fa, fb)
        good = lhs == rhs
        ok_all &= good
        checks.append({"pair": trial, "bracket_preserved": good})
    # Weyl coincidence of matched reflections.  s_r(v) = v - r(v) r-check is linear in v, and
    # source and target roots share the finite part a, so the reflections coincide exactly
    # when the root weights do: n / N_src + nu(a) = t / N_dst + (mu + nu)(a).  Every t that
    # image_mode returns satisfies that, and t moves by +-N_dst at n +- N_src, so the verdict
    # is that every residue's image mode is an integer.
    parts = lars_finite_parts(cert.lars, cert.base)
    weyl_ok = all(type(t) is int for a in parts for _, t, _ in cert.image_modes(a, mode_class(cert, a)))
    ok_all &= weyl_ok
    body = {
        "certificate": _cert_summary(cert),
        "bracket_checks": checks,
        "weyl_reflections_coincide": weyl_ok,
        "passed": bool(ok_all),
    }
    return (0 if ok_all else 1), body


def cmd_bracket_check(args, obj):
    spec = _parse(AffinisationSpec.from_json, obj, "bracket-check input")
    if not spec.is_standard():
        raise DomainError("bracket-check expects a standard spec; use check-isom for twists")
    rng = random.Random(args.seed)
    L = 4
    results = {"antisymmetry": 0, "jacobi": 0, "invariance": 0, "derivation_skew": 0}
    for _ in range(args.count):
        a = random_loop_element(rng, spec, L)
        b = random_loop_element(rng, spec, L)
        c = random_loop_element(rng, spec, L)
        ab, bc = bracket(spec, a, b), bracket(spec, b, c)
        # [b, a] stays a bracket of its own (in one kernel call with [a, b] the products would cancel);
        # on the sigma path [a, b] folds A B and [b, a] folds B A, so this tests s_k P(A B) = -B A
        if (ab + bracket(spec, b, a)).is_zero():
            results["antisymmetry"] += 1
        if bracket_sum(spec, ((a, bc), (b, bracket(spec, c, a)), (c, ab))).is_zero():
            results["jacobi"] += 1
        if kappa_form(spec, ab, c) == kappa_form(spec, a, bc):
            results["invariance"] += 1
        da = apply_derivation(spec, spec.slant_nu, a)
        db = apply_derivation(spec, spec.slant_nu, b)
        if kappa_form(spec, da, b) == -kappa_form(spec, a, db):
            results["derivation_skew"] += 1
    ok = all(v == args.count for v in results.values())
    body = {"spec": spec.to_json(), "passed_counts": results, "trials": args.count, "passed": ok}
    return (0 if ok else 1), body


def cmd_min_energy(args, obj):
    where = "min-energy input"
    spec = _field(obj, "spec", AffinisationSpec.from_json, where)
    rank = spec.base.rank
    lam = _field(obj, "weight", _vector(Weight, rank), where)
    if "chi" in obj:
        chi = _field(obj, "chi", _vector(Character, rank), where)
    else:
        nu_prime = _field(obj, "nu_prime", _vector(Functional, rank), where, NO_COORDS)
        chi = character_of(spec, spec.slant_nu, nu_prime)
    report = min_energy(spec, lam, chi, oracle_bound=args.bound, jobs=args.jobs)
    return 0, {"spec": spec.to_json(), "weight": lam.to_json(), "chi": chi.to_json(), "report": report.to_json()}


#: the vector fields of a theorem-b request: (key, class, default)
_THEOREM_B_VECTORS = (
    ("weight", Weight, None), ("nu", Functional, NO_COORDS), ("nu_prime", Functional, NO_COORDS)
)


def cmd_theorem_b(args, obj):
    where = "theorem-b input"
    spec = _field(obj, "operator", OperatorSpec.from_json, where)
    # malformed vectors fail before standardizing: the standardized rank is at most the dimension
    for key, cls, default in _THEOREM_B_VECTORS:
        _field(obj, key, _vector(cls, spec.dim), where, default)
    cert = standardize(spec)
    lam, nu, nu_prime = (
        _ranked_field(obj, key, cls, cert.rank, where, default) for key, cls, default in _THEOREM_B_VECTORS
    )
    report = theorem_b_pipeline(
        cert, lam, nu, nu_prime, oracle_bound=args.bound, require_integral=not args.allow_nonintegral
    )
    summary = _cert_summary(cert) | {"mu": cert.mu.to_json(), "exponents": list(cert.exponents)}
    return 0, {"certificate": summary, "report": report.to_json()}


def _int_at_least(low):
    """An argparse type: an integer of at least low, else a usage error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


#: the options a subcommand may read besides --input and --output
OPTIONS = {
    "--bound": dict(type=_int_at_least(0), default=10, help="lattice box bound for the oracle"),
    "--window": dict(type=_int_at_least(0), default=0, help="mode window for root listings"),
    "--seed": dict(type=int, default=0, help="seed for pseudorandom checks"),
    "--count": dict(type=_int_at_least(0), default=20, help="number of pseudorandom trials"),
    "--jobs": dict(type=_int_at_least(1), default=1, help="parallel workers for orbit search"),
    "--allow-nonintegral": dict(
        action="store_true", help="compute the orbit infimum even for non-integral weights"
    ),
}

#: the OPTIONS that a request echo leaves out: neither changes the bytes of a report the request gets
UNECHOED = ("--jobs", "--allow-nonintegral")

#: subcommand -> (handler, the OPTIONS it reads)
COMMANDS = {
    "normalize": (cmd_normalize, ()),
    "roots": (cmd_roots, ("--window",)),
    "map-roots": (cmd_map_roots, ("--window",)),
    "check-isom": (cmd_check_isom, ("--seed", "--count")),
    "bracket-check": (cmd_bracket_check, ("--seed", "--count")),
    "min-energy": (cmd_min_energy, ("--bound", "--jobs")),
    "theorem-b": (cmd_theorem_b, ("--bound", "--allow-nonintegral")),
}


@lru_cache(maxsize=None)
def build_parser():
    p = argparse.ArgumentParser(prog="twistaff", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True, help="path to the JSON request")
        sp.add_argument("--output", help="path for the JSON report (default: stdout)")
        for flag in options:
            sp.add_argument(flag, **OPTIONS[flag])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, options = COMMANDS[args.command]
    try:
        code, body = handler(args, _load(args.input))
        # read after the handler, which may resolve a default (map-roots' window)
        request = {"command": args.command, "input": args.input}
        request |= {flag[2:]: getattr(args, flag[2:]) for flag in options if flag not in UNECHOED}
        text = jsonio.dump_report({"schema": "v1", "request": request, **body}, args.output)
    except OSError as exc:  # a malformed request, or an unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a program fault, never a refusal
        traceback.print_exc()
        return 3
    if not args.output:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.output}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
