import json
from random import Random

import pytest

from twistaff.affine import standard_spec
from twistaff.autnorm import MAX_DIM, OperatorSpec, StandardizeError
from twistaff.cli import main
from twistaff.cyclo import MAX_CONDUCTOR, Cyc, ModeMatrix, conductor_degree
from twistaff.jsonio import cyc_from_json, mat_to_json
from twistaff.rootdata import MAX_RANK
from twistaff.sampling import random_operator


@pytest.fixture
def opfile(tmp_path):
    L = 12
    rows = [[Cyc.zero(L) for _ in range(3)] for _ in range(3)]
    rows[0][0] = Cyc.one(L)
    rows[1][1] = Cyc.zeta(L, 4)
    rows[2][2] = Cyc.zeta(L, 8)
    spec = OperatorSpec("C", False, 3, ModeMatrix.from_rows(L, rows), 3)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec.to_json()))
    return path


def run(args):
    return main([str(a) for a in args])


def test_normalize_emits_certificate(opfile, tmp_path):
    out = tmp_path / "cert.json"
    assert run(["normalize", "--input", opfile, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "v1"
    assert doc["verification"]["passed"]
    assert doc["certificate"]["mu"]["coords"] == {"2": "-1/3", "3": "-2/3"}


def test_roots_window_zero_lists_base_roots(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "base": {"kind": "A", "rank": 3}, "lars": "A1", "twist_order": 1,
        "slant_mu": {"coords": {}}, "slant_nu": {"coords": {}},
    }))
    out = tmp_path / "roots.json"
    assert run(["roots", "--input", path, "--window", 0, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 6  # the A_3 base roots at mode zero only


def test_map_roots_flags_membership(opfile, tmp_path):
    req = tmp_path / "mr.json"
    req.write_text(json.dumps({"operator": json.loads(opfile.read_text())}))
    out = tmp_path / "mr_out.json"
    assert run(["map-roots", "--input", req, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_integral_and_contained"]
    assert all(e["integral"] and e["in_target"] for e in doc["map"])


def test_check_isom(opfile, tmp_path):
    req = tmp_path / "ci.json"
    req.write_text(json.dumps({"operator": json.loads(opfile.read_text())}))
    out = tmp_path / "ci_out.json"
    assert run(["check-isom", "--input", req, "--seed", 5, "--count", 4, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and doc["weyl_reflections_coincide"]


def test_bracket_check(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "base": {"kind": "C", "rank": 2}, "lars": "C2", "twist_order": 2,
        "slant_mu": {"coords": {}}, "slant_nu": {"coords": {"1": "1/2"}},
    }))
    out = tmp_path / "bc.json"
    assert run(["bracket-check", "--input", path, "--seed", 1, "--count", 4, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and doc["trials"] == 4


def test_min_energy_and_determinism(tmp_path):
    path = tmp_path / "me.json"
    path.write_text(json.dumps({
        "spec": {"base": {"kind": "A", "rank": 2}, "lars": "A1", "twist_order": 1,
                 "slant_mu": {"coords": {}}, "slant_nu": {"coords": {}}},
        "weight": {"lc": "1", "l0": {"coords": {"1": "1"}}, "ld": "0"},
        "nu_prime": {"coords": {}},
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["min-energy", "--input", path, "--output", out1]) == 0
    assert run(["min-energy", "--input", path, "--output", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["report"]["minimum"] == "0" and doc["report"]["method_agreement"]


def test_min_energy_above_exhaustive_rank_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "me6.json"
    path.write_text(json.dumps({
        "spec": standard_spec("B1", 6).to_json(),
        "weight": {"lc": "1", "l0": {"coords": {"1": "1"}}, "ld": "0"},
    }))
    assert run(["min-energy", "--input", path]) == 1
    assert "exhaustive_rank = 5" in capsys.readouterr().err


def test_theorem_b_command(tmp_path):
    op = OperatorSpec("C", False, 2, ModeMatrix.diagonal(4, [1, -1]), 2)
    path = tmp_path / "tb.json"
    path.write_text(json.dumps({
        "operator": op.to_json(),
        "weight": {"lc": "2", "l0": {"coords": {"1": "1"}}, "ld": "0"},
        "nu": {"coords": {}}, "nu_prime": {"coords": {}},
    }))
    out = tmp_path / "tb_out.json"
    assert run(["theorem-b", "--input", path, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["method_agreement"]
    assert doc["certificate"]["mu"]["coords"] == {"2": "-1/2"}


def test_exit_codes(tmp_path):
    assert run(["roots", "--input", tmp_path / "missing.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": 7}')
    assert run(["roots", "--input", bad]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "base": {"kind": "Q", "rank": 3}, "lars": "C2",
        "slant_mu": {"coords": {}}, "slant_nu": {"coords": {}},
    }))
    assert run(["roots", "--input", invalid]) == 1


def test_reports_reparse(opfile, tmp_path):
    out = tmp_path / "cert.json"
    run(["normalize", "--input", opfile, "--output", out])
    doc = json.loads(out.read_text())
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert json.loads(text) == doc


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"conductor": 4, "coeffs": ["1/0", "0"]}, "zero denominator"),
        ({"conductor": 4, "coeffs": ["one", "0"]}, "integers or 'p/q' strings, got 'one'"),
        ({"conductor": 4, "coeffs": ["1"]}, "needs 2 coefficients"),
        ({"conductor": 4, "coeffs": [1.5, "0"]}, "integers or 'p/q' strings"),
        ({"conductor": 6, "coeffs": ["1", "0"]}, "divisible by 4"),
        ({"conductor": "4", "coeffs": ["1", "0"]}, "divisible by 4"),
        ({"conductor": 4, "coeffs": ["1" * 5000, "0"]}, "Exceeds the limit (4300 digits) for integer string conversion"),
        ({"conductor": 484, "coeffs": ["1"]}, "conductor 484 is above MAX_CONDUCTOR = 480"),
        ({"conductor": 4, "coeffs": ["-1/2", "3/0"]}, "zero denominator in '3/0'"),
        ({"conductor": 4, "coeffs": ["1/-2", "0"]}, "integers or 'p/q' strings, got '1/-2'"),
    ],
)
def test_malformed_scalars_are_parse_errors(tmp_path, capsys, bad, message):
    one = {"conductor": 4, "coeffs": ["1", "0"]}
    zero = {"conductor": 4, "coeffs": ["0", "0"]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "field": "C", "antiunitary": False, "dim": 2, "order": 1,
        "matrix": [[bad, zero], [zero, one]],
    }))
    assert run(["normalize", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "malformed cyclotomic scalar" in err and message in err


def test_conductor_above_the_bound_is_refused_at_once(tmp_path, capsys, time_limit):
    big = {"conductor": 4_000_000, "coeffs": ["1"]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"field": "C", "antiunitary": False, "dim": 1, "order": 1, "matrix": [[big]]}))
    with time_limit(2):
        assert run(["normalize", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "conductor 4000000 is above MAX_CONDUCTOR = 480" in err and "Traceback" not in err
    top = {"conductor": MAX_CONDUCTOR, "coeffs": ["1"] + ["0"] * (conductor_degree(MAX_CONDUCTOR) - 1)}
    assert cyc_from_json(top) == Cyc.one(MAX_CONDUCTOR)


@pytest.mark.parametrize("command, rank", [("roots", 100_000_000), ("bracket-check", MAX_RANK + 1)])
def test_rank_above_the_bound_is_refused_at_once(tmp_path, capsys, time_limit, command, rank):
    path = tmp_path / "spec.json"
    spec = standard_spec("B1", 2).to_json()
    spec["base"]["rank"] = rank
    path.write_text(json.dumps(spec))
    with time_limit(2):
        assert run([command, "--input", path]) == 2
    err = capsys.readouterr().err
    assert f"root system rank {rank} is above MAX_RANK = {MAX_RANK}" in err and "Traceback" not in err


def test_empty_operator_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "op0.json"
    path.write_text(json.dumps({"field": "C", "dim": 0, "order": 1, "matrix": []}))
    assert run(["normalize", "--input", path]) == 1
    assert "dimension must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, request_json, message",
    [
        ("normalize", 5, "must be a JSON object, got 5"),
        ("normalize", [], "must be a JSON object, got []"),
        ("bracket-check", 5, "must be a JSON object, got 5"),
        ("min-energy", {"spec": 5}, "field 'spec' of min-energy input must be a JSON object, got 5"),
    ],
    ids=["normalize-number", "normalize-list", "bracket-check-number", "min-energy-spec-number"],
)
def test_non_object_input_is_a_parse_error(tmp_path, capsys, command, request_json, message):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request_json))
    assert run([command, "--input", path]) == 2
    assert message in capsys.readouterr().err


def test_wrongly_typed_nested_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"base": 5, "lars": "A1"}))
    assert run(["bracket-check", "--input", path]) == 2
    assert "malformed bracket-check input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lc, l0, message",
    [
        ("1", {"1": "1/0"}, "zero denominator in '1/0'"),
        ("1/0", {}, "zero denominator in '1/0'"),
        ("1", {"1": 0.1}, "rationals are integers or 'p/q' strings, got 0.1"),
        ("1", {"0": "1"}, "index '0' is not a positive integer"),
        ("1", {"x": "1"}, "index 'x' is not a positive integer"),
        ("1", {"1": "abc"}, "rationals are integers or 'p/q' strings, got 'abc'"),
        ("1", {"1": "1.5"}, "rationals are integers or 'p/q' strings, got '1.5'"),
        ("1e3", {}, "rationals are integers or 'p/q' strings, got '1e3'"),
        ("1", {"1": " 3/4 "}, "rationals are integers or 'p/q' strings, got ' 3/4 '"),
        ("1_000", {}, "rationals are integers or 'p/q' strings, got '1_000'"),
        ("1", {"1": "\uff13"}, "rationals are integers or 'p/q' strings, got '\uff13'"),
        ("+3", {}, "rationals are integers or 'p/q' strings, got '+3'"),
        ("1", {"1": "1" * 5000}, "Exceeds the limit (4300 digits) for integer string conversion"),
        ("1", {"1e18": "1"}, "index '1e18' is not a positive integer"),
        ("1", {"1000000000": "1"}, "index '1000000000' is above the rank 2"),
    ],
    ids=[
        "zero-denominator", "lc-zero-denominator", "float", "index-zero", "index-letter", "letters",
        "decimal", "exponent", "spaces", "underscore", "full-width-digit", "plus-sign",
        "too-many-digits",
        "index-exponent", "index-above-rank",
    ],
)
def test_malformed_rationals_are_parse_errors(tmp_path, capsys, lc, l0, message):
    path = tmp_path / "req.json"
    weight = {"lc": lc, "l0": {"coords": l0}, "ld": "0"}
    path.write_text(json.dumps({"spec": standard_spec("A1", 2).to_json(), "weight": weight}))
    assert run(["min-energy", "--input", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_vector_indices_above_the_rank_are_parse_errors(opfile, tmp_path, capsys):
    far = {"coords": {"1000000000": "1"}}
    spec = standard_spec("A1", 2).to_json()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, slant_mu=far)))
    assert run(["bracket-check", "--input", path]) == 2
    assert "index '1000000000' is above the rank 2" in capsys.readouterr().err
    weight = {"lc": "1", "l0": {"coords": {}}, "ld": "0"}
    chi = {"chi_c": "0", "chi0_sharp": far, "chi_d": "1"}
    path.write_text(json.dumps({"spec": spec, "weight": weight, "chi": chi}))
    assert run(["min-energy", "--input", path]) == 2
    assert "is above the rank 2" in capsys.readouterr().err
    operator = json.loads(opfile.read_text())
    for command, key in (("theorem-b", "nu_prime"), ("check-isom", "nu")):
        path.write_text(json.dumps({"operator": operator, "weight": weight, key: far}))
        assert run([command, "--input", path]) == 2
        err = capsys.readouterr().err
        assert "index '1000000000' is above the rank" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("theorem-b", "nu_prime", {"coords": {"6": "1/2"}}),
        ("theorem-b", "weight", {"lc": "1", "l0": {"coords": {"6": 1}}, "ld": "0"}),
        ("theorem-b", "nu", {"coords": {"6": "1/2"}}),
        ("check-isom", "nu", {"coords": {"6": "1/2"}}),
    ],
    ids=["theorem-b-nu-prime", "theorem-b-l0", "theorem-b-nu", "check-isom-nu"],
)
def test_indices_above_the_standardized_rank_are_parse_errors(tmp_path, capsys, command, field, value):
    # a dim-6 operator whose standardized rank is 2: index 6 is within the dim, not the rank
    spec = random_operator(Random("tb:R:6:2:0"), "R", 6, order_hint=2)
    request = {"operator": spec.to_json(), "weight": {"lc": "1", "l0": {"coords": {}}, "ld": "0"}}
    request[field] = value
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request))
    flags = ["--allow-nonintegral"] if command == "theorem-b" else []
    assert run([command, "--input", path, *flags]) == 2
    err = capsys.readouterr().err
    assert f"field {field!r} of {command} input (standardized rank 2)" in err
    assert "index '6' is above the rank 2" in err and "Traceback" not in err


def test_odd_quaternionic_dimension_is_refused_up_front(tmp_path, capsys):
    L, dim = 4, 3
    identity = ModeMatrix.identity(L, dim)
    with pytest.raises(StandardizeError, match="quaternionic model needs even complex dimension"):
        OperatorSpec("H", False, dim, identity, 1)
    with pytest.raises(StandardizeError, match="quaternionic model needs even complex dimension"):
        random_operator(Random(0), "H", dim)
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"field": "H", "dim": dim, "order": 1, "matrix": mat_to_json(identity)}))
    assert run(["normalize", "--input", path]) == 1
    assert "quaternionic model needs even complex dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("antiunitary", "false", "operator antiunitary: expected a boolean, got 'false'"),
        ("dim", "x", "operator dim: expected an integer, got 'x'"),
        ("dim", 3.9, "operator dim: expected an integer, got 3.9"),
        ("dim", MAX_DIM + 1, f"operator dim {MAX_DIM + 1} is above MAX_DIM = {MAX_DIM}"),
        ("order", 2.5, "operator order: expected an integer, got 2.5"),
        ("order", True, "operator order: expected an integer, got True"),
        ("field", 5, "operator field: expected a string, got 5"),
        ("matrix", 5, "operator matrix: expected a list of row lists, got 5"),
        ("matrix", [5], "operator matrix: expected a list of row lists, got [5]"),
        ("matrix", None, "operator matrix: expected a list of row lists, got None"),
        ("matrix", [[], [0]], "operator matrix: rows of unequal lengths [0, 1]"),
    ],
    ids=[
        "antiunitary-string", "dim-string", "dim-float", "dim-above-max", "order-float", "order-bool",
        "field-int", "matrix-int", "matrix-int-row", "matrix-null", "matrix-ragged",
    ],
)
def test_wrongly_typed_operator_fields_are_parse_errors(opfile, capsys, field, value, message):
    opfile.write_text(json.dumps(dict(json.loads(opfile.read_text()), **{field: value})))
    assert run(["normalize", "--input", opfile]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"base": {"kind": "A", "rank": 2.0}}, "root system rank: expected an integer, got 2.0"),
        ({"twist_order": "1"}, "twist_order: expected an integer, got '1'"),
        ({"lars": ["A1"]}, "lars: expected a string, got ['A1']"),
        ({"base": {"kind": 7, "rank": 2}}, "root system kind: expected a string, got 7"),
    ],
    ids=["rank-float", "twist-order-string", "lars-list", "kind-int"],
)
def test_wrongly_typed_spec_fields_are_parse_errors(tmp_path, capsys, change, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(standard_spec("A1", 2).to_json(), **change)))
    assert run(["bracket-check", "--input", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("conductors", [[[4, 8], [8, 4]], [[4, 4], [4, 8]]], ids=["diagonal-4", "corner-8"])
def test_operator_entries_at_two_conductors_are_parse_errors(tmp_path, capsys, conductors):
    # one conductor per request, wherever in the matrix the other one sits
    def entry(L, value):
        return {"conductor": L, "coeffs": [str(value)] + ["0"] * (L // 2 - 1)}

    matrix = [[entry(L, int(i == j)) for j, L in enumerate(row)] for i, row in enumerate(conductors)]
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"field": "C", "dim": 2, "order": 1, "matrix": matrix}))
    assert run(["normalize", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "entries at more than one conductor: [4, 8]" in err and "Traceback" not in err


#: the options each subcommand reads, with a value to pass (None: a switch)
READS = {
    "normalize": {},
    "roots": {"--window": 3},
    "map-roots": {"--window": 8},
    "check-isom": {"--seed": 7, "--count": 25},
    "bracket-check": {"--seed": 7, "--count": 50},
    "min-energy": {"--bound": 10, "--jobs": 2},
    "theorem-b": {"--bound": 10, "--allow-nonintegral": None},
}
VALUES = {"--bound": 2, "--window": 3, "--seed": 7, "--count": 3, "--jobs": 3, "--allow-nonintegral": None}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_takes_only_the_flags_it_reads(command, capsys):
    from twistaff.cli import build_parser

    parser = build_parser()

    def argv(flags):
        out = [command, "--input", "req.json", "--output", "out.json"]
        for flag, value in flags.items():
            out += [flag] if value is None else [flag, str(value)]
        return out

    # every flag the benchmark workloads, its --jobs audit and the tests pass still parses
    args = parser.parse_args(argv(READS[command]))
    for flag, value in READS[command].items():
        assert getattr(args, flag[2:].replace("-", "_")) == (True if value is None else value)
    for flag, value in VALUES.items():
        if flag in READS[command]:
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv({flag: value}))
        assert exc.value.code == 2, (command, flag)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_builds_the_parser_at_most_once(monkeypatch, opfile, tmp_path):
    import argparse
    from types import SimpleNamespace

    from twistaff import cli

    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "twistaff":
                built.append(self)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
    for _ in range(2):
        assert run(["normalize", "--input", opfile, "--output", tmp_path / "out.json"]) == 0
    assert len(built) <= 1


@pytest.mark.parametrize(
    "command, flag, value, low",
    [
        ("min-energy", "--bound", -1, 0),
        ("theorem-b", "--bound", -1, 0),
        ("bracket-check", "--count", -2, 0),
        ("check-isom", "--count", -1, 0),
        ("roots", "--window", -3, 0),
        ("map-roots", "--window", -1, 0),
        ("min-energy", "--jobs", 0, 1),
        ("min-energy", "--jobs", -2, 1),
    ],
)
def test_out_of_range_flag_values_are_usage_errors(command, flag, value, low, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", "req.json", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {low}, got {value}" in capsys.readouterr().err


def test_zero_flag_values_stay_valid(tmp_path):
    from twistaff.cli import build_parser

    for command, flag in (("min-energy", "--bound"), ("bracket-check", "--count"), ("roots", "--window")):
        args = build_parser().parse_args([command, "--input", "req.json", flag, "0"])
        assert getattr(args, flag[2:]) == 0
    path = tmp_path / "me.json"
    path.write_text(json.dumps({
        "spec": standard_spec("C1", 2).to_json(),
        "weight": {"lc": "1", "l0": {"coords": {"1": "1/2"}}, "ld": "0"},
    }))
    out = tmp_path / "r.json"
    assert run(["min-energy", "--input", path, "--bound", 0, "--output", out]) == 0
    assert json.loads(out.read_text())["request"]["bound"] == 0
