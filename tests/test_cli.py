import io
import contextlib
import json
import os
import subprocess
import sys
import threading

import pytest

import arthurcalc
from arthurcalc import cli
from arthurcalc.cli import build_parser, main
from arthurcalc.testing import FAMILIES

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _invocations():
    with open(os.path.join(GOLDEN, "invocations.json")) as fh:
        return [(name, argv) for name, argv in json.load(fh)]


def _fix_paths(argv):
    return [a.replace("tests/golden", GOLDEN) if "tests/golden" in a else a
            for a in argv]


@pytest.mark.parametrize("name,argv", _invocations())
def test_golden_outputs(name, argv):
    rc, out = run_cli(_fix_paths(argv))
    assert rc == 0
    with open(os.path.join(GOLDEN, f"{name}.out")) as fh:
        expected = fh.read()
    assert out == expected


def test_determinism_byte_identical():
    for name, argv in _invocations():
        rc1, out1 = run_cli(_fix_paths(argv))
        rc2, out2 = run_cli(_fix_paths(argv))
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_malformed_json_usage_error():
    rc, out = run_cli(["classify", "{not json"])
    assert rc == 2


def test_missing_file_usage_error():
    rc, out = run_cli(["classify", os.path.join(GOLDEN, "nope.json")])
    assert rc == 2


def test_domain_error_exit_one():
    # the non-DDR parameter has no natural order
    rc, out = run_cli(["signs", os.path.join(GOLDEN, "sp4_2211.json")])
    assert rc == 1
    payload = json.loads(out)
    assert payload["type"] == "NotDDR"


def test_inline_json_input():
    rc, out = run_cli(["classify", json.dumps({
        "group": {"kind": "Sp", "n": 2},
        "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                    "a": 2, "b": 2, "mult": 1, "zeta": "+"},
                   {"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                    "a": 1, "b": 1, "mult": 1, "zeta": "+"}]})])
    assert rc == 0
    assert json.loads(out) == {"flags": []}


def test_zeta_convention_flag():
    payload = {
        "group": {"kind": "Sp", "n": 2},
        "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                    "a": 2, "b": 2, "mult": 1, "zeta": "unset"},
                   {"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                    "a": 1, "b": 1, "mult": 1, "zeta": "unset"}]}
    rc1, out1 = run_cli(["--zeta-convention", "+", "signs",
                         json.dumps(dict(payload, order=[1, 0])),
                         "--order", "file"])
    rc2, out2 = run_cli(["--zeta-convention", "-", "signs",
                         json.dumps(dict(payload, order=[1, 0])),
                         "--order", "file"])
    assert rc1 == rc2 == 0
    # the pair set depends on the convention for balanced blocks
    assert json.loads(out1)["z_mw_w"] != json.loads(out2)["z_mw_w"]


def test_weyl_bad_rank_usage():
    rc, _ = run_cli(["weyl-verify", "--type", "B", "--rank", "9"])
    assert rc == 2


def test_selftest_small():
    rc, out = run_cli(["selftest", "--seed", "3", "--rank-bound", "2"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    # selftest reports every registered family, and nothing else
    assert set(payload["failures"]) == set(FAMILIES)


@pytest.mark.parametrize("bound", ["1", "-1"])
def test_selftest_rank_bound_below_catalog_usage(bound):
    # such a bound would report the Weyl families clean with no datum checked
    rc, out = run_cli(["selftest", "--rank-bound", bound])
    assert rc == 2
    assert out == ""


def test_roundtrip_parameter_json():
    from arthurcalc import io_json as js
    for name in ("sp4_2211.json", "sp8_elem.json", "so4_eta.json"):
        with open(os.path.join(GOLDEN, name)) as fh:
            data = json.load(fh)
        psi = js.parameter_from_json(data)
        again = js.parameter_from_json(js.parameter_to_json(psi))
        assert psi == again


def test_halfint_and_signvector_roundtrip():
    from arthurcalc import io_json as js
    from arthurcalc.charspace import MULT, SignVector
    from arthurcalc.halfint import HalfInt
    for twice in (-5, -4, -1, 0, 1, 2, 7):
        x = HalfInt(twice)
        assert js.halfint_from_json(js.halfint_to_json(x)) == x
    v = SignVector(MULT, (1, -1, -1))
    again = js.signvector_from_json(js.signvector_to_json(v), 3)
    assert again == v


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _block(**kw):
    blk = {"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
           "a": 3, "b": 1, "mult": 1}
    blk.update(kw)
    return blk


@pytest.mark.parametrize("gtype,rank", [("B", 0), ("B", -1), ("C", 0),
                                        ("A", 0), ("D", 1)])
def test_weyl_rank_below_minimum_domain_error(gtype, rank):
    rc, out = run_cli(["weyl-verify", "--type", gtype, "--rank", str(rank)])
    assert rc == 1
    assert json.loads(out)["type"] == "RankTooSmall"


@pytest.mark.parametrize("block", [_block(a=0), _block(zeta="-")])
def test_block_preconditions_domain_error(block):
    rc, out = run_cli(["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 2}, "blocks": [block]})])
    assert rc == 1
    payload = json.loads(out)
    assert set(payload) == {"error", "type"}
    assert payload["type"] == "BadBlock"


def test_sign_string_of_two_minus_signs():
    param = json.dumps({"group": {"kind": "SOeven", "n": 1}, "blocks": [
        {"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
         "a": 1, "b": 1, "mult": 2, "zeta": "+"}]})
    rc, out = run_cli(["packet", param, "--eps=--"])
    assert rc == 0
    # blocks with a = b = 1 have l = 0, so eta is the sign vector itself
    assert [c["eta"] for c in json.loads(out)["classes"]] == [[-1, -1]]
    rc, out = run_cli(["endoscopy", param, "--s=--"])
    assert rc == 0
    assert json.loads(out)["psi_one"]["blocks"] == []


@pytest.mark.parametrize("group,block", [
    ({"kind": "Sp", "n": 2}, _block(mult=1.5)),
    ({"kind": "Sp", "n": 2}, _block(a=True)),
    ({"kind": "Sp", "n": 2}, _block(b=1.0)),
    ({"kind": "Sp", "n": 2}, _block(rho={"id": "r", "dim": 1.0})),
    ({"kind": "Sp", "n": 2.0}, _block()),
])
def test_non_integer_schema_field_usage_error(group, block):
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": group, "blocks": [block]})])
    assert rc == 2
    assert out == ""
    assert "bad parameter schema" in err


def test_inline_json_array_schema_error():
    rc, out, err = run_cli_err(["classify", "[]"])
    assert rc == 2
    assert "bad parameter schema" in err


def test_rho_of_dimension_zero_domain_error():
    rc, out = run_cli(["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 2},
         "blocks": [_block(rho={"id": "r", "dim": 0,
                                "type": "orthogonal"})]})])
    assert rc == 1
    assert json.loads(out) == {"error": "dim must be positive",
                               "type": "BadRho"}


@pytest.mark.parametrize("order", [[0, 1, "a"], [0, True, 2], [0, 1.0, 2], 3])
def test_non_integer_order_entry_usage_error(order):
    param = {"group": {"kind": "Sp", "n": 2},
             "blocks": [_block(), _block(a=1, b=1, mult=2)], "order": order}
    rc, out, err = run_cli_err(["signs", json.dumps(param),
                                "--order", "file"])
    assert rc == 2
    assert out == ""
    assert "order array" in err


@pytest.mark.parametrize("value", [1, True, ["c"], {"c": 1}])
@pytest.mark.parametrize("where", ["eta", "det"])
def test_non_string_quadratic_character_usage_error(where, value):
    group = {"kind": "SOeven", "n": 1}
    rho = {"id": "r", "dim": 1, "type": "orthogonal"}
    (group if where == "eta" else rho)[where] = value
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": group,
         "blocks": [{"rho": rho, "a": 1, "b": 1, "mult": 2}]})])
    assert rc == 2
    assert out == ""
    assert "bad parameter schema" in err


@pytest.mark.parametrize("value", [5, None, True, ["r"]])
def test_non_string_rho_id_usage_error(value):
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": {"kind": "SOeven", "n": 1},
         "blocks": [{"rho": {"id": value, "dim": 1, "type": "none"},
                     "a": 1, "b": 1, "mult": 2}]})])
    assert rc == 2
    assert out == ""
    assert "bad parameter schema" in err


@pytest.mark.parametrize("text,generators", [
    (None, set()), ("", set()), ("c", {"c"}), ("c*d", {"c", "d"}),
    ("c*c", set()), ("c*d*c", {"d"}), ("c*d*d*c*e", {"e"})])
def test_quadchar_from_json_multiplies_factors(text, generators):
    from arthurcalc import io_json as js
    assert js.quadchar_from_json(text).generators == generators


@pytest.mark.parametrize("text", ["*", "c*", "*c", "**", "c**d"])
def test_quadchar_from_json_empty_factor_type_error(text):
    from arthurcalc import io_json as js
    with pytest.raises(TypeError):
        js.quadchar_from_json(text)


@pytest.mark.parametrize("where,value", [("eta", "*"), ("eta", "c*"),
                                         ("det", "**")])
def test_empty_quadratic_character_factor_usage_error(where, value):
    group = {"kind": "SOeven", "n": 1}
    rho = {"id": "r", "dim": 1, "type": "orthogonal"}
    (group if where == "eta" else rho)[where] = value
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": group,
         "blocks": [{"rho": rho, "a": 1, "b": 1, "mult": 2}]})])
    assert rc == 2
    assert out == ""
    assert "bad parameter schema" in err


def test_repeated_generator_cancels_in_eta_and_det():
    def echo(char):
        return run_cli(["diag-restriction", json.dumps(
            {"group": {"kind": "SOeven", "n": 1, "eta": char},
             "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal",
                                 "det": char},
                         "a": 1, "b": 1, "mult": 2}]})])
    rc, out = echo("c*d*c")
    assert rc == 0
    payload = json.loads(out)
    assert payload["group"]["eta"] == "d"
    assert payload["blocks"][0]["rho"]["det"] == "d"
    assert echo("c*c") == echo("")


def test_parser_is_shared():
    assert build_parser() is build_parser()


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(arthurcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import arthurcalc.cli as c; "
         "print(c._shared_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


def test_format_option_does_not_carry_over():
    argv = ["classify", os.path.join(GOLDEN, "sp8_elem.json")]
    rc, table = run_cli(["--format", "table"] + argv)
    assert rc == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(table)
    rc, out = run_cli(argv)
    assert rc == 0
    with open(os.path.join(GOLDEN, "classify_sp8_elem.out")) as fh:
        assert out == fh.read()


def test_golden_corpus_forwards_then_backwards():
    calls = [(name, _fix_paths(argv)) for name, argv in _invocations()]
    forwards = [run_cli(argv) for _, argv in calls]
    backwards = [run_cli(argv) for _, argv in reversed(calls)]
    assert forwards == backwards[::-1]
    for (name, _), (rc, out) in zip(calls, forwards):
        with open(os.path.join(GOLDEN, f"{name}.out")) as fh:
            assert (rc, out) == (0, fh.read())


def test_concurrent_parsing_matches_a_fresh_parser():
    calls = [argv for _, argv in _invocations()]
    fresh = [vars(cli._shared_parser.__wrapped__().parse_args(argv))
             for argv in calls]
    # the threads also race on the first build
    cli._shared_parser.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        start.wait()
        results[k] = [[vars(build_parser().parse_args(argv))
                       for argv in calls] for _ in range(5)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(rounds == [fresh] * 5 for rounds in results)
