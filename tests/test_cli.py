import io
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import types

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


def test_readme_selftest_table_lists_the_registry():
    # a family cannot land without its row in the README
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| `selftest` key | acceptance criterion |")[1]
    keys = []
    for line in table.splitlines()[2:]:
        if not line.startswith("| `"):
            break
        keys.append(line.split("`")[1])
    assert keys == list(FAMILIES)


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


def test_halfint_to_json_int_when_integral():
    from arthurcalc import io_json as js
    from arthurcalc.halfint import HalfInt
    expect = {-5: "-5/2", -4: -2, -1: "-1/2", 0: 0, 1: "1/2", 2: 1,
              7: "7/2"}
    for twice, value in expect.items():
        out = js.halfint_to_json(HalfInt(twice))
        assert out == value and type(out) is type(value)


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


@pytest.mark.parametrize("name,twisted", [("endoscopy_sp4", False),
                                          ("endoscopy_so4_twisted", True)])
def test_endoscopy_checks_the_determinant_condition_once(monkeypatch, name,
                                                          twisted):
    calls = []
    for module in (cli, cli.endo):
        real = getattr(module, "in_element_space", None)
        if real is not None:
            def counted(s, psi, real=real):
                calls.append(s)
                return real(s, psi)
            monkeypatch.setattr(module, "in_element_space", counted)
    rc, out = run_cli(_fix_paths(dict(_invocations())[name]))
    assert rc == 0 and json.loads(out)["twisted"] is twisted
    assert len(calls) == 1


def test_weyl_verify_split_prints_one_row():
    argv = ["weyl-verify", "--type", "B", "--rank", "2"]
    rc, out = run_cli(argv)
    assert rc == 0
    rows = json.loads(out)["splits"]
    assert len(rows) == 5
    rc, out = run_cli(argv + ["--split", "0"])
    assert rc == 0
    assert json.loads(out) == {"type": "B", "rank": 2, "splits": rows[:1],
                               "all_pass": True}


@pytest.mark.parametrize("index", ["5", "-1"])
def test_weyl_verify_split_out_of_range_usage(index):
    rc, out, err = run_cli_err(["weyl-verify", "--type", "B", "--rank", "2",
                                "--split", index])
    assert (rc, out) == (2, "")
    assert "split index out of range 0..4" in err


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


@pytest.mark.parametrize("from_file", [False, True])
def test_deeply_nested_json_usage_error(tmp_path, from_file):
    spec = "[" * 50000
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(spec)
        spec = str(path)
    rc, out, err = run_cli_err(["classify", spec])
    assert (rc, out) == (2, "")
    assert err == "usage error: malformed JSON: nested too deeply\n"



def test_input_file_not_utf8_usage_error(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe\x00\x81")
    rc, out, err = run_cli_err(["classify", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: cannot read input file: ")


def test_int_literal_past_the_digit_limit_usage_error():
    # CPython refuses to convert an int literal of more than 4 300 digits
    rc, out, err = run_cli_err(["classify", "[" + "1" * 4301 + "]"])
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: malformed JSON: ")

@pytest.mark.parametrize("field,value", [
    ("zeta", 5), ("zeta", "up"), ("zeta", ["+"]), ("zeta", None),
    ("type", 5), ("type", "weird"), ("type", {"t": 1})])
def test_unknown_choice_names_field_and_value(field, value):
    block = _block(a=1, b=1)
    (block if field == "zeta" else block["rho"])[field] = value
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 1}, "blocks": [block]})])
    assert (rc, out) == (2, "")
    assert err.startswith(f"usage error: bad parameter schema: {field!r} "
                          f"must be one of ")
    assert err.endswith(f", got {value!r}\n")


@pytest.mark.parametrize("blocks", [{}, {"0": _block()}, "", 3, None])
def test_blocks_must_be_a_list(blocks):
    rc, out, err = run_cli_err(["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 1}, "blocks": blocks})])
    assert (rc, out) == (2, "")
    assert err == ("usage error: bad parameter schema: 'blocks' must be a "
                   f"list, got {blocks!r}\n")


def test_unknown_group_kind_is_bad_group():
    rc, out = run_cli(["classify", json.dumps(
        {"group": {"kind": "XX", "n": 4}, "blocks": []})])
    assert rc == 1
    assert json.loads(out) == {"error": "bad group kind 'XX'",
                               "type": "BadGroup"}


def test_expand_empty_eps_usage_error():
    # an explicit empty sign string is a bad sign string, as for packet
    rc, out, err = run_cli_err(["expand", json.dumps(
        {"group": {"kind": "Sp", "n": 4},
         "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                     "a": 3, "b": 3, "zeta": "+"}]}),
        "--block", "0", "--eps="])
    assert rc == 2
    assert out == "" and "expected a string of 1 signs" in err


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


def test_file_order_breaking_p_refused_before_parity_check():
    # (6,2) below the nested (3,1) breaks (P); the (2,1) pair lies outside
    # the parity part, which the pair sets would refuse next
    payload = {"group": {"kind": "Sp", "n": 9},
               "blocks": [_block(a=6, b=2), _block(),
                          _block(a=2, b=1, mult=2)],
               "order": [3, 2, 0, 1]}
    rc, out = run_cli(["signs", json.dumps(payload), "--order", "file"])
    assert rc == 1
    assert json.loads(out)["type"] == "OrderViolation"


def _one_block_sp(alpha):
    return json.dumps({"group": {"kind": "Sp", "n": (alpha - 1) // 2},
                       "blocks": [_block(a=alpha)]})


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_elementary_trace_size_bound(fmt):
    # one case-2 step per lowering of alpha by two, down to alpha = 1
    rc, out = run_cli(["elementary-trace", _one_block_sp(599), "--eps=+",
                       "--format", fmt])
    assert rc == 0
    assert out.count("case2_shift") == 299
    for alpha in (601, 1001):
        rc, out = run_cli(["elementary-trace", _one_block_sp(alpha),
                           "--eps=+", "--format", fmt])
        assert rc == 1
        if fmt == "json":
            assert json.loads(out)["type"] == "TooLarge"
        else:
            assert out.splitlines()[-1] == "type: TooLarge"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_elementary_trace_printed_size_bound(fmt):
    # one rho with the 24 sizes 1, 3, ..., 47: a trace of 520 distinct
    # nodes that prints 109 296, refused from the shared nodes before any
    # output is built
    import tracemalloc
    payload = {"group": {"kind": "SOeven", "n": 288},
               "blocks": [_block(a=a, b=1) for a in range(1, 48, 2)]}
    tracemalloc.start()
    try:
        rc, out = run_cli(["elementary-trace", json.dumps(payload),
                           "--eps=-+-+-++-----+---++----+-", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    message = "the trace prints 109296 nodes, above the bound 10000"
    if fmt == "json":
        assert json.loads(out) == {"error": message, "type": "TooLarge"}
    else:
        assert out.splitlines() == [f"error: {message}", "type: TooLarge"]
    assert peak < 4 * 2 ** 20


def test_packet_class_bound():
    # per-block class counts 1, 21, ..., 26: 165 765 600 classes, refused
    # from the counts alone, before any class is built
    sizes = (1, 41, 43, 45, 47, 49, 51)
    payload = {"group": {"kind": "Sp", "n": sum(a * a for a in sizes) // 2},
               "blocks": [_block(a=a, b=a, zeta="+") for a in sizes]}
    start = time.perf_counter()
    rc, out = run_cli(["packet", json.dumps(payload), "--eps=+++++++"])
    assert time.perf_counter() - start < 0.5
    assert rc == 1
    assert json.loads(out) == {
        "error": "165765600 constituent classes exceeds bound 16384",
        "type": "TooLarge"}


def test_packet_class_bound_is_checked_before_any_list():
    # one block with A - B + 1 = 400 001 has 200 001 classes at eps = +:
    # refused from the closed-form count, with no (l, eta) list built
    import tracemalloc
    a = 400001
    payload = {"group": {"kind": "Sp", "n": (a * a - 1) // 2},
               "blocks": [_block(a=a, b=a, zeta="+")]}
    tracemalloc.start()
    try:
        rc, out = run_cli(["packet", json.dumps(payload), "--eps=+"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert json.loads(out) == {
        "error": "200001 constituent classes exceeds bound 16384",
        "type": "TooLarge"}
    assert peak < 2 ** 20


def test_diag_restriction_size_bound():
    # one block (r, a, a, +) spreads into a blocks: refused before the
    # first is built
    import tracemalloc
    a = 400001
    payload = {"group": {"kind": "Sp", "n": (a * a - 1) // 2},
               "blocks": [_block(a=a, b=a, zeta="+")]}
    tracemalloc.start()
    try:
        rc, out = run_cli(["diag-restriction", json.dumps(payload)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert json.loads(out) == {
        "error": "sizes min(a, b) sum to 400001, above the diagonal bound "
                 "10000",
        "type": "TooLarge"}
    assert peak < 2 ** 20


@pytest.mark.parametrize("flags", [[], ["--eps=+"]])
def test_expand_size_bound(flags):
    # one step on (r, a, a, +) writes (a - 1)(a - 2)/2 Jacquet exponents:
    # refused from A - B alone, before any term is built
    import tracemalloc
    a = 400001
    payload = {"group": {"kind": "Sp", "n": (a * a - 1) // 2},
               "blocks": [_block(a=a, b=a, zeta="+")]}
    tracemalloc.start()
    try:
        rc, out = run_cli(["expand", json.dumps(payload), "--block", "0",
                           *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert json.loads(out) == {
        "error": "A - B = 400000 gives 79999800000 Jacquet exponents, above "
                 "the bound 100000",
        "type": "TooLarge"}
    assert peak < 2 ** 20


def test_expand_size_bound_edge():
    # A - B = 446 writes 99 235 exponents and is expanded; 448 writes
    # 100 128 and is refused
    for a, rc_want in ((447, 0), (449, 1)):
        payload = {"group": {"kind": "Sp", "n": (a * a - 1) // 2},
                   "blocks": [_block(a=a, b=a, zeta="+")]}
        rc, out = run_cli(["expand", json.dumps(payload), "--block", "0"])
        assert rc == rc_want


@pytest.mark.parametrize("command,flag", [("packet", "--eps=+"),
                                          ("endoscopy", "--s=+")])
def test_sign_string_sized_from_multiplicities(command, flag):
    # 100 000 copies of one block: the usage error names their count
    # without a list of the copies
    import tracemalloc
    payload = {"group": {"kind": "SOeven", "n": 50000},
               "blocks": [_block(a=1, b=1, zeta="+", mult=100000)]}
    tracemalloc.start()
    try:
        rc, out, err = run_cli_err([command, json.dumps(payload), flag])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert "expected a string of 100000 signs, got '+'" in err
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv,rc_want,out_want,err_want", [
    (["expand", "--block", "0"], 1,
     {"error": "the recursion expands DDR parameters", "type": "NotDDR"}, ""),
    (["expand", "--block", "0", "--eps=+"], 2, None,
     "usage error: expected a string of 1000000 signs, got '+'\n"),
    (["expand", "--block", "1000000"], 2, None,
     "usage error: block index 1000000 out of range\n"),
    (["signs", "--order", "file"], 2, None,
     "usage error: order array must permute the block indices\n"),
], ids=["expand", "expand-eps", "expand-index", "signs-order"])
def test_block_choice_sized_from_multiplicities(argv, rc_want, out_want,
                                                err_want):
    # a million copies of one block, with an order that lists one: each
    # answer comes from their count, before any copy is built
    import tracemalloc
    payload = {"group": {"kind": "SOeven", "n": 500000},
               "blocks": [_block(a=1, b=1, zeta="+", mult=1000000)],
               "order": [0]}
    tracemalloc.start()
    try:
        rc, out, err = run_cli_err([argv[0], json.dumps(payload), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == rc_want
    assert (json.loads(out) if out_want else out) == (out_want or "")
    assert err == err_want
    assert peak < 2 ** 20


def test_signs_reads_and_parses_its_input_once(monkeypatch):
    opened, parsed = [], []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    def counting_loads(text):
        parsed.append(text)
        return json.loads(text)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(
        loads=counting_loads, JSONDecodeError=json.JSONDecodeError))
    signs = [(name, _fix_paths(argv)) for name, argv in _invocations()
             if argv[0] == "signs"]
    assert any("file" in argv for _, argv in signs)
    for name, argv in signs:
        with open(argv[1]) as fh:
            inline = [argv[0], fh.read()] + argv[2:]
        with open(os.path.join(GOLDEN, f"{name}.out")) as fh:
            expected = fh.read()
        for call, files in ((argv, 1), (inline, 0)):
            opened.clear()
            parsed.clear()
            assert run_cli(call) == (0, expected)
            assert (len(opened), len(parsed)) == (files, 1)


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


def test_import_leaves_weyl_unloaded():
    src = os.path.dirname(os.path.dirname(arthurcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, arthurcalc.cli; "
         "print('arthurcalc.weyl' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


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
