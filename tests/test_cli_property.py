"""Property test of the CLI boundary: every input gets exit 0, a
DomainError object with exit 1, or a usage error with exit 2, and never a
traceback."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arthurcalc.cli import build_parser, main

# arbitrary JSON values, kept small
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
# a value to put in place of a schema field; non-empty containers and
# non-zero numbers are as likely as the rest
WRONG = st.one_of(
    JUNK, st.integers(1, 6), st.booleans(),
    st.lists(JUNK, min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=4), JUNK, min_size=1, max_size=2))

RHO_TYPES = ("orthogonal", "symplectic", "none")
KINDS = ("Sp", "SOodd", "SOeven")


def _weighted(valid, bad=()):
    """A value, valid three times as often as bad."""
    return st.sampled_from(tuple(valid) * 3 + tuple(bad))


@st.composite
def _block(draw):
    rho = {"id": draw(st.sampled_from(("r", "s"))),
           "dim": draw(st.integers(1, 2)),
           "type": draw(st.sampled_from(RHO_TYPES))}
    det = draw(st.sampled_from((None, "", "c", "c*d")))
    if det is not None:
        rho["det"] = det
    blk = {"rho": rho, "a": draw(st.integers(1, 4)),
           "b": draw(st.integers(1, 4)), "mult": draw(st.integers(1, 2))}
    zeta = draw(st.sampled_from((None, "+", "-", "unset")))
    if zeta is not None:
        blk["zeta"] = zeta
    return blk


def _paths(value):
    """Every (container, key) position inside a nested JSON value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _paths(child)


@st.composite
def parameters(draw):
    """A parameter whose group usually matches its blocks, with at most
    one field deleted or replaced by a value of another JSON type."""
    blocks = draw(st.lists(_block(), max_size=3))
    kind = draw(st.sampled_from(KINDS))
    total = sum(b["rho"]["dim"] * b["a"] * b["b"] * b["mult"]
                for b in blocks)
    n = (total - 1) // 2 if kind == "Sp" else total // 2
    group = {"kind": kind, "n": draw(st.sampled_from((n, n, n + 1)))}
    group["eta"] = draw(st.sampled_from(("", "c"))) if kind == "SOeven" \
        else ""
    param = {"group": group, "blocks": blocks}
    if draw(st.booleans()):
        param["order"] = draw(st.permutations(range(len(blocks))))
    if draw(st.booleans()):
        # pick a field name first, so that rare fields are hit as often
        # as the fields every block repeats
        where = {}
        for container, key in _paths(param):
            where.setdefault(key, []).append((container, key))
        field = draw(st.sampled_from(sorted(where, key=str)))
        container, key = draw(st.sampled_from(where[field]))
        if isinstance(container, dict) and draw(_weighted([False], [True])):
            del container[key]
        else:
            old = type(container[key])
            container[key] = draw(WRONG.filter(lambda v: type(v) is not old))
    return param


@st.composite
def _option(draw, name, values):
    """An option as two tokens or one --name=value token, now and then
    left out."""
    form = draw(_weighted(("pair", "joined"), ("none",)))
    value = draw(values)
    return {"pair": [name, value], "joined": [f"{name}={value}"],
            "none": []}[form]


def _int_text(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str),
                     st.integers(lo, hi).map(str), st.text(max_size=2))


@st.composite
def _input(draw):
    """An input argument and its number of blocks, if it has any."""
    kind = draw(_weighted(("parameter",), ("junk", "text")))
    if kind == "parameter":
        param = draw(parameters())
        blocks = param.get("blocks")
        return json.dumps(param), len(blocks) if isinstance(
            blocks, list) else 0
    if kind == "junk":
        return json.dumps(draw(st.one_of(
            st.lists(JUNK, max_size=2),
            st.dictionaries(st.text(max_size=4), JUNK, max_size=3)))), 0
    return "{" + draw(st.text(max_size=6)), 0


def _signs(size):
    """A sign string, usually with one sign per block."""
    return st.one_of(st.text(alphabet="+-", min_size=size, max_size=size),
                     st.text(alphabet="+-", min_size=size, max_size=size),
                     st.text(alphabet="+-", max_size=4),
                     st.text(alphabet="+-x ", max_size=3))


OPTIONS = {
    "classify": lambda n: [],
    "diag-restriction": lambda n: [],
    "signs": lambda n: [_option("--order", _weighted(
        ("natural", "file"), ("other",)))],
    "endoscopy": lambda n: [_option("--s", _signs(n))],
    "packet": lambda n: [_option("--eps", _signs(n))],
    "cuspidal-support": lambda n: [_option("--eps", _signs(n))],
    "elementary-trace": lambda n: [
        _option("--eps", _signs(n)),
        _option("--branch", _weighted(("+", "-"), ("x",)))],
    "expand": lambda n: [_option("--block", _int_text(-1, 3)),
                         _option("--eps", _signs(n))],
}


@st.composite
def argvs(draw):
    argv = []
    for name, values in (("--format", _weighted(("json", "table"), ("xml",))),
                         ("--zeta-convention", _weighted(("+", "-"), ("0",)))):
        if draw(st.booleans()):
            argv += draw(_option(name, values))
    command = draw(st.sampled_from(sorted(OPTIONS) + ["weyl-verify"]))
    argv.append(command)
    if command == "weyl-verify":
        # the rank bound stays explicit and small, so no call builds the
        # rank-4 data of the default bound
        argv += draw(_option("--type", _weighted("ABCD", "E")))
        argv += draw(_option("--rank", _int_text(-1, 4)))
        if draw(st.booleans()):
            argv += draw(_option("--split", _int_text(-2, 8)))
        argv += ["--rank-bound", str(draw(st.integers(-1, 3)))]
    else:
        text, size = draw(_input())
        argv.append(text)
        for option in OPTIONS[command](size):
            argv += draw(option)
    argv += draw(st.sampled_from(
        [[]] * 12 + [["--format", "table"], ["-h"], ["--eps"], ["x"]]))
    return argv


_ETA_REPRODUCER = ["classify", json.dumps(
    {"group": {"kind": "SOeven", "n": 1, "eta": 1},
     "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                 "a": 1, "b": 1, "mult": 2}]})]

_RHO_ID_REPRODUCER = ["classify", json.dumps(
    {"group": {"kind": "SOeven", "n": 1},
     "blocks": [{"rho": {"id": 5, "dim": 1, "type": "none"},
                 "a": 1, "b": 1, "mult": 2}]})]


_EMPTY_FACTOR_REPRODUCER = ["classify", json.dumps(
    {"group": {"kind": "SOeven", "n": 1, "eta": "*"},
     "blocks": [{"rho": {"id": "r", "dim": 1, "type": "orthogonal"},
                 "a": 1, "b": 1, "mult": 2}]})]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example(_ETA_REPRODUCER)
@example(_EMPTY_FACTOR_REPRODUCER)
@example(_RHO_ID_REPRODUCER)
@given(argvs())
def test_cli_main_has_three_outcomes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 1 and build_parser().parse_args(argv).format == "json":
        payload = json.loads(out.getvalue())
        assert set(payload) == {"error", "type"}
        assert out.getvalue() == json.dumps(
            payload, sort_keys=True, separators=(",", ":")) + "\n"
