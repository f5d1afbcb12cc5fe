"""The three workloads: how a round is built, run and checked.

A workload's ``rounds()`` yields the steps of one round in order.  An
``op`` step is one operation: it is timed on its own, counted in
``attempted`` and checked.  A ``work`` step (building the Weyl data of a
datum, enumerating the centralizer elements of a parameter) is timed and
counted in the throughput, but is not an operation.  Every round of a run
repeats the same steps, so every run attempts whole rounds of the same
operations.  All checks run outside the timed calls and test properties
the method must have; none compares with stored output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional

import inputs


@dataclass
class Step:
    kind: str                  # "op" or "work"
    label: str
    fn: Callable
    args: tuple = ()
    check: Optional[Callable] = None   # check(result), outside the timing


@dataclass
class Outcome:
    """The check failures one workload run found."""

    errors: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)


# -- weyl_catalog ----------------------------------------------------------

WEYL_DATA = (("B", 2, False), ("C", 2, False), ("B", 3, False),
             ("C", 3, False), ("A", 2, True), ("A", 3, True),
             ("D", 3, True), ("D", 4, True))
VERIFICATIONS = ("verify_identity_A", "verify_identity_B",
                 "verify_alternating_sum", "verify_coset_representatives")


class WeylCatalog:
    """Every split of every catalogue datum, four verifications each.

    The seed fixes the order of the data and of the (split,
    verification) calls inside each datum.  Each round rebuilds the root
    data and splits, as a fresh ``weyl-verify`` does.
    """

    # tight arithmetic on small tuples and Fractions
    REFERENCE = ("arith", "objects")

    def __init__(self, pkg: SimpleNamespace, seed: int,
                 outcome: Outcome) -> None:
        self.W = pkg.weyl
        self.seed = seed
        self.outcome = outcome

    def rounds(self) -> Iterator[Step]:
        W = self.W
        rng = random.Random(self.seed)
        data = list(WEYL_DATA)
        rng.shuffle(data)
        for gtype, rank, twisted in data:
            name = f"{'twisted ' if twisted else ''}{gtype}{rank}"
            built: Dict[str, object] = {}

            def build(gtype=gtype, rank=rank, twisted=twisted, built=built):
                datum = W.RootDatum(gtype, rank, twisted=twisted)
                res = W.restricted_roots(datum)
                built["res"] = res
                built["splits"] = W.catalog_split_data(datum, res)
                return res

            yield Step("work", "build/" + name, build,
                       check=self._check_group)
            calls = list(itertools.product(range(len(built["splits"])),
                                           VERIFICATIONS))
            rng.shuffle(calls)
            for i, verification in calls:
                fn = getattr(W, verification)
                check = (self._check_alternating
                         if verification == "verify_alternating_sum"
                         else self._check_flag)
                yield Step("op", f"{verification}/{name}", fn,
                           (built["splits"][i],), check)

    def _check_group(self, res) -> None:
        # the restricted systems are of type B, C or BC, so the twisted
        # Weyl group is the hyperoctahedral group of the restricted rank
        m = res.datum.restricted_dim()
        order = 2 ** m
        for k in range(2, m + 1):
            order *= k
        self.outcome.expect(len(res.weyl) == order,
                            f"|W| = {len(res.weyl)} for rank {m}")

    def _check_flag(self, flag) -> None:
        self.outcome.expect(flag is True, "identity flag false")

    def _check_alternating(self, report) -> None:
        self.outcome.expect(bool(report.entries), "empty alternating sum")
        for _, lhs, rhs in report.entries:
            self.outcome.expect(lhs == rhs,
                                f"alternating sum {lhs} != {rhs}")


# -- cli_queries -----------------------------------------------------------

@dataclass(frozen=True)
class Raised:
    """A failed operation: the call escaped with an exception."""

    name: str


def _cli_call(main: Callable, argv: List[str]):
    """cli.main with stdout and stderr captured in-process.

    Returns (exit code, stdout), or Raised when the call escapes with an
    exception, which a user would see as a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # the command-line boundary
        return Raised(type(exc).__name__)
    return rc, out.getvalue()


def _group_n(group: dict) -> int:
    return 2 * group["n"] + 1 if group["kind"] == "Sp" else 2 * group["n"]


class CliQueries:
    """A seeded stream of command lines run through ``cli.main``."""

    # most of a query is argparse and json, large-footprint library code
    REFERENCE = ("arith", "objects", "library")

    def __init__(self, pkg: SimpleNamespace, seed: int,
                 outcome: Outcome) -> None:
        self.cli = pkg.cli
        self.stream = inputs.cli_stream(seed)
        self.outcome = outcome
        self.first_output: List[Optional[str]] = [None] * len(self.stream)

    def rounds(self) -> Iterator[Step]:
        main = self.cli.main
        for idx, (label, argv, param) in enumerate(self.stream):
            yield Step("op", label, _cli_call, (main, argv),
                       self._checker(idx, label, param))

    def _checker(self, idx: int, label: str, param: Optional[dict]):
        def check(result) -> None:
            if isinstance(result, Raised):
                self.outcome.expect(label.startswith("malformed/"),
                                    f"{label} raised {result.name}")
                return
            rc, text = result
            first = self.first_output[idx]
            if first is None:
                self.first_output[idx] = text
                self._check_output(label, param, rc, text)
            else:
                self.outcome.expect(text == first,
                                    f"{label}: output changed on repeat")
        return check

    def _check_output(self, label: str, param: dict, rc, text: str) -> None:
        expect = self.outcome.expect
        if rc == 2 and label.startswith("malformed/"):
            return  # a usage error is a proper outcome for a bad input
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            expect(False, f"{label}: stdout is not JSON (exit {rc})")
            return
        if rc == 1:
            expect(isinstance(payload, dict)
                   and set(payload) == {"error", "type"},
                   f"{label}: exit 1 without an error object")
            return
        if rc != 0:
            expect(False, f"{label}: exit {rc}")
            return
        command = label.split("/")[0]
        if command == "classify":
            # classify queries are built with discrete diagonal restriction
            flags = set(payload["flags"])
            expect("discrete_diag_restriction" in flags, f"{label}: {flags}")
        elif command == "diag-restriction":
            expect(inputs.dims(payload) == inputs.dims(param)
                   and all(b["b"] == 1 for b in payload["blocks"]),
                   f"{label}: restriction changed N or kept b > 1")
        elif command == "signs":
            prod = 1
            for s in payload["eps_mw_w"]:
                prod *= s
            expect(prod == 1, f"{label}: eps_mw_w has product {prod}")
        elif command == "endoscopy":
            sides = (inputs.dims(payload["psi_one"])
                     + inputs.dims(payload["psi_two"]))
            expect(sides == inputs.dims(param),
                   f"{label}: dimensions do not add up")
        elif command == "cuspidal-support":
            rho_dim = {b["rho"]["id"]: b["rho"]["dim"]
                       for b in param["blocks"]}
            removed = 0
            for step in payload["steps"]:
                seg = step["segment"]
                length = abs(_half(seg["from"]) - _half(seg["to"])) // 2 + 1
                removed += 2 * length * rho_dim[seg["rho"]]
            expect(removed + _group_n(payload["cuspidal"]["group"])
                   == _group_n(param["group"]),
                   f"{label}: removed {removed} + cuspidal N != N")
        elif command == "packet":
            expect(all(c["size"] >= 1 for c in payload["classes"]),
                   f"{label}: empty constituent class")
        elif command == "expand":
            expect(isinstance(payload.get("terms"), list)
                   and len(payload["terms"]) > 0, f"{label}: no terms")
        elif command == "elementary-trace":
            expect("case" in payload, f"{label}: no trace root")


def _half(v) -> int:
    """Twice a half-integer in the JSON encoding."""
    if isinstance(v, int):
        return 2 * v
    return int(v[:-2])


# -- packet_census ---------------------------------------------------------

class PacketCensus:
    """Constituent counts, flip/beta coherence and recursion bookkeeping
    over a fixed seeded set of frozen parameters, via the public API."""

    # small frozen objects, tuples and sign arithmetic
    REFERENCE = ("arith", "objects")

    def __init__(self, pkg: SimpleNamespace, seed: int,
                 outcome: Outcome) -> None:
        self.pkg = pkg
        self.outcome = outcome
        params = inputs.census_params(seed)
        parse = pkg.io_json.parameter_from_json
        SignVector, MULT = pkg.charspace.SignVector, pkg.charspace.MULT
        self.packets = []
        for spec in params["packets"]:
            psi = parse(spec)
            n = len(psi.instances())
            expected = 1
            for blk in spec["blocks"]:
                expected *= inputs.gap(blk) + 2
            vectors = [SignVector(MULT, signs) for signs in
                       itertools.product((1, -1), repeat=n)]
            self.packets.append((psi, vectors, expected))
        self.flips = []
        for spec in params["flips"]:
            psi = parse(spec)
            alphas: Dict[str, List[int]] = {}
            for blk in spec["blocks"]:
                alphas.setdefault(blk["rho"]["id"], []).append(
                    max(blk["a"], blk["b"]))
            for rho in psi.rho_labels():
                top = max(alphas[rho.id])
                for x0 in range(1, top + 2):
                    self.flips.append((psi, rho, x0, alphas[rho.id]))
        self.books = [parse(spec) for spec in params["books"]]
        self.order_seed = params["order_seed"]
        self.round_state: Dict[int, int] = {}

    def rounds(self) -> Iterator[Step]:
        pkg = self.pkg
        steps: List[Step] = []
        for idx, (psi, vectors, expected) in enumerate(self.packets):
            for v in vectors:
                steps.append(Step(
                    "op", f"constituents/{len(vectors)}",
                    pkg.packets.packet_constituents, (psi, v),
                    self._count_into(idx)))
        for psi, rho, x0, alphas in self.flips:
            steps.append(Step("op", "flip_beta", self._flip_beta,
                              (psi, rho, x0),
                              self._flip_checker(psi, x0, alphas)))
        order = list(range(len(steps)))
        random.Random(self.order_seed).shuffle(order)
        self.round_state = {i: 0 for i in range(len(self.packets))}
        for i in order:
            yield steps[i]
        for idx, (psi, vectors, expected) in enumerate(self.packets):
            self.outcome.expect(self.round_state[idx] == expected,
                                f"census {self.round_state[idx]} != "
                                f"prod(A-B+2) = {expected}")
        for psi in self.books:
            found: Dict[str, list] = {}

            def elements(psi=psi, found=found):
                found["s"] = pkg.charspace.enumerate_elements(psi)
                found["chosen"] = [inst for inst in psi.instances()
                                   if inst[0].A != inst[0].B]
                return found

            yield Step("work", "elements", elements)
            for chosen in found["chosen"]:
                for s in found["s"]:
                    yield Step("op", "bookkeeping",
                               pkg.formal.endoscopic_sign_bookkeeping,
                               (psi, s, chosen), self._check_true)

    def _count_into(self, idx: int):
        def check(classes) -> None:
            self.round_state[idx] += len(classes)
        return check

    def _flip_beta(self, psi, rho, x0):
        flip = self.pkg.signs.aubert_flip
        return (flip(flip(psi, rho, x0, True), rho, x0, True),
                flip(flip(psi, rho, x0, False), rho, x0, False),
                self.pkg.signs.beta_sign(psi, rho, x0))

    def _flip_checker(self, psi, x0: int, alphas: List[int]):
        def check(result) -> None:
            strict, loose, beta = result
            self.outcome.expect(strict == psi and loose == psi,
                                "aubert_flip twice is not the identity")
            self.outcome.expect(beta == closed_form_beta(alphas, x0),
                                f"beta_sign {beta} at x0={x0}")
        return check

    def _check_true(self, ok) -> None:
        self.outcome.expect(ok is True, "recursion bookkeeping failed")


def closed_form_beta(alphas: List[int], x0: int) -> int:
    """beta(x0) from the sizes alpha of one label.

    Odd sizes: (-1)^(k(k-1)/2) times prod (-1)^((alpha-1)/2) over the k
    sizes below x0; even sizes: prod (-1)^(alpha/2) over them.
    """
    below = sorted(a for a in alphas if a < x0)
    if not below:
        return 1
    if below[0] % 2:
        k = len(below)
        exponent = k * (k - 1) // 2 + sum((a - 1) // 2 for a in below)
    else:
        exponent = sum(a // 2 for a in below)
    return -1 if exponent % 2 else 1


WORKLOADS = {
    "weyl_catalog": WeylCatalog,
    "cli_queries": CliQueries,
    "packet_census": PacketCensus,
}
