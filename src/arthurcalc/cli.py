"""Command-line front end.

Subcommands operate on a parameter JSON (inline or a file path) and
print deterministic JSON (default) or aligned text.  Exit status: 0 on
success, 1 on a domain error (with a machine-readable error object),
2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from . import io_json as js
from .charspace import CLASS, MULT, SignVector
from .elementary import ConstructionNode, construction_trace
from .errors import DomainError, TooLarge
from .formal import ddr_recursion_expand, packet_recursion_expand
from .halfint import sign_pow
from .packets import packet_constituents
from .params import (MINUS, PLUS, ArthurParameter, BlockOrder, Instance,
                     classify, diagonal_restriction, natural_order)
from .segments import EpsMap, cuspidal_support
from .signs import eps_m_mw_general, eps_of_pairs, z_mw_w
from . import endoscopy as endo


class UsageError(Exception):
    pass


def _load_raw(spec: str) -> dict:
    text = spec
    if not spec.lstrip().startswith(("{", "[")):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read input file: {e}")
    try:
        return json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or too long an int literal
        raise UsageError(f"malformed JSON: {e}")
    except RecursionError:
        raise UsageError("malformed JSON: nested too deeply")


def _load_parameter(spec: str, zeta_convention: int) -> ArthurParameter:
    return _parameter_from_raw(_load_raw(spec), zeta_convention)


def _parameter_from_raw(data, zeta_convention: int) -> ArthurParameter:
    try:
        psi = js.parameter_from_json(data)
    except (KeyError, TypeError) as e:
        raise UsageError(f"bad parameter schema: {e}")
    return psi.resolve_zeta(zeta_convention)


def _parse_signs(text: str, size: int, support: str = MULT) -> SignVector:
    text = text.strip()
    if len(text) != size or any(c not in "+-" for c in text):
        raise UsageError(f"expected a string of {size} signs, got {text!r}")
    return SignVector(support, tuple(1 if c == "+" else -1 for c in text))


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(js.dumps(payload))
        return
    _emit_table(payload, indent=0)


def _emit_table(payload, indent: int) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (dict, list)):
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_table(val, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {val}\n")
    elif isinstance(payload, list):
        for val in payload:
            if isinstance(val, (dict, list)):
                _emit_table(val, indent)
                sys.stdout.write(f"{pad}-\n")
            else:
                sys.stdout.write(f"{pad}{val}\n")
    else:
        sys.stdout.write(f"{pad}{payload}\n")


def _order_for(psi: ArthurParameter, mode: str,
               raw: Optional[dict] = None) -> BlockOrder:
    if mode == "natural":
        return natural_order(psi)
    if mode == "file":
        if not raw or "order" not in raw:
            raise UsageError("order mode 'file' needs an order array "
                             "in the input")
        positions = raw["order"]
        if not isinstance(positions, list) or any(
                isinstance(i, bool) or not isinstance(i, int)
                for i in positions):
            raise UsageError("order array must hold integer block indices")
        # sized from the multiplicities: the instances are built only for
        # an order as long as the input that lists them
        n = psi.instance_count()
        if len(positions) != n or sorted(positions) != list(range(n)):
            raise UsageError("order array must permute the block indices")
        insts = psi.instances()
        return BlockOrder(tuple(insts[i] for i in positions))
    raise UsageError(f"unknown order mode {mode!r}")


def cmd_classify(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    return {"flags": sorted(classify(psi))}


def cmd_diag_restriction(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    return js.parameter_to_json(diagonal_restriction(psi))


def cmd_signs(args) -> dict:
    raw = _load_raw(args.input)
    psi = _parameter_from_raw(raw, args.zeta)
    order = _order_for(psi, args.order, raw)
    # z_mw_w raises unless psi is its own parity part, so theta_ratio_mw_w
    # would count these same pairs
    zs = z_mw_w(psi, order)
    mw_w = eps_of_pairs(zs)
    m_mw = eps_m_mw_general(psi, order)
    return {
        "z_mw_w": sorted([list(p) for p in zs.pairs]),
        "eps_mw_w": list(mw_w.signs),
        "theta_ratio": sign_pow(len(zs)),
        "eps_m_mw": list(m_mw.signs),
        "eps_m_w": list(m_mw.pointwise(mw_w).signs),
    }


def cmd_endoscopy(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    s = _parse_signs(args.s, psi.instance_count())
    datum = endo.endoscopic_datum(psi, s)
    return {
        "twisted": datum.twisted,
        "swapped": datum.swapped,
        "g_one": js.group_to_json(datum.psi_one.group),
        "g_two": js.group_to_json(datum.psi_two.group),
        "eta_one": js.quadchar_to_json(datum.eta_one),
        "eta_two": js.quadchar_to_json(datum.eta_two),
        "psi_one": js.parameter_to_json(datum.psi_one),
        "psi_two": js.parameter_to_json(datum.psi_two),
    }


def cmd_packet(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    eps = _parse_signs(args.eps, psi.instance_count())
    classes = packet_constituents(psi, eps)
    return {"classes": [
        {"l": list(c.representative.l),
         "eta": list(c.representative.eta),
         "size": len(c.members),
         "status": c.status} for c in classes]}


def cmd_cuspidal_support(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    eps = _parse_signs(args.eps, len(psi.blocks), support=CLASS)
    phi, eps_c, trace = cuspidal_support(psi, EpsMap.from_vector(psi, eps))
    return {
        "steps": [{"kind": kind, "segment": js.segment_to_json(seg)}
                  for kind, seg in trace],
        "cuspidal": js.parameter_to_json(phi),
        "eps": js.epsmap_to_json(eps_c),
    }


# Most nodes elementary-trace prints.  A node that several parents share
# prints under each, exponentially more often than the trace holds it.
MAX_PRINTED_NODES = 10_000


def _trace_to_json(root: ConstructionNode) -> dict:
    """The trace as JSON, each node that several parents share converted
    once; its one dict then appears under each of them."""
    done: Dict[int, dict] = {}

    def convert(node: ConstructionNode) -> dict:
        out = done.get(id(node))
        if out is None:
            out = done[id(node)] = {
                "case": node.case_tag,
                "rho": node.rho_id,
                "segments": [js.segment_to_json(s) for s in node.inducing],
                "notes": dict(node.annotations),
                "children": [convert(c) for c in node.children],
            }
        return out

    return convert(root)


def cmd_elementary_trace(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    eps = _parse_signs(args.eps, len(psi.blocks), support=CLASS)
    branch = PLUS if args.branch == "+" else MINUS
    root = construction_trace(psi, EpsMap.from_vector(psi, eps),
                              case3ci_branch=branch)
    below: Dict[int, int] = {}  # node id -> nodes it prints, itself included

    def printed(node: ConstructionNode) -> int:
        if id(node) not in below:
            below[id(node)] = 1 + sum(map(printed, node.children))
        return below[id(node)]

    if printed(root) > MAX_PRINTED_NODES:
        raise TooLarge(f"the trace prints {printed(root)} nodes, above the "
                       f"bound {MAX_PRINTED_NODES}")
    return _trace_to_json(root)


def _instance_at(psi: ArthurParameter, index: int) -> Instance:
    """psi.instances()[index], without building the others."""
    for blk in psi.blocks:
        if index < blk.mult:
            return replace(blk, mult=1), index
        index -= blk.mult


def cmd_expand(args) -> dict:
    psi = _load_parameter(args.input, args.zeta)
    n = psi.instance_count()
    if not 0 <= args.block < n:
        raise UsageError(f"block index {args.block} out of range")
    chosen = _instance_at(psi, args.block)
    if args.eps is not None:
        eps = _parse_signs(args.eps, n)
        total = ddr_recursion_expand(psi, eps, chosen)
    else:
        total = packet_recursion_expand(psi, chosen)
    return js.sum_to_json(total)


def cmd_weyl_verify(args) -> dict:
    # imported here so that no other subcommand pays for the Weyl layer
    from . import weyl
    gtype = args.type
    twisted = gtype in ("A", "D")
    if args.rank > args.rank_bound:
        raise UsageError(f"rank exceeds bound {args.rank_bound}")
    datum = weyl.RootDatum(gtype, args.rank, twisted=twisted)
    res = weyl.restricted_roots(datum)
    splits = weyl.catalog_split_data(datum, res)
    if args.split is not None:
        if not 0 <= args.split < len(splits):
            raise UsageError(f"split index out of range 0..{len(splits)-1}")
        splits = [splits[args.split]]
    rows = []
    for data in splits:
        report = weyl.verify_alternating_sum(data)
        rows.append({
            "split": data.split.name,
            "identity_A": weyl.verify_identity_A(data),
            "identity_B": weyl.verify_identity_B(data),
            "alternating_sum": report.all_pass(),
            "coset_representatives": weyl.verify_coset_representatives(data),
            "cells": [{"m_prime": [list(b) for b in mp],
                       "lhs": lhs, "rhs": rhs}
                      for mp, lhs, rhs in report.entries],
        })
    return {"type": gtype, "rank": args.rank, "splits": rows,
            "all_pass": all(r["identity_A"] and r["identity_B"]
                            and r["alternating_sum"]
                            and r["coset_representatives"] for r in rows)}


def cmd_selftest(args) -> dict:
    # imported here so that no other subcommand pays for the registry
    import random
    from dataclasses import replace
    from . import weyl
    from .testing import COMPACT, FAMILIES
    # a bound below every catalogued datum would check no Weyl datum at all
    least = min(datum.rank for datum in weyl.datum_catalog())
    if args.rank_bound < least:
        raise UsageError(f"rank bound below the smallest catalogued rank "
                         f"{least}")
    rng = random.Random(args.seed)
    size = replace(COMPACT, rank_bound=args.rank_bound)
    results = {name: family(rng, size)[1]
               for name, family in FAMILIES.items()}
    return {"failures": results,
            "ok": all(v == 0 for v in results.values())}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one; parsing never writes to it (see the README on
    concurrency).  A plain function, so that bench/tracer.py, which wraps
    plain functions only, still sees every call."""
    return _shared_parser()


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arthurcalc",
        description="Symbolic calculator for Jordan-block packet data")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--zeta-convention", dest="zeta_str",
                    choices=("+", "-"), default="+")
    # the same flags are accepted after the subcommand; suppressed
    # defaults keep them from clobbering values parsed at the top level
    late = argparse.ArgumentParser(add_help=False)
    late.add_argument("--format", choices=("json", "table"),
                      default=argparse.SUPPRESS)
    late.add_argument("--zeta-convention", dest="zeta_str",
                      choices=("+", "-"), default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name, parents=[late])
        p.set_defaults(fn=fn)
        return p

    p = add("classify", cmd_classify)
    p.add_argument("input")
    p = add("diag-restriction", cmd_diag_restriction)
    p.add_argument("input")
    p = add("signs", cmd_signs)
    p.add_argument("input")
    p.add_argument("--order", default="natural")
    p = add("endoscopy", cmd_endoscopy)
    p.add_argument("input")
    p.add_argument("--s", required=True)
    p = add("packet", cmd_packet)
    p.add_argument("input")
    p.add_argument("--eps", required=True)
    p = add("cuspidal-support", cmd_cuspidal_support)
    p.add_argument("input")
    p.add_argument("--eps", required=True)
    p = add("elementary-trace", cmd_elementary_trace)
    p.add_argument("input")
    p.add_argument("--eps", required=True)
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p = add("expand", cmd_expand)
    p.add_argument("input")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--eps")
    p = add("weyl-verify", cmd_weyl_verify)
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--split", type=int)
    p.add_argument("--rank-bound", type=int, default=4)
    p = add("selftest", cmd_selftest)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank-bound", type=int, default=4)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    # argparse drops a value that is exactly "--", so "--eps=--" and
    # "--s=--" arrive as an empty list
    for name in ("eps", "s"):
        if getattr(args, name, None) == []:
            setattr(args, name, "--")
    args.zeta = PLUS if args.zeta_str == "+" else MINUS
    try:
        payload = args.fn(args)
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 2
    except DomainError as e:
        _emit({"error": str(e), "type": type(e).__name__}, args.format)
        return 1
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
