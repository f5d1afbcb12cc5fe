"""JSON encoding of the domain objects.

Half-integers serialize as ints when integral and as "p/2" strings
otherwise; parameters, segments and formal sums follow fixed schemas
so that identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .formal import BasisTerm, FormalSum, Induce
from .halfint import HalfInt
from .labels import (NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC, QuadCharacter,
                     RhoLabel)
from .params import (MINUS, PLUS, SO_EVEN, ArthurParameter, GroupForm,
                     JordanBlock)
from .segments import EpsMap, Segment

_TYPE_OUT = {ORTHOGONAL: "orthogonal", SYMPLECTIC: "symplectic",
             NOT_SELF_DUAL: "none"}
_TYPE_IN = {v: k for k, v in _TYPE_OUT.items()}
_ZETA_OUT = {PLUS: "+", MINUS: "-", None: "unset"}
_ZETA_IN = {v: k for k, v in _ZETA_OUT.items()}


def halfint_to_json(x: HalfInt):
    if x.twice % 2 == 0:
        return x.twice // 2
    return f"{x.twice}/2"


def quadchar_to_json(q: QuadCharacter) -> str:
    return "" if q.is_trivial() else "*".join(sorted(q.generators))


def quadchar_from_json(s: Optional[str]) -> QuadCharacter:
    if s is not None and not isinstance(s, str):
        raise TypeError(f"a quadratic character must be a string, got {s!r}")
    q = QuadCharacter.trivial()
    if not s:
        return q
    # a product of generators: repeated factors cancel, as in __mul__
    for gen in s.split("*"):
        if not gen:
            raise TypeError(f"empty factor in quadratic character {s!r}")
        q = q * QuadCharacter.of(gen)
    return q


def rho_to_json(rho: RhoLabel) -> Dict[str, Any]:
    out = {"id": rho.id, "dim": rho.dim,
           "type": _TYPE_OUT[rho.self_dual_type]}
    if not rho.det_char.is_trivial():
        out["det"] = quadchar_to_json(rho.det_char)
    return out


def _int_field(d: Dict[str, Any], key: str, default: Optional[int] = None
               ) -> int:
    """An integer schema field; bools and floats are schema errors."""
    v = d[key] if default is None else d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{key!r} must be an integer, got {v!r}")
    return v


def _choice_field(d: Dict[str, Any], key: str, table: Dict[str, Any],
                  default: str):
    """A schema field that names one entry of table."""
    v = d.get(key, default)
    if not isinstance(v, str) or v not in table:
        raise TypeError(f"{key!r} must be one of "
                        f"{', '.join(map(repr, table))}, got {v!r}")
    return table[v]


def rho_from_json(d: Dict[str, Any]) -> RhoLabel:
    if not isinstance(d["id"], str):
        raise TypeError(f"a rho id must be a string, got {d['id']!r}")
    return RhoLabel(d["id"], _int_field(d, "dim", 1),
                    _choice_field(d, "type", _TYPE_IN, "orthogonal"),
                    quadchar_from_json(d.get("det")))


def block_to_json(blk: JordanBlock) -> Dict[str, Any]:
    return {"rho": rho_to_json(blk.rho), "a": blk.a, "b": blk.b,
            "mult": blk.mult, "zeta": _ZETA_OUT[blk.zeta]}


def block_from_json(d: Dict[str, Any]) -> JordanBlock:
    return JordanBlock(rho_from_json(d["rho"]), _int_field(d, "a"),
                       _int_field(d, "b"), _int_field(d, "mult", 1),
                       _choice_field(d, "zeta", _ZETA_IN, "unset"))


def group_to_json(g: GroupForm) -> Dict[str, Any]:
    out = {"kind": g.kind, "n": g.n}
    if g.kind == SO_EVEN:
        out["eta"] = quadchar_to_json(g.eta)
    return out


def group_from_json(d: Dict[str, Any]) -> GroupForm:
    return GroupForm(d["kind"], _int_field(d, "n"),
                     quadchar_from_json(d.get("eta")))


def parameter_to_json(psi: ArthurParameter) -> Dict[str, Any]:
    return {"group": group_to_json(psi.group),
            "blocks": [block_to_json(b) for b in psi.blocks]}


def parameter_from_json(d: Dict[str, Any]) -> ArthurParameter:
    blocks = d["blocks"]
    if not isinstance(blocks, list):
        raise TypeError(f"'blocks' must be a list, got {blocks!r}")
    return ArthurParameter(group_from_json(d["group"]),
                           tuple(block_from_json(b) for b in blocks))


def segment_to_json(seg: Segment) -> Dict[str, Any]:
    return {"rho": seg.rho.id, "from": halfint_to_json(seg.x),
            "to": halfint_to_json(seg.y)}


def epsmap_to_json(eps: EpsMap) -> List[Dict[str, Any]]:
    return [{"rho": rid, "a": a, "sign": sg}
            for (rid, a), sg in sorted(eps.values.items())]


def term_to_json(term: BasisTerm) -> Dict[str, Any]:
    ops = []
    for op in term.ops:
        if isinstance(op, Induce):
            ops.append({"op": "induce", "rho": op.rho_id,
                        "seg": [halfint_to_json(op.x), halfint_to_json(op.y)]})
        else:
            ops.append({"op": "jac", "rho": op.rho_id,
                        "exps": [halfint_to_json(x) for x in op.exponents]})
    core = {"group": group_to_json(term.core.group),
            "blocks": [{"block": block_to_json(blk),
                        **({} if sg is None else {"sign": sg})}
                       for blk, sg in term.core.entries]}
    return {"ops": ops, "core": core}


def sum_to_json(s: FormalSum) -> Dict[str, Any]:
    return {"terms": [{"coeff": c, "term": term_to_json(t)}
                      for t, c in s.ordered()]}


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
