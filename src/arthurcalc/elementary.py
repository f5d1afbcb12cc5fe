"""Recursive construction trace for elementary parameters.

For an elementary pair (psi, eps) we compute the per-rho cuspidal bounds
and unwind the inductive construction into a symbolic tree whose leaves
are supercuspidal pairs.  Nothing representation-theoretic is claimed:
nodes record the inducing segments and child pairs exactly as the
recursion prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Tuple

from .errors import AmbiguousChoice, DomainError, NotElementary, TooLarge
from .halfint import HalfInt
from .labels import RhoLabel
from .params import (PLUS, ArthurParameter, diagonal_restriction,
                     elementary_block, is_elementary)
from .segments import (EpsMap, Segment, check_character, cuspidal_chains,
                       extends_cuspidal_chain)

# Largest sum of the sizes max(a, b) that construction_trace accepts.  A
# case-2 step lowers one size by two, so the trace of one block of size
# alpha nests about alpha / 2 levels, and building it, or writing it as
# JSON or a table, takes two frames a level.  The bound keeps that well
# below Python's default recursion limit of 1000, with room for the
# callers' frames.  cli.MAX_PRINTED_NODES bounds the printed tree.
MAX_TRACE_SIZE = 600

SUPERCUSPIDAL_BASE = "supercuspidal_base"
CASE2_SHIFT = "case2_shift"
CASE3A = "case3a"
CASE3B = "case3b"
CASE3C_I = "case3c_i"
CASE3C_II = "case3c_ii"


def _check_elementary(psi: ArthurParameter) -> None:
    if not is_elementary(psi):
        raise NotElementary("construction requires an elementary parameter")


def _cuspidal_bound(rho_id: str, jord: Dict[int, int], eps: EpsMap
                    ) -> Tuple[int, Optional[int], Optional[int]]:
    """Largest prefix bound b of one rho's alpha -> delta chain, and the
    first size a > b with its delta (None, None when no size exceeds b).

    b is the largest size (or zero) such that the sizes up to b form a
    gapless alternating chain with the bottom even size carrying -1: the
    sizes link in ascending order up to the first that fails.
    """
    sign = lambda al: eps[(rho_id, al)]
    b = 0
    for al in sorted(jord):
        if not extends_cuspidal_chain(al, jord, sign):
            return b, al, jord[al]
        b = al
    return b, None, None


def _chains(psi: ArthurParameter
            ) -> Dict[str, Tuple[RhoLabel, Dict[int, int]]]:
    """Per rho id, its label and its alpha -> delta chain, read off the
    blocks of an elementary parameter in one pass."""
    chains: Dict[str, Tuple[RhoLabel, Dict[int, int]]] = {}
    for blk in psi.blocks:
        _, jord = chains.setdefault(blk.rho.id, (blk.rho, {}))
        jord[blk.alpha] = blk.zeta_resolved()
    return chains


@dataclass(frozen=True)
class ConstructionNode:
    """One node of the construction trace: the pair (psi, eps), the case
    that applies to it, its inducing segments and its child nodes.  Nodes
    compare by value and hash their own pair and case, so both read a node
    that several parents share once, not once per path to it."""

    psi: ArthurParameter
    eps: EpsMap
    case_tag: str
    rho_id: Optional[str] = None
    inducing: Tuple[Segment, ...] = ()
    annotations: Tuple[Tuple[str, str], ...] = ()
    children: Tuple["ConstructionNode", ...] = ()

    def __hash__(self) -> int:
        return hash((self.psi, self.eps, self.case_tag))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstructionNode):
            return NotImplemented
        equal = set()  # the pairs of nodes found equal, by id

        def same(x: ConstructionNode, y: ConstructionNode) -> bool:
            if x is y or (id(x), id(y)) in equal:
                return True
            if (_own(x) != _own(y) or len(x.children) != len(y.children)
                    or not all(map(same, x.children, y.children))):
                return False
            equal.add((id(x), id(y)))
            return True

        return same(self, other)


# a node's fields other than its children
_own = attrgetter("psi", "eps", "case_tag", "rho_id", "inducing",
                  "annotations")


def _with_sizes(psi: ArthurParameter, rho: RhoLabel,
                changes: Dict[int, Optional[Tuple[int, int]]]
                ) -> ArthurParameter:
    """Rewrite rho-blocks by alpha: alpha -> None removes, (alpha', delta')
    replaces; dimension drops are absorbed into the group rank."""
    blocks = []
    for blk in psi.blocks:
        if blk.rho.id == rho.id:
            if blk.alpha in changes:
                tgt = changes[blk.alpha]
                if tgt is not None:
                    blocks.append(elementary_block(blk.rho, *tgt))
                continue
        blocks.append(blk)
    return psi.with_blocks(blocks)


def _seg(rho: RhoLabel, x_twice: int, y_twice: int) -> Segment:
    return Segment(rho, HalfInt(x_twice), HalfInt(y_twice))


def construction_trace(psi: ArthurParameter, eps: EpsMap,
                       case3ci_branch: Optional[int] = PLUS
                       ) -> ConstructionNode:
    """Unwind the construction of an elementary pair into a tree.

    case3ci_branch fixes the two-element labelling choice that the
    construction leaves open when only two rho-sizes are present; it is
    recorded in the node annotations.  Passing None surfaces the choice
    as an AmbiguousChoice error instead of picking a side.  The pair is
    checked here once: every child pair the recursion builds is again
    elementary, a character of its parameter, and no larger.
    """
    _check_elementary(psi)
    check_character(psi, eps)
    total = sum(b.alpha for b in psi.blocks)
    if total > MAX_TRACE_SIZE:
        raise TooLarge(f"sizes max(a, b) sum to {total}, above the trace "
                       f"bound {MAX_TRACE_SIZE}")
    return _trace(psi, eps, case3ci_branch, {})


def _trace(psi: ArthurParameter, eps: EpsMap, case3ci_branch: Optional[int],
           built: Dict[tuple, ConstructionNode]) -> ConstructionNode:
    """The node of (psi, eps), built once per trace: a pair that the
    recursion reaches again gets the node built for it the first time,
    since a node depends on its pair and the branch alone.  Without this
    the tree's node count grows exponentially with the number of sizes,
    while its distinct pairs grow polynomially."""
    key = (psi, eps)
    node = built.get(key)
    if node is None:
        node = built[key] = _node(psi, eps, case3ci_branch, built)
    return node


def _node(psi: ArthurParameter, eps: EpsMap, case3ci_branch: Optional[int],
          built: Dict[tuple, ConstructionNode]) -> ConstructionNode:
    # the first rho, by id, whose sizes are not all cuspidal
    chains = _chains(psi)
    for rho_id in sorted(chains):
        rho, jord = chains[rho_id]
        b, a, delta = _cuspidal_bound(rho_id, jord, eps)
        if a is not None:
            break
    else:
        if not cuspidal_chains(diagonal_restriction(psi), eps):
            raise DomainError(
                "fully cuspidal pair fails the supercuspidal conditions"
            )  # pragma: no cover
        return ConstructionNode(psi, eps, SUPERCUSPIDAL_BASE)

    sizes = sorted(jord)

    if a > b + 2 or b == 0:
        # lower the first non-cuspidal size by two
        seg = _seg(rho, (a - 1) * delta, (a - 1) * delta)
        vals = eps.without((rho.id, a))
        if a - 2 >= 1:
            psi2 = _with_sizes(psi, rho, {a: (a - 2, delta)})
            vals[(rho.id, a - 2)] = eps[(rho.id, a)]
        else:
            psi2 = _with_sizes(psi, rho, {a: None})
        child = _trace(psi2, EpsMap(vals), case3ci_branch, built)
        return ConstructionNode(psi, eps, CASE2_SHIFT, rho.id, (seg,),
                                children=(child,))

    # now a == b + 2; the parities of the rho-sizes decide the sub-case
    parity = a % 2

    if b > 1:
        # flip the cuspidal chain in (parity, b] and negate its signs; odd
        # sizes also drop size 1, where two embeddings meet in a common
        # subrepresentation
        gone = (a, 1) if parity else (a,)
        changes: Dict[int, Optional[Tuple[int, int]]] = dict.fromkeys(gone)
        vals = eps.without(*((rho.id, al) for al in gone))
        for al in sizes:
            if parity < al <= b:
                changes[al] = (al, -delta)
                vals[(rho.id, al)] = -eps[(rho.id, al)]
        psi_minus = _with_sizes(psi, rho, changes)
        child_minus = _trace(psi_minus, EpsMap(vals), case3ci_branch, built)
        psi_prime = _with_sizes(psi, rho, {a: None, b: None})
        vals_p = eps.without((rho.id, a), (rho.id, b))
        child_prime = _trace(psi_prime, EpsMap(vals_p), case3ci_branch, built)
        segs = (_seg(rho, (a - 1) * delta, 0 if parity else delta),
                _seg(rho, (a - 1) * delta, -(b - 1) * delta))
        return ConstructionNode(psi, eps, CASE3B if parity else CASE3A,
                                rho.id, segs,
                                children=(child_minus, child_prime))

    if (a, b) != (3, 1):
        raise DomainError(f"unexpected case a={a}, b={b}")  # pragma: no cover

    # a = 3 over b = 1: branch choice inside a length-two socle
    psi_prime = _with_sizes(psi, rho, {3: None, 1: None})
    vals_p = eps.without((rho.id, 3), (rho.id, 1))
    child = _trace(psi_prime, EpsMap(vals_p), case3ci_branch, built)
    delta3 = jord[3]
    a_next = next((al for al in sizes if al > 3), None)
    if a_next is None:
        if case3ci_branch is None:
            raise AmbiguousChoice(
                "two-size case needs an explicit labelling branch")
        zeta = eps[(rho.id, 3)] * delta3 * case3ci_branch
        tag, notes = CASE3C_I, (("choice", "+" if case3ci_branch == PLUS
                                 else "-"),)
    else:
        zeta = eps[(rho.id, a_next)] * jord[a_next] * eps[(rho.id, 3)] * delta3
        tag, notes = CASE3C_II, (("a_next", str(a_next)),)
    segs = (_seg(rho, 2 * delta3, 2 * delta3), _seg(rho, 0, 0))
    return ConstructionNode(
        psi, eps, tag, rho.id, segs,
        notes + (("branch", "+" if zeta == PLUS else "-"),), (child,))
