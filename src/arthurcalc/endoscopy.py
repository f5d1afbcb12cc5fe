"""Elliptic and twisted elliptic endoscopic data from (psi, s).

An element s of the centralizer partitions the blocks by sign.  One role
table decides, for each case, the group kind and the quadratic character
eta of each side, read off from formal determinants; one rule turns a
side into its parameter: a symplectic side twists its labels by eta, an
orthogonal side carries eta on its group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, NamedTuple, Tuple

from .charspace import SignVector, in_element_space, pair
from .errors import BadDimensionSplit, DomainError, NotApplicable
from .halfint import sign_pow
from .labels import QuadCharacter
from .params import (SO_EVEN, SO_ODD, SP, ArthurParameter, BlockOrder,
                     GroupForm, Instance, JordanBlock, is_parity_pure,
                     number_copies)
from .signs import eps_of_pairs, theta_ratio_mw_w, z_mw_w


@dataclass(frozen=True)
class EndoscopicDatum:
    eta_one: QuadCharacter
    eta_two: QuadCharacter
    psi_one: ArthurParameter
    psi_two: ArthurParameter
    twisted: bool
    swapped: bool = False  # the two sides of s were exchanged to normalize


def eta_block(block: JordanBlock) -> QuadCharacter:
    """Quadratic character dual to the formal determinant of a block.

    The symmetric-power factors have trivial determinant, so only the
    det generator of rho survives, raised to a*b.
    """
    return block.rho.det_char ** (block.a * block.b)


def _twist(blocks: Iterable[JordanBlock], eta: QuadCharacter
           ) -> List[JordanBlock]:
    if eta.is_trivial():
        return list(blocks)
    return [replace(blk, rho=blk.rho.twist(eta)) for blk in blocks]


class _Side(NamedTuple):
    """One side of s: its instances, the kind of its group and its eta."""

    insts: List[Instance]
    kind: str
    eta: QuadCharacter

    def label_eta(self) -> QuadCharacter:
        """The side rule: a symplectic side twists its labels by eta; an
        orthogonal side carries eta on its group, and GroupForm keeps it
        only on an even orthogonal one."""
        return self.eta if self.kind == SP else QuadCharacter.trivial()

    def parameter(self) -> ArthurParameter:
        blocks = _twist((blk for blk, _ in self.insts), self.label_eta())
        N = sum(blk.dim for blk in blocks)
        return ArthurParameter(GroupForm.of_dim(self.kind, N, self.eta),
                               tuple(blocks))


# case of (psi, s) -> group kinds of side one and side two
_KINDS = {SP: (SP, SO_EVEN), SO_ODD: (SO_ODD, SO_ODD),
          SO_EVEN: (SO_EVEN, SO_EVEN), "twisted": (SP, SP)}


def _eta_of(insts: List[Instance]) -> QuadCharacter:
    return math.prod((eta_block(blk) for blk, _ in insts),
                     start=QuadCharacter.trivial())


def _roles(psi: ArthurParameter, s: SignVector, elliptic_only: bool = False
           ) -> Tuple[_Side, _Side, bool]:
    """Side one, side two, and whether the sides of s were exchanged: the
    side where s is +1 comes first unless Sp needs the other one there.
    The determinant condition on s picks the case: elliptic when s meets
    it, twisted otherwise, which elliptic_only refuses."""
    if not is_parity_pure(psi):
        raise DomainError("endoscopic data are built from the parity part")
    twisted = not in_element_space(s, psi)
    if twisted and elliptic_only:
        raise NotApplicable("s fails the determinant condition; "
                            "use the twisted construction")
    insts = psi.instances()
    plus = [inst for inst, sg in zip(insts, s.signs) if sg == 1]
    minus = [inst for inst, sg in zip(insts, s.signs) if sg == -1]
    plus_odd = sum(blk.dim for blk, _ in plus) % 2 == 1
    case = "twisted" if twisted else psi.group.kind
    swapped = case == SP and not plus_odd
    if swapped:
        plus, minus = minus, plus
    if case == SP:  # both sides take eta of the even orthogonal side
        etas = (_eta_of(minus),) * 2
    elif case == SO_ODD:
        if plus_odd:  # N is even, so the two sides are odd together
            raise BadDimensionSplit("both sides must be even-dimensional")
        etas = (QuadCharacter.trivial(),) * 2
    else:  # each side takes its own; as N is even and s meets the
        # determinant condition iff its -1 side is even, the sides are even
        # when elliptic and odd when twisted, as their kinds need
        etas = _eta_of(plus), _eta_of(minus)
    kind_one, kind_two = _KINDS[case]
    return (_Side(plus, kind_one, etas[0]), _Side(minus, kind_two, etas[1]),
            swapped)


def endoscopic_datum(psi: ArthurParameter, s: SignVector) -> EndoscopicDatum:
    """The elliptic endoscopic datum of s when s satisfies the determinant
    condition; otherwise, for an even orthogonal group, the twisted one,
    with two symplectic factors."""
    one, two, swapped = _roles(psi, s)
    # only the twisted case has two symplectic sides
    return EndoscopicDatum(one.eta, two.eta, one.parameter(), two.parameter(),
                           one.kind == two.kind == SP, swapped)


def induced_order(order: BlockOrder, side: List[Instance],
                  eta: QuadCharacter) -> BlockOrder:
    """Restrict an admissible order to one side of a partition.

    The side's instances are renumbered to match the sub-parameter's own
    canonical instance list (labels possibly twisted by eta).
    """
    chosen = [inst[0] for inst in order.sequence if inst in side]
    return BlockOrder(number_copies(_twist(chosen, eta)))


def sign_transfer_check(psi: ArthurParameter, s: SignVector,
                        order: BlockOrder) -> bool:
    """Verify the transfer identity for the comparison character.

    The left side pairs the character with s; the right side multiplies
    the normalization ratios of the two endoscopic parameters and of psi
    itself, each evaluated independently from its own pair set.
    """
    one, two, _ = _roles(psi, s, elliptic_only=True)
    # _roles refuses a psi that is not its own parity part, so one pair
    # set of psi gives both its character and its ratio
    zs = z_mw_w(psi, order)
    lhs = pair(eps_of_pairs(zs), s)
    rhs = sign_pow(len(zs))
    for side in (one, two):
        rhs *= theta_ratio_mw_w(
            side.parameter(),
            induced_order(order, side.insts, side.label_eta()))
    return lhs == rhs
