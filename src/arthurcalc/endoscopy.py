"""Elliptic and twisted elliptic endoscopic data from (psi, s).

An element s of the centralizer partitions the blocks by sign; the two
sides assemble into a pair of smaller classical groups with parameters,
with quadratic-character twists read off from formal determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from .charspace import SignVector, in_element_space, pair
from .errors import BadDimensionSplit, DomainError, NotApplicable
from .labels import QuadCharacter
from .params import (SO_EVEN, SO_ODD, SP, ArthurParameter, BlockOrder,
                     GroupForm, Instance, JordanBlock, is_parity_pure,
                     number_copies)
from .signs import eps_mw_w, theta_ratio_mw_w


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


def _partition(psi: ArthurParameter, s: SignVector
               ) -> Tuple[List[Instance], List[Instance]]:
    """The instances where s is +1 and where it is -1; s has passed
    in_element_space, which checks it against psi."""
    insts = psi.instances()
    plus = [inst for inst, sg in zip(insts, s.signs) if sg == 1]
    minus = [inst for inst, sg in zip(insts, s.signs) if sg == -1]
    return plus, minus


def _regroup(insts: List[Instance]) -> Tuple[JordanBlock, ...]:
    return tuple(blk for blk, _ in insts)


def _eta_product(insts: List[Instance]) -> QuadCharacter:
    out = QuadCharacter.trivial()
    for blk, _ in insts:
        out = out * eta_block(blk)
    return out


def _dim(insts: List[Instance]) -> int:
    return sum(blk.dim for blk, _ in insts)


def elliptic_datum(psi: ArthurParameter, s: SignVector) -> EndoscopicDatum:
    """The elliptic endoscopic pair attached to an element of the
    centralizer satisfying the determinant condition."""
    if not is_parity_pure(psi):
        raise DomainError("endoscopic data are built from the parity part")
    if not in_element_space(s, psi):
        raise NotApplicable("s fails the determinant condition; "
                            "use the twisted construction")
    plus, minus = _partition(psi, s)
    swapped = False
    n_plus, n_minus = _dim(plus), _dim(minus)
    kind = psi.group.kind
    triv = QuadCharacter.trivial()

    if kind == SP:
        # the odd-dimensional side plays the symplectic role
        if n_plus % 2 == 0:
            plus, minus = minus, plus
            n_plus, n_minus = n_minus, n_plus
            swapped = True
        eta = _eta_product(minus)
        g_one = GroupForm.of_dim(SP, n_plus, triv)
        g_two = GroupForm.of_dim(SO_EVEN, n_minus, eta)
        blocks_one = tuple(replace(blk, rho=blk.rho.twist(eta))
                           for blk in _regroup(plus))
        psi_one = ArthurParameter(g_one, blocks_one)
        psi_two = ArthurParameter(g_two, _regroup(minus))
        return EndoscopicDatum(eta, eta, psi_one, psi_two, twisted=False,
                               swapped=swapped)

    if kind == SO_ODD:
        if n_plus % 2 or n_minus % 2:
            raise BadDimensionSplit("both sides must be even-dimensional")
        g_one = GroupForm.of_dim(SO_ODD, n_plus, triv)
        g_two = GroupForm.of_dim(SO_ODD, n_minus, triv)
        return EndoscopicDatum(
            triv, triv, ArthurParameter(g_one, _regroup(plus)),
            ArthurParameter(g_two, _regroup(minus)), twisted=False)

    # even orthogonal: the determinant condition forces even sides
    if n_plus % 2 or n_minus % 2:
        raise BadDimensionSplit(
            "determinant condition violated")  # pragma: no cover
    eta_one, eta_two = _eta_product(plus), _eta_product(minus)
    g_one = GroupForm.of_dim(SO_EVEN, n_plus, eta_one)
    g_two = GroupForm.of_dim(SO_EVEN, n_minus, eta_two)
    return EndoscopicDatum(
        eta_one, eta_two, ArthurParameter(g_one, _regroup(plus)),
        ArthurParameter(g_two, _regroup(minus)), twisted=False)


def twisted_datum(psi: ArthurParameter, s: SignVector) -> EndoscopicDatum:
    """The twisted pair for an even orthogonal group and an element
    violating the determinant condition: two symplectic factors."""
    if psi.group.kind != SO_EVEN:
        raise NotApplicable("twisted data exist for even orthogonal groups")
    if in_element_space(s, psi):
        raise NotApplicable("s satisfies the determinant condition")
    plus, minus = _partition(psi, s)
    n_plus, n_minus = _dim(plus), _dim(minus)
    if n_plus % 2 == 0 or n_minus % 2 == 0:
        raise BadDimensionSplit(
            "both sides must be odd-dimensional")  # pragma: no cover
    eta_one, eta_two = _eta_product(plus), _eta_product(minus)
    g_one = GroupForm.of_dim(SP, n_plus, QuadCharacter.trivial())
    g_two = GroupForm.of_dim(SP, n_minus, QuadCharacter.trivial())
    blocks_one = tuple(replace(blk, rho=blk.rho.twist(eta_one))
                       for blk in _regroup(plus))
    blocks_two = tuple(replace(blk, rho=blk.rho.twist(eta_two))
                       for blk in _regroup(minus))
    return EndoscopicDatum(
        eta_one, eta_two, ArthurParameter(g_one, blocks_one),
        ArthurParameter(g_two, blocks_two), twisted=True)


def induced_order(order: BlockOrder, side: List[Instance],
                  eta: QuadCharacter) -> BlockOrder:
    """Restrict an admissible order to one side of a partition.

    The side's instances are renumbered to match the sub-parameter's own
    canonical instance list (labels possibly twisted by eta).
    """
    chosen = [inst[0] for inst in order.sequence if inst in side]
    if not eta.is_trivial():
        chosen = [replace(blk, rho=blk.rho.twist(eta)) for blk in chosen]
    return BlockOrder(number_copies(chosen))


def sign_transfer_check(psi: ArthurParameter, s: SignVector,
                        order: BlockOrder) -> bool:
    """Verify the transfer identity for the comparison character.

    The left side pairs the character with s; the right side multiplies
    the normalization ratios of the two endoscopic parameters and of psi
    itself, each evaluated independently from its own pair set.
    """
    datum = elliptic_datum(psi, s)
    plus, minus = _partition(psi, s)
    if datum.swapped:
        plus, minus = minus, plus
    eta_plus = datum.eta_one if psi.group.kind == SP else \
        QuadCharacter.trivial()
    order_one = induced_order(order, plus, eta_plus)
    order_two = induced_order(order, minus, QuadCharacter.trivial())
    lhs = pair(eps_mw_w(psi, order), s)
    rhs = (theta_ratio_mw_w(datum.psi_one, order_one)
           * theta_ratio_mw_w(datum.psi_two, order_two)
           * theta_ratio_mw_w(psi, order))
    return lhs == rhs
