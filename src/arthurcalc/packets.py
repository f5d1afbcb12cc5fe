"""The two-function parametrization of packet constituents.

Constituents of a packet are labelled by a pair of functions (l, eta) on
the blocks, subject to a per-block range bound.  The attached character,
the classes of pairs that label one constituent, and the translation
between the M- and W-side labellings all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .charspace import (CLASS, SignVector, check_vector, in_character_space,
                        per_class)
from .errors import DomainError, NotACharacter, OutOfRange, TooLarge
from .halfint import HalfInt, bracket_sign, hrange, sign_pow
from .params import ArthurParameter, BlockOrder, _trusted, classify
from .signs import eps_m_w

# Most block instances, and most constituent classes, that
# packet_constituents lists for one eps.  A block has about (A - B + 1)/2
# classes for each sign, and the count for psi is their product, so a few
# long blocks reach hundreds of millions well inside the instance bound.
# The class bound still lets through every parameter within the instance
# bound that has at most two classes at each block.
ENUM_BOUND = 14
MAX_CLASSES = 2 ** ENUM_BOUND


@dataclass(frozen=True)
class LEtaPair:
    """Functions l (segment count) and eta (sign) on the block instances."""

    l: Tuple[int, ...]
    eta: Tuple[int, ...]

    def __post_init__(self):
        if len(self.l) != len(self.eta):
            raise DomainError("l and eta must share a domain")
        eta = self.eta
        if eta.count(1) + eta.count(-1) != len(eta):
            raise DomainError("eta values must be +-1")


def eta_constraint_check(A: HalfInt, B: HalfInt, l: int) -> bool:
    """Equivalence of the recursion constraint with the character formula.

    The constraint fixes eta through
        eta0 = eta**(A-B+1) * prod_{C in [B+l, A-l]} (-1)**[C],
    while the character formula evaluates, with eta' = eta * (-1)**[B+l],
        eta0 = eta'**(A-B+1) * (-1)**([(A-B+1)/2] + l).
    The two agree for every admissible (A, B, l); the check returns that
    agreement for one cell, quantified over both values of eta.
    """
    gap = int(A - B) + 1
    if not 0 <= l <= gap // 2:
        raise OutOfRange(f"l={l} out of range for A={A}, B={B}")
    prod = 1
    for C in hrange(B + l, A - l):
        prod *= bracket_sign(C)
    for eta in (1, -1):
        lhs = (eta if gap % 2 else 1) * prod
        eta_bar = eta * bracket_sign(B + l)
        rhs = (eta_bar if gap % 2 else 1) * sign_pow(gap // 2 + l)
        if lhs != rhs:
            return False
    return True


def _class_count(gap: int, sign: int) -> int:
    """How many classes _block_classes(gap, sign) lists, without
    building them."""
    if gap % 2:
        return gap // 2 + 1
    half = gap // 2
    return 2 * (half // 2) + 1 if sign == 1 else 2 * ((half + 1) // 2)


def _block_classes(gap: int, sign: int
                   ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """The classes of the (l, eta), 0 <= l <= [gap/2], whose character
    value eta**gap * (-1)**([gap/2] + l) at a block with A - B + 1 = gap
    is sign: the l of each class and the etas of each class, l ascending
    and eta = +1 first.

    Two pairs label one constituent exactly when they have the same l,
    and the same eta unless 2l = gap.  An odd gap fixes eta at each l.
    An even gap drops eta from the value, which then fixes the parity
    of l; each such l gives two classes, one per eta, except l = gap/2,
    whose two etas are one class."""
    half = gap // 2
    minus = sign != 1  # (-1)**minus == sign
    if gap % 2:
        return (tuple(range(half + 1)),
                tuple((sign_pow(half + l + minus),) for l in range(half + 1)))
    ls, etas = [], []
    for l in range((half + minus) % 2, half, 2):
        ls += [l, l]
        etas += [(1,), (-1,)]
    if not minus:
        ls.append(half)
        etas.append((1, -1))
    return tuple(ls), tuple(etas)


GUARANTEED = "guaranteed"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class ConstituentClass:
    representative: LEtaPair
    members: Tuple[LEtaPair, ...]
    status: str


def packet_constituents(psi: ArthurParameter, eps: SignVector
                        ) -> List[ConstituentClass]:
    """Label classes of packet members with the requested character.

    For parameters with discrete diagonal restriction every class is
    realized; otherwise the census lists labels whose nonvanishing is
    not decided here.
    """
    status = GUARANTEED if "discrete_diag_restriction" in classify(psi) \
        else UNDECIDED
    check_vector(psi, eps)
    gaps = psi._gaps
    if len(gaps) > ENUM_BOUND:
        raise TooLarge(f"{len(gaps)} blocks exceeds bound {ENUM_BOUND}")
    count = math.prod(map(_class_count, gaps, eps.signs))
    if count > MAX_CLASSES:
        raise TooLarge(f"{count} constituent classes exceeds bound "
                       f"{MAX_CLASSES}")
    # a class of psi picks a class at every block, in product order, which
    # keeps the classes in first-seen order; its members share its l and
    # pick one of its etas at each block, two only where 2l = gap
    rows = list(map(_block_classes, gaps, eps.signs))
    ls, etas = zip(*rows) if rows else ((), ())
    classes = []
    for l, choices in zip(itertools.product(*ls), itertools.product(*etas)):
        # l and eta = +-1 of one length, from _block_classes, status one
        # of the two: the pairs and the class check nothing
        members = tuple(_trusted(LEtaPair, l=l, eta=eta)
                        for eta in itertools.product(*choices))
        classes.append(_trusted(ConstituentClass, representative=members[0],
                                members=members, status=status))
    return classes


def translate_m_w(psi: ArthurParameter, eps: SignVector,
                  order: BlockOrder) -> Optional[SignVector]:
    """Move an M-side character to the W side when possible.

    Returns eps * eps^{M/W} as a class character when the product
    descends to the unshifted space, None otherwise (the M-side member
    vanishes under the W-side labelling).
    """
    if not in_character_space(eps, psi):
        raise NotACharacter("eps must lie in the shifted character space")
    copies = per_class(psi, eps.pointwise(eps_m_w(psi, order)))
    if any(len(set(signs)) > 1 for signs in copies):
        return None
    return SignVector(CLASS, tuple(signs[0] for signs in copies))
