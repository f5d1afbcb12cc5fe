"""The two-function parametrization of packet constituents.

Constituents of a packet are labelled by a pair of functions (l, eta) on
the blocks, subject to a per-block range bound.  The attached character,
the classes of pairs that label one constituent, and the translation
between the M- and W-side labellings all live here.  A class is listed
in closed form, by its l and its eta choices, without its pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .charspace import (CLASS, SignVector, check_vector, in_character_space,
                        per_class)
from .errors import NotACharacter, OutOfRange, TooLarge
from .halfint import HalfInt, bracket_sign, hrange, sign_pow
from .params import (ArthurParameter, BlockOrder, _block_classes,
                     _class_count, _trusted, classify)
from .signs import eps_m_w

# Most block instances, and most constituent classes, that
# packet_constituents lists for one eps.  A block has about (A - B + 1)/2
# classes for each sign, and the count for psi is their product, so a few
# long blocks reach hundreds of millions well inside the instance bound.
# The class bound still lets through every parameter within the instance
# bound that has at most two classes at each block.
ENUM_BOUND = 14
MAX_CLASSES = 2 ** ENUM_BOUND


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


GUARANTEED = "guaranteed"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class ConstituentClass:
    """One class of (l, eta) pairs, which label one packet member: the l
    of every pair in it, its eta choices at each block instance, one eta
    or (1, -1) where 2l = A - B + 1, its status, and its size, the product
    of the choice counts."""

    l: Tuple[int, ...]
    eta: Tuple[Tuple[int, ...], ...]
    status: str
    size: int


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
    # keeps the classes in first-seen order; its pairs share its l and
    # pick one of its etas at each block, two only where 2l = gap
    table = psi._class_rows
    rows = [table.get(key) or table.setdefault(key, _block_classes(*key))
            for key in zip(gaps, eps.signs)]
    ls, etas = zip(*rows) if rows else ((), ())
    # whole as built: l and eta = +-1 of one length from the class rows,
    # status one of the two, size the product of the choice counts
    return [_trusted(ConstituentClass, l=l, eta=eta, status=status,
                     size=math.prod(map(len, eta)))
            for l, eta in zip(itertools.product(*ls),
                              itertools.product(*etas))]


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
