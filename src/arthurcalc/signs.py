"""Normalization-comparison sign characters on Jordan blocks.

Implements the pair sets Z_MW/W and Z(psi), the characters eps^{MW/W},
eps^{M/MW} (in its elementary, DDR and general forms) and eps^{M/W},
plus the sign-flip involution on elementary parameters and its
bookkeeping signs.

Every BlockOrder already satisfies condition (P), which is checked when
the order is built.  The order-dependent functions read each instance's
place off BlockOrder.positions, which refuses an order that does not
list the parameter's instances exactly once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .charspace import MULT, SignVector
from .errors import DomainError, MixedParity, NotDDR, NotElementary
from .halfint import sign_pow
from .labels import RhoLabel
from .params import (MINUS, PLUS, ArthurParameter, BlockOrder, Instance,
                     JordanBlock, _sort_key, _trusted, classify,
                     is_elementary, is_parity_pure)


@dataclass(frozen=True)
class PairSet:
    """Unordered pairs of positions into Jord(psi_p) with multiplicity."""

    size: int
    pairs: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < j < self.size):
                raise ValueError(f"bad pair ({i},{j}) for size {self.size}")

    def touching(self, i: int) -> int:
        return sum(1 for p in self.pairs if i in p)

    def __len__(self) -> int:
        return len(self.pairs)


def _pair_in_z_mw_w(x: JordanBlock, y: JordanBlock, x_above_y: bool) -> bool:
    """Case analysis for one unordered pair, x in the even-b role.

    x_above_y means x >_psi y.  There are two parity patterns; within
    each, the (zeta_x, zeta_y) cells are spelled out one by one so that
    every cell of the definition is visibly covered.
    """
    a, b, a2, b2 = x.a, x.b, y.a, y.b
    zx, zy = x.zeta_resolved(), y.zeta_resolved()

    if a % 2 == 0 and b % 2 == 0 and a2 % 2 == 1 and b2 % 2 == 1:
        # pattern one: x fully even against y fully odd
        if zx == MINUS and zy == MINUS:
            return x_above_y and a > a2
        if zx == MINUS and zy == PLUS:
            return a > a2
        if zx == PLUS and zy == PLUS:
            return (a2 > a and b > b2) if x_above_y else (a > a2 and b > b2)
        if zx == PLUS and zy == MINUS:
            return False
        raise AssertionError("unreachable zeta cell")  # pragma: no cover

    if a % 2 == 1 and b % 2 == 0 and a2 % 2 == 0 and b2 % 2 == 1:
        # pattern two: x with odd a, even b against y with even a, odd b
        if zx == MINUS and zy == MINUS:
            return x_above_y and a < a2
        if zx == MINUS and zy == PLUS:
            return (a < a2) if x_above_y else (a > a2)
        if zx == PLUS and zy == PLUS:
            return (a < a2 and b > b2) if x_above_y else (a > a2 and b > b2)
        if zx == PLUS and zy == MINUS:
            return False
        raise AssertionError("unreachable zeta cell")  # pragma: no cover

    return False


def _role_split(p: JordanBlock, q: JordanBlock
                ) -> Optional[Tuple[JordanBlock, JordanBlock, bool]]:
    """Orient an unordered pair into (even-b role, odd-b role, swapped)."""
    def first_role(blk):
        return blk.b % 2 == 0
    if first_role(p) and not first_role(q):
        return p, q, False
    if first_role(q) and not first_role(p):
        return q, p, True
    return None


def z_mw_w(psi_p: ArthurParameter, order: BlockOrder) -> PairSet:
    """The unordered pair set controlling the two twisted normalizations."""
    if not is_parity_pure(psi_p):
        raise DomainError("pair sets are computed on the parity part")
    insts = psi_p.instances()
    pos = order.positions(insts)
    pairs = set()
    for i in range(len(insts)):
        for j in range(i + 1, len(insts)):
            p, q = insts[i][0], insts[j][0]
            if p.rho.id != q.rho.id:
                continue
            if (p.a + p.b) % 2 != (q.a + q.b) % 2:
                # same label forces one parity across the parity part
                raise DomainError(
                    f"blocks {p} and {q} mix parities")  # pragma: no cover
            split = _role_split(p, q)
            if split is None:
                continue
            x, y, swapped = split
            xp, yp = (pos[j], pos[i]) if swapped else (pos[i], pos[j])
            if _pair_in_z_mw_w(x, y, xp > yp):
                pairs.add((i, j))
    return PairSet(len(insts), frozenset(pairs))


def eps_mw_w(psi_p: ArthurParameter, order: BlockOrder) -> SignVector:
    """Per-block parity of the pair count; always a character."""
    return eps_of_pairs(z_mw_w(psi_p, order))


def eps_of_pairs(zs: PairSet) -> SignVector:
    """eps^{MW/W} read off its pair set Z_MW/W."""
    return SignVector(MULT, tuple(sign_pow(zs.touching(i))
                                  for i in range(zs.size)))


def theta_ratio_mw_w(psi: ArthurParameter, order: BlockOrder) -> int:
    """(-1)**|Z_MW/W|, the ratio of the two normalized twisted actions,
    for a parameter that is its own parity part."""
    return sign_pow(len(z_mw_w(psi, order)))


# -- the Moeglin vs Moeglin-Waldspurger comparison character -----------------


def _eps_m_mw_at(blk: JordanBlock, others: List[Tuple[JordanBlock, bool, bool]]
                 ) -> int:
    """Value at one block; others carry (block, above, below) order data."""
    if (blk.a + blk.b) % 2 == 1:
        return 1
    if blk.a % 2 == 0:
        return 1
    # zeta is only demanded where it enters: at the block itself and on
    # the odd blocks strictly above it
    m = sum(1 for o, above, _ in others
            if o.a % 2 == 1 and o.b % 2 == 1 and above
            and o.zeta_resolved() == MINUS)
    n = sum(1 for o, _, below in others
            if o.a % 2 == 1 and o.b % 2 == 1 and below)
    return sign_pow(m) if blk.zeta_resolved() == PLUS else sign_pow(m + n)


def _eps_m_mw_by_height(insts: Sequence[Instance],
                        heights: Sequence[int]) -> SignVector:
    """eps^{M/MW} with "above" and "below" read off the instances'
    heights, compared among the blocks of the same rho."""
    values = []
    for idx, ((blk, _), h) in enumerate(zip(insts, heights)):
        others = []
        for jdx, ((oblk, _), oh) in enumerate(zip(insts, heights)):
            if jdx == idx or oblk.rho.id != blk.rho.id:
                continue
            others.append((oblk, oh > h, oh < h))
        values.append(_eps_m_mw_at(blk, others))
    return SignVector(MULT, tuple(values))


def eps_m_mw_general(psi: ArthurParameter, order: BlockOrder) -> SignVector:
    """General form: order-dependent counts on the same-rho odd blocks."""
    if not is_parity_pure(psi):
        raise DomainError("the comparison character lives on the parity part")
    insts = psi.instances()
    return _eps_m_mw_by_height(insts, order.positions(insts))


def eps_m_mw_ddr(psi: ArthurParameter) -> SignVector:
    """DDR form: the order data is replaced by |a - b| comparisons."""
    if "discrete_diag_restriction" not in classify(psi):
        raise NotDDR("the DDR form needs discrete diagonal restriction")
    insts = psi.instances()
    return _eps_m_mw_by_height(insts, tuple(abs(blk.a - blk.b)
                                            for blk, _ in insts))


def eps_m_mw_elementary(psi: ArthurParameter) -> SignVector:
    """Elementary form in the (rho, alpha, delta) dictionary."""
    if not is_elementary(psi):
        raise NotElementary("elementary form needs an elementary parameter")
    labels = psi._labels
    values = []
    # multiplicity one and distinct sizes per rho: the blocks are the
    # instances, and the other blocks of rho those of the other sizes
    for blk in psi.blocks:
        alpha = blk.alpha
        if alpha % 2 == 0:
            values.append(1)
            continue
        _, alphas, zetas = labels[blk.rho.id]
        n = bisect_left(alphas, alpha)
        m = zetas[n + 1:].count(MINUS)
        values.append(sign_pow(m if blk.zeta_resolved() == PLUS else m + n))
    return SignVector(MULT, tuple(values))


def eps_m_w(psi: ArthurParameter, order: BlockOrder) -> SignVector:
    """Pointwise product of the two comparison characters."""
    return eps_m_mw_general(psi, order).pointwise(eps_mw_w(psi, order))


# -- sign-flip involution on elementary parameters ---------------------------

# classify of an elementary parameter, which is discrete when tempered
_ELEMENTARY = frozenset({"discrete_diag_restriction", "elementary"})
_ELEMENTARY_TEMPERED = _ELEMENTARY | {"tempered", "discrete"}


def aubert_flip(psi: ArthurParameter, rho: RhoLabel, x0: int,
                strict: bool = True) -> ArthurParameter:
    """Flip delta on the rho-blocks with alpha < x0 (or <= x0)."""
    if "elementary" not in psi._flags:
        raise NotElementary("the flip is defined on elementary parameters")
    rid = rho.id
    top = x0 if strict else x0 + 1
    blocks, tempered = [], True
    for blk in psi.blocks:
        if blk.alpha < top and blk.rho.id == rid:
            blk = blk.flip_partner
        tempered = tempered and blk.b == 1
        blocks.append(blk)
    blocks.sort(key=_sort_key)
    # flip partners keep rho, parity, dim and segment: elementary, no merges
    return _trusted(ArthurParameter, group=psi.group, blocks=tuple(blocks),
                    _flags=_ELEMENTARY_TEMPERED if tempered else _ELEMENTARY)


def beta_sign(psi: ArthurParameter, rho: RhoLabel, x0: int) -> int:
    """The sign relating the flipped normalized action to its target."""
    if not is_elementary(psi):
        raise NotElementary("beta is defined on elementary parameters")
    _, alphas, _ = psi._labels.get(rho.id, (rho, (), ()))
    if any((alpha - alphas[0]) % 2 for alpha in alphas):
        raise MixedParity(f"rho {rho.id} mixes odd and even sizes")
    below = alphas[:bisect_left(alphas, x0)]
    if below and below[0] % 2:
        k = len(below)
        return sign_pow(k * (k - 1) // 2
                        + sum((alpha - 1) // 2 for alpha in below))
    return sign_pow(sum(alpha // 2 for alpha in below))


def s_ratio(psi: ArthurParameter, x0: int,
            rho: Optional[RhoLabel] = None) -> SignVector:
    """The vector s_psi * s_{psi-flipped}: -1 on even alpha below x0.

    With rho given only that label's blocks flip; with rho None the flip
    is applied for every label.
    """
    if not is_elementary(psi):
        raise NotElementary("the ratio is defined on elementary parameters")

    def sign(blk):
        if rho is not None and blk.rho.id != rho.id:
            return 1
        return -1 if blk.alpha < x0 and blk.alpha % 2 == 0 else 1

    # an elementary parameter has multiplicity one: its blocks are its
    # instances
    return SignVector(MULT, tuple(map(sign, psi.blocks)))
