"""Jordan-block parameters: groups, blocks, classification, orders, dominance.

The central object is ArthurParameter: a quasisplit classical group form
together with a multiset of Jordan blocks (rho, a, b) of total dimension
N(group).  Blocks are kept as distinct entries with an explicit
multiplicity field; "instances" expand the multiplicity for operations
that work on Jord(psi_p) with multiplicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (BadBlock, BadGroup, DomainError, NotDDR, NotDominating,
                     OddLeftover, OrderViolation, UnresolvedZeta)
from .halfint import HalfInt, hrange
from .labels import (NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC, QuadCharacter,
                     RhoLabel)

SP = "Sp"
SO_ODD = "SOodd"
SO_EVEN = "SOeven"

PLUS = 1
MINUS = -1


@dataclass(frozen=True)
class GroupForm:
    """A quasisplit symplectic or special orthogonal group."""

    kind: str
    n: int
    eta: QuadCharacter = field(default_factory=QuadCharacter.trivial)

    def __post_init__(self):
        if self.kind not in (SP, SO_ODD, SO_EVEN):
            raise BadGroup(f"bad group kind {self.kind!r}")
        if self.n < 0:
            raise BadGroup("rank must be nonnegative")

    @property
    def N(self) -> int:
        """Dimension of the standard representation of the dual group."""
        return 2 * self.n + 1 if self.kind == SP else 2 * self.n

    @property
    def dual_parity(self) -> str:
        """Parity of the dual group: orthogonal except for odd orthogonal."""
        return SYMPLECTIC if self.kind == SO_ODD else ORTHOGONAL

    def __str__(self) -> str:
        if self.kind == SP:
            return f"Sp({2 * self.n})"
        if self.kind == SO_ODD:
            return f"SO({2 * self.n + 1})"
        return f"SO({2 * self.n},{self.eta})"


@dataclass(frozen=True)
class JordanBlock:
    """A Jordan block rho (x) nu_a (x) nu_b with multiplicity.

    zeta is sign(a-b) when a != b; for a == b it may stay None until a
    zeta-sensitive operation forces a convention.
    """

    rho: RhoLabel
    a: int
    b: int
    mult: int = 1
    zeta: Optional[int] = None

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.mult < 1:
            raise BadBlock("a, b, mult must be positive")
        if self.a != self.b:
            forced = PLUS if self.a > self.b else MINUS
            if self.zeta is None:
                object.__setattr__(self, "zeta", forced)
            elif self.zeta != forced:
                raise BadBlock("zeta must equal sign(a-b) when a != b")
        elif self.zeta not in (None, PLUS, MINUS):
            raise BadBlock("zeta must be +1, -1 or None")

    @property
    def A(self) -> HalfInt:
        return HalfInt(self.a + self.b - 2)

    @property
    def B(self) -> HalfInt:
        return HalfInt(abs(self.a - self.b))

    @property
    def dim(self) -> int:
        """Dimension of one copy, a*b*d_rho."""
        return self.a * self.b * self.rho.dim

    def zeta_resolved(self) -> int:
        if self.zeta is None:
            raise UnresolvedZeta(f"block {self} has unresolved zeta")
        return self.zeta

    def with_zeta(self, zeta: int) -> "JordanBlock":
        if self.a != self.b and zeta != self.zeta:
            raise BadBlock("cannot override zeta of an unbalanced block")
        return replace(self, zeta=zeta)

    def segment(self) -> Tuple[HalfInt, HalfInt]:
        """The support segment [B, A] of the diagonal restriction."""
        return (self.B, self.A)

    def key(self):
        z = {PLUS: "+", MINUS: "-", None: "?"}[self.zeta]
        return (self.rho.sort_key(), self.a, self.b, z)

    def __str__(self) -> str:
        z = {PLUS: "+", MINUS: "-", None: "?"}[self.zeta]
        m = f" x{self.mult}" if self.mult > 1 else ""
        return f"({self.rho.id},{self.a},{self.b},{z}){m}"


def from_AB(rho: RhoLabel, A: HalfInt, B: HalfInt, zeta: int,
            mult: int = 1) -> JordanBlock:
    """Build a block from (A, B, zeta) coordinates: a-b = 2*zeta*B."""
    a = (A + B).twice // 2 + 1
    b = (A - B).twice // 2 + 1
    if zeta == MINUS:
        a, b = b, a
    return JordanBlock(rho, a, b, mult, zeta if a == b else None)


def block_parity(block: JordanBlock) -> Optional[str]:
    """Orthogonal/symplectic type of a block, None when rho is not self-dual."""
    if not block.rho.is_self_dual():
        return None
    even = (block.a + block.b) % 2 == 0
    if block.rho.self_dual_type == ORTHOGONAL:
        return ORTHOGONAL if even else SYMPLECTIC
    return ORTHOGONAL if not even else SYMPLECTIC


@dataclass(frozen=True)
class ArthurParameter:
    """A group form plus a multiset of Jordan blocks of total dimension N."""

    group: GroupForm
    blocks: Tuple[JordanBlock, ...]

    def __post_init__(self):
        merged: Dict[tuple, JordanBlock] = {}
        for blk in self.blocks:
            key = blk.key()
            if key in merged:
                old = merged[key]
                if old.rho != blk.rho:
                    raise DomainError(
                        f"label id {blk.rho.id!r} used inconsistently")
                merged[key] = replace(old, mult=old.mult + blk.mult)
            else:
                merged[key] = blk
        object.__setattr__(self, "blocks",
                           tuple(sorted(merged.values(),
                                        key=JordanBlock.key)))
        total = sum(blk.mult * blk.dim for blk in self.blocks)
        if total != self.group.N:
            raise DomainError(
                f"blocks sum to {total}, expected N = {self.group.N}")
        self._check_dual_pairs()

    def _check_dual_pairs(self):
        counts: Dict[tuple, int] = {}
        for blk in self.blocks:
            if not blk.rho.is_self_dual():
                counts[(blk.rho.id, blk.a, blk.b)] = blk.mult
        for (rid, a, b), mult in counts.items():
            dual_id = RhoLabel(rid, 1, NOT_SELF_DUAL).dual().id
            if counts.get((dual_id, a, b)) != mult:
                raise OddLeftover(
                    f"non-self-dual block ({rid},{a},{b}) lacks a dual partner")

    def instances(self) -> Tuple[Tuple[JordanBlock, int], ...]:
        """Jord(psi) with multiplicity: (block, copy index) pairs."""
        out = []
        for blk in self.blocks:
            for k in range(blk.mult):
                out.append((replace(blk, mult=1), k))
        return tuple(out)

    def classes(self) -> Tuple[JordanBlock, ...]:
        """Jord(psi) without multiplicity (mult field kept for reference)."""
        return self.blocks

    def rho_labels(self) -> List[RhoLabel]:
        seen = {}
        for blk in self.blocks:
            seen.setdefault(blk.rho.id, blk.rho)
        return [seen[i] for i in sorted(seen)]

    def resolve_zeta(self, convention: int = PLUS,
                     overrides: Optional[Dict[tuple, int]] = None
                     ) -> "ArthurParameter":
        """Resolve zeta on all a == b blocks.

        overrides maps (rho id, a, b) to a sign; everything else gets the
        global convention sign.
        """
        new = []
        for blk in self.blocks:
            if blk.zeta is None:
                z = convention
                if overrides:
                    z = overrides.get((blk.rho.id, blk.a, blk.b), convention)
                blk = blk.with_zeta(z)
            new.append(blk)
        return ArthurParameter(self.group, tuple(new))

    def __str__(self) -> str:
        inner = " + ".join(str(b) for b in self.blocks) or "0"
        return f"{self.group}: {inner}"


def make_parameter(blocks: Sequence[JordanBlock],
                   eta: Optional[QuadCharacter] = None) -> ArthurParameter:
    """Infer the group form carried by a family of same-parity blocks."""
    parities = {block_parity(b) for b in blocks}
    if len(parities) != 1 or None in parities:
        raise DomainError("blocks must share a self-dual parity type")
    total = sum(b.mult * b.dim for b in blocks)
    parity = parities.pop()
    if parity == ORTHOGONAL:
        if total % 2 == 1:
            group = GroupForm(SP, (total - 1) // 2)
        else:
            group = GroupForm(SO_EVEN, total // 2,
                              eta or QuadCharacter.trivial())
    else:
        if total % 2 == 1:
            raise DomainError("symplectic-type blocks have even total dimension")
        group = GroupForm(SO_ODD, total // 2)
    return ArthurParameter(group, tuple(blocks))


def split_p_np(psi: ArthurParameter
               ) -> Tuple[ArthurParameter, Tuple[JordanBlock, ...]]:
    """Split psi = psi_np + psi_p + psi_np^dual.

    psi_p keeps the blocks whose parity matches the dual group; the rest
    must pair off under duality (a self-dual block of the wrong parity is
    its own partner and needs even multiplicity).
    """
    target = psi.group.dual_parity
    p_blocks, rest = [], []
    for blk in psi.blocks:
        if block_parity(blk) == target:
            p_blocks.append(blk)
        else:
            rest.append(blk)

    np_half: List[JordanBlock] = []
    pool: Dict[tuple, JordanBlock] = {(b.rho.id, b.a, b.b): b for b in rest}
    for key in sorted(pool):
        blk = pool[key]
        if blk.rho.is_self_dual():
            if blk.mult % 2 != 0:
                raise OddLeftover(f"self-dual block {blk} of odd multiplicity "
                                  "outside the parity part")
            np_half.append(replace(blk, mult=blk.mult // 2))
        else:
            dual_key = (blk.rho.dual().id, blk.a, blk.b)
            if dual_key not in pool:
                raise OddLeftover(f"block {blk} has no dual partner")
            if key < dual_key:
                np_half.append(blk)

    n_p = sum(b.mult * b.dim for b in p_blocks)
    if psi.group.kind == SP:
        group_p = GroupForm(SP, (n_p - 1) // 2)
    else:
        group_p = GroupForm(psi.group.kind, n_p // 2, psi.group.eta)
    return ArthurParameter(group_p, tuple(p_blocks)), tuple(np_half)


def is_parity_pure(psi: ArthurParameter) -> bool:
    """True iff psi equals its parity part psi_p."""
    target = psi.group.dual_parity
    return all(block_parity(b) == target for b in psi.blocks)


def diagonal_restriction(psi: ArthurParameter) -> ArthurParameter:
    """Restrict along the diagonal: each block spreads into (rho, 2j+1, 1)
    for j in [B, A]."""
    merged: Dict[tuple, JordanBlock] = {}
    for blk in psi.blocks:
        for j in hrange(blk.B, blk.A):
            a = j.twice + 1
            key = (blk.rho.id, a)
            if key in merged:
                merged[key] = replace(merged[key],
                                      mult=merged[key].mult + blk.mult)
            else:
                merged[key] = JordanBlock(blk.rho, a, 1, blk.mult)
    return ArthurParameter(psi.group, tuple(merged.values()))


def _per_rho_segments_disjoint(psi: ArthurParameter) -> bool:
    by_rho: Dict[str, List[Tuple[HalfInt, HalfInt]]] = {}
    for blk, _ in psi.instances():
        by_rho.setdefault(blk.rho.id, []).append(blk.segment())
    for segs in by_rho.values():
        segs.sort(key=lambda s: (s[0].twice, s[1].twice))
        for (b1, a1), (b2, a2) in zip(segs, segs[1:]):
            if b2.twice <= a1.twice:
                return False
    return True


def classify(psi: ArthurParameter) -> frozenset:
    """Flags: tempered / discrete_diag_restriction / elementary / discrete."""
    flags = set()
    tempered = all(b.b == 1 for b in psi.blocks)
    if tempered:
        flags.add("tempered")
    mult_free = all(b.mult == 1 for b in psi.blocks)
    pure = is_parity_pure(psi)
    if pure and mult_free and _per_rho_segments_disjoint(psi):
        flags.add("discrete_diag_restriction")
        if all(b.A == b.B for b in psi.blocks):
            flags.add("elementary")
    if tempered and mult_free and pure:
        flags.add("discrete")
    return frozenset(flags)


# a builtin generic: typing's subscription cache would keep the class, and
# with it this module, alive after the package is imported again
Instance = tuple[JordanBlock, int]


@dataclass(frozen=True)
class BlockOrder:
    """A total order on Jord(psi_p) with multiplicity, smallest first."""

    sequence: Tuple[Instance, ...]


def _nested(x: JordanBlock, y: JordanBlock) -> bool:
    """True when condition (P) forces x above y."""
    if x.rho.id != y.rho.id or x.zeta is None or y.zeta is None:
        return False
    return (x.zeta == y.zeta and x.A > y.A and x.B > y.B)


def check_condition_p(order: BlockOrder) -> None:
    seq = order.sequence
    for i, (x, _) in enumerate(seq):
        for j in range(i):
            y = seq[j][0]
            # y sits below x; (P) is violated when y should dominate x
            if _nested(y, x):
                raise OrderViolation(f"order puts {y} below nested {x}")


def satisfies_condition_p(order: BlockOrder) -> bool:
    try:
        check_condition_p(order)
        return True
    except OrderViolation:
        return False


def natural_order(psi: ArthurParameter) -> BlockOrder:
    """The natural order of a DDR parameter: per rho ascending in A.

    Cross-rho positions are fixed lexicographically on (rho id, A, B, zeta)
    so the output is reproducible.
    """
    if "discrete_diag_restriction" not in classify(psi):
        raise NotDDR("natural order requires discrete diagonal restriction")
    seq = sorted(psi.instances(),
                 key=lambda inst: (inst[0].rho.id, inst[0].A.twice,
                                   inst[0].B.twice, inst[0].zeta or 0))
    order = BlockOrder(tuple(seq))
    check_condition_p(order)
    return order


def min_p_order(psi: ArthurParameter) -> BlockOrder:
    """Lexicographically smallest linear extension of the (P) constraints."""
    return _extreme_p_order(psi, smallest=True)


def max_p_order(psi: ArthurParameter) -> BlockOrder:
    """Lexicographically largest linear extension of the (P) constraints."""
    return _extreme_p_order(psi, smallest=False)


def _extreme_p_order(psi: ArthurParameter, smallest: bool) -> BlockOrder:
    remaining = list(psi.instances())
    seq: List[Instance] = []
    while remaining:
        # candidates contain no other remaining block nested under them
        ready = [inst for inst in remaining
                 if not any(_nested(inst[0], other[0])
                            for other in remaining if other != inst)]
        ready.sort(key=lambda inst: (inst[0].key(), inst[1]),
                   reverse=not smallest)
        pick = ready[0]
        seq.append(pick)
        remaining.remove(pick)
    order = BlockOrder(tuple(seq))
    check_condition_p(order)
    return order


def dominate(psi: ArthurParameter, order: BlockOrder,
             shifts: Optional[Dict[int, int]] = None,
             ensure_ddr: bool = False
             ) -> Tuple[ArthurParameter, BlockOrder]:
    """Shift blocks (A, B) -> (A+T, B+T) along an admissible order.

    shifts maps order positions to nonnegative integers T.  With
    ensure_ddr the shifts are chosen minimally so the result has discrete
    diagonal restriction and the shifted order is natural per rho.
    """
    check_condition_p(order)
    seq = order.sequence
    if ensure_ddr:
        shifts = _minimal_ddr_shifts(seq)
    elif shifts is None:
        shifts = {}

    new_seq: List[Instance] = []
    for pos, (blk, copy) in enumerate(seq):
        t = shifts.get(pos, 0)
        if t < 0:
            raise NotDominating("shifts must be nonnegative")
        if t == 0:
            new_seq.append((blk, copy))
            continue
        zeta = blk.zeta_resolved() if blk.a == blk.b else blk.zeta
        shifted = from_AB(blk.rho, blk.A + t, blk.B + t, zeta)
        new_seq.append((shifted, copy))

    counts: Dict[tuple, int] = {}
    blocks: Dict[tuple, JordanBlock] = {}
    reindexed: List[Instance] = []
    for blk, _ in new_seq:
        key = blk.key()
        k = counts.get(key, 0)
        counts[key] = k + 1
        blocks[key] = blk
        reindexed.append((blk, k))
    total = sum(blk.dim * counts[key] for key, blk in blocks.items())
    if psi.group.kind == SP:
        group = GroupForm(SP, (total - 1) // 2)
    else:
        group = GroupForm(psi.group.kind, total // 2, psi.group.eta)
    psi_gg = ArthurParameter(
        group,
        tuple(replace(blk, mult=counts[key]) for key, blk in blocks.items()))
    order_gg = BlockOrder(tuple(reindexed))
    check_condition_p(order_gg)
    if ensure_ddr and "discrete_diag_restriction" not in classify(psi_gg):
        raise NotDominating("minimal shifts failed to reach DDR")  # pragma: no cover
    return psi_gg, order_gg


def _minimal_ddr_shifts(seq: Sequence[Instance]) -> Dict[int, int]:
    used_top: Dict[str, HalfInt] = {}
    shifts: Dict[int, int] = {}
    for pos, (blk, _) in enumerate(seq):
        rid = blk.rho.id
        t = 0
        if rid in used_top:
            gap = used_top[rid].twice + 2 - blk.B.twice
            t = max(0, (gap + 1) // 2)
        shifts[pos] = t
        used_top[rid] = blk.A + t
    return shifts


def phi_psi(psi: ArthurParameter) -> Tuple[Tuple[RhoLabel, HalfInt, int, int], ...]:
    """The nontempered Langlands-parameter expansion.

    Each block splits into b twisted pieces (rho, (b-1)/2 - j, a) for
    j = 0..b-1, carried with the block multiplicity.
    """
    out = []
    for blk in psi.blocks:
        for j in range(blk.b):
            twist = HalfInt(blk.b - 1 - 2 * j)
            out.append((blk.rho, twist, blk.a, blk.mult))
    return tuple(sorted(out, key=lambda t: (t[0].sort_key(), t[1].twice, t[2])))


# -- elementary view ---------------------------------------------------------

def is_elementary(psi: ArthurParameter) -> bool:
    return "elementary" in classify(psi)


def elementary_alpha(blk: JordanBlock) -> int:
    """alpha = max(a, b) for a block with min(a, b) == 1."""
    if min(blk.a, blk.b) != 1:
        raise DomainError(f"block {blk} is not elementary")
    return max(blk.a, blk.b)


def elementary_delta(blk: JordanBlock) -> int:
    """delta = zeta seen through the (rho, alpha, delta) dictionary."""
    return blk.zeta_resolved()


def elementary_jord_rho(psi: ArthurParameter, rho: RhoLabel) -> Dict[int, int]:
    """alpha -> delta for the rho-blocks of an elementary parameter."""
    out = {}
    for blk in psi.blocks:
        if blk.rho.id == rho.id:
            out[elementary_alpha(blk)] = elementary_delta(blk)
    return out


def elementary_block(rho: RhoLabel, alpha: int, delta: int) -> JordanBlock:
    if delta == PLUS:
        return JordanBlock(rho, alpha, 1, 1, PLUS)
    return JordanBlock(rho, 1, alpha, 1, MINUS)


def all_p_orders(psi: ArthurParameter, cap: int = 5040) -> List[BlockOrder]:
    """Every admissible order (small inputs only)."""
    insts = list(psi.instances())
    if len(insts) > 7:
        raise DomainError("too many blocks for exhaustive order enumeration")
    out = []
    for perm in itertools.permutations(insts):
        order = BlockOrder(tuple(perm))
        if satisfies_condition_p(order):
            out.append(order)
        if len(out) > cap:
            raise DomainError("order enumeration exceeded cap")
    return out
