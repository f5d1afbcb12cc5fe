"""Jordan-block parameters: groups, blocks, classification, orders, dominance.

The central object is ArthurParameter: a quasisplit classical group form
together with a multiset of Jordan blocks (rho, a, b) of total dimension
N(group).  Blocks are kept as distinct entries with an explicit
multiplicity field; "instances" expand the multiplicity for operations
that work on Jord(psi_p) with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (BadBlock, BadGroup, DomainError, NotDDR, NotDominating,
                     OddLeftover, OrderViolation, TooLarge, UnresolvedZeta)
from .halfint import HalfInt, hrange
from .labels import (NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC, QuadCharacter,
                     RhoLabel)

SP = "Sp"
SO_ODD = "SOodd"
SO_EVEN = "SOeven"

PLUS = 1
MINUS = -1
_ZETA_CHAR = {PLUS: "+", MINUS: "-", None: "?"}

# Largest sum of the sizes min(a, b) that diagonal_restriction accepts:
# each block spreads into min(a, b) = A - B + 1 blocks, so the output
# grows with the sizes themselves.  No test, golden, selftest or
# benchmark input sums above 23.
MAX_DIAG_SIZE = 10_000


@dataclass(frozen=True)
class GroupForm:
    """A quasisplit symplectic or special orthogonal group.

    Only an even orthogonal group carries a character eta; the others
    store the trivial one whatever they are given.
    """

    kind: str
    n: int
    eta: QuadCharacter = field(default_factory=QuadCharacter.trivial)

    def __post_init__(self):
        if self.kind not in (SP, SO_ODD, SO_EVEN):
            raise BadGroup(f"bad group kind {self.kind!r}")
        if self.n < 0:
            raise BadGroup("rank must be nonnegative")
        if self.kind != SO_EVEN:
            object.__setattr__(self, "eta", QuadCharacter.trivial())

    @staticmethod
    def of_dim(kind: str, N: int, eta: QuadCharacter) -> "GroupForm":
        """The group of this kind whose dual group has dimension N.

        An N of the wrong parity rounds the rank down; a parameter built
        on that group then rejects the mismatch."""
        return GroupForm(kind, (N - 1) // 2 if kind == SP else N // 2, eta)

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


_store = object.__setattr__


def _trusted(cls, **values):
    """A frozen dataclass value with these fields and derived values, made
    without cls's checks, for values valid by construction (each caller
    says why); it is whole before any other code sees it."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


class _Derived:
    """A value derived from an immutable value, stored on it outside its
    fields on first read (or by _trusted), where later reads find it
    before this descriptor.

    This is how every derived value without a key is kept; keyed ones
    are read through the decorator weyl._memo, which stores f(owner,
    *key) in the owner's _cache under (f, *key).  No lock is taken, so a
    race between threads only stores an equal value twice."""

    def __init__(self, derive: Callable):
        self.derive = derive
        self.__doc__ = derive.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.derive(obj)
        _store(obj, self.name, value)
        return value


def _derived_names_shared(cls):
    """Enter the names of the _Derived values of cls in the table of
    attribute names that CPython shares among the instances of a class.

    CPython stops adding names to that table once a few dozen instances
    exist.  An instance that stores a name first seen after that gets a
    dictionary of its own, which slows every later attribute read on it,
    and blocks are classified or flipped long after the first blocks are
    built.  A throwaway instance stores the names before any other
    instance exists."""
    proto = object.__new__(cls)
    for name, attr in vars(cls).items():
        if isinstance(attr, _Derived):
            _store(proto, name, None)
    return cls


@_derived_names_shared
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

    # The block's facts, derived once per block object; they are no
    # fields, so equality, hashing, repr and replace ignore them.
    @_Derived
    def sort_key(self) -> tuple:
        """(rho id, rho dim, self-dual type, a, b, zeta): the order blocks
        sort in, and the key that tells blocks apart up to multiplicity."""
        rho = self.rho
        return (rho.id, rho.dim, rho.self_dual_type, self.a, self.b,
                _ZETA_CHAR[self.zeta])

    @_Derived
    def total_dim(self) -> int:
        """Dimension of all copies, mult*a*b*d_rho."""
        return self.mult * self.a * self.b * self.rho.dim

    @_Derived
    def parity(self) -> Optional[str]:
        """Orthogonal/symplectic type of the block, None when rho is not
        self-dual."""
        rho_type = self.rho.self_dual_type
        if rho_type == NOT_SELF_DUAL:
            return None
        even = (self.a + self.b) % 2 == 0
        return ORTHOGONAL if even == (rho_type == ORTHOGONAL) else SYMPLECTIC

    @_Derived
    def segment(self) -> tuple:
        """(rho id, 2B, 2A) = (rho id, |a - b|, a + b - 2)."""
        return self.rho.id, abs(self.a - self.b), self.a + self.b - 2

    @_Derived
    def alpha(self) -> int:
        """max(a, b), the size alpha of an elementary block."""
        return max(self.a, self.b)

    @_Derived
    def flip_partner(self) -> "JordanBlock":
        """The elementary block (rho, alpha, -delta) that the sign flip
        puts in place of this one."""
        return elementary_block(self.rho, elementary_alpha(self),
                                -self.zeta_resolved())

    def __str__(self) -> str:
        z = _ZETA_CHAR[self.zeta]
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


_sort_key = attrgetter("sort_key")


def _first_clash(blocks: Sequence[JordanBlock]) -> str:
    """The label id of the first block, in the order given, whose label
    differs from that of an earlier block of the same sort key; called
    only when there is one."""
    first: Dict[tuple, RhoLabel] = {}
    for blk in blocks:
        if first.setdefault(blk.sort_key, blk.rho) != blk.rho:
            return blk.rho.id


@_derived_names_shared
@dataclass(frozen=True)
class ArthurParameter:
    """A group form plus a multiset of Jordan blocks of total dimension N."""

    group: GroupForm
    blocks: Tuple[JordanBlock, ...]

    def __post_init__(self):
        # blocks of one key are neighbours once sorted, in the order given
        merged: List[JordanBlock] = []
        last = None
        total = 0
        self_dual = True
        for blk in sorted(self.blocks, key=_sort_key):
            key = blk.sort_key
            if key != last:
                merged.append(blk)
                last = key
            else:
                old = merged[-1]
                if old.rho != blk.rho:
                    raise DomainError(f"label id {_first_clash(self.blocks)!r}"
                                      " used inconsistently")
                merged[-1] = replace(old, mult=old.mult + blk.mult)
            total += blk.total_dim
            self_dual = self_dual and key[2] != NOT_SELF_DUAL  # rho's type
        object.__setattr__(self, "blocks", tuple(merged))
        if total != self.group.N:
            raise DomainError(
                f"blocks sum to {total}, expected N = {self.group.N}")
        if not self_dual:
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

    def instance_count(self) -> int:
        """len(self.instances()), without building them."""
        return sum(blk.mult for blk in self.blocks)

    def with_blocks(self, blocks: Iterable[JordanBlock]) -> "ArthurParameter":
        """A parameter on a group of the same kind and eta, its rank read
        off the blocks' total dimension; equal blocks merge."""
        blocks = tuple(blocks)
        total = sum(blk.total_dim for blk in blocks)
        return ArthurParameter(
            GroupForm.of_dim(self.group.kind, total, self.group.eta), blocks)

    @_Derived
    def _flags(self) -> frozenset:
        """classify(self), built on first use."""
        target = self.group.dual_parity
        tempered = mult_free = pure = elementary = True
        segments = []
        for blk in self.blocks:
            a, b = blk.a, blk.b
            tempered = tempered and b == 1
            mult_free = mult_free and blk.mult == 1
            pure = pure and blk.parity == target
            elementary = elementary and (a == 1 or b == 1)  # A == B
            segments.append(blk.segment)
        flags = set()
        if tempered:
            flags.add("tempered")
        if pure and mult_free and _per_rho_segments_disjoint(segments):
            flags.add("discrete_diag_restriction")
            if elementary:
                flags.add("elementary")
        if tempered and mult_free and pure:
            flags.add("discrete")
        return frozenset(flags)

    @_Derived
    def _gaps(self) -> Tuple[int, ...]:
        """A - B + 1 = min(a, b) per block instance."""
        return tuple(gap for blk in self.blocks
                     for gap in [min(blk.a, blk.b)] * blk.mult)

    def rho_labels(self) -> List[RhoLabel]:
        seen = {}
        for blk in self.blocks:
            seen.setdefault(blk.rho.id, blk.rho)
        return [seen[i] for i in sorted(seen)]

    def resolve_zeta(self, convention: int = PLUS) -> "ArthurParameter":
        """Give every a == b block of unresolved zeta the convention sign."""
        if all(blk.zeta is not None for blk in self.blocks):
            return self
        return ArthurParameter(self.group, tuple(
            blk if blk.zeta is not None else blk.with_zeta(convention)
            for blk in self.blocks))

    def __str__(self) -> str:
        inner = " + ".join(str(b) for b in self.blocks) or "0"
        return f"{self.group}: {inner}"


def make_parameter(blocks: Sequence[JordanBlock],
                   eta: Optional[QuadCharacter] = None) -> ArthurParameter:
    """Infer the group form carried by a family of same-parity blocks."""
    parities = {b.parity for b in blocks}
    if len(parities) != 1 or None in parities:
        raise DomainError("blocks must share a self-dual parity type")
    total = sum(b.total_dim for b in blocks)
    if parities.pop() == ORTHOGONAL:
        kind = SP if total % 2 else SO_EVEN
    elif total % 2:
        raise DomainError("symplectic-type blocks have even total dimension")
    else:
        kind = SO_ODD
    group = GroupForm.of_dim(kind, total, eta or QuadCharacter.trivial())
    return ArthurParameter(group, tuple(blocks))


def is_parity_pure(psi: ArthurParameter) -> bool:
    """True iff psi equals its parity part psi_p."""
    target = psi.group.dual_parity
    return all(b.parity == target for b in psi.blocks)


def diagonal_restriction(psi: ArthurParameter) -> ArthurParameter:
    """Restrict along the diagonal: each block spreads into (rho, 2j+1, 1)
    for j in [B, A]."""
    total = sum(min(blk.a, blk.b) for blk in psi.blocks)  # A - B + 1 each
    if total > MAX_DIAG_SIZE:
        raise TooLarge(f"sizes min(a, b) sum to {total}, above the diagonal "
                       f"bound {MAX_DIAG_SIZE}")
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


def _per_rho_segments_disjoint(segments: List[Tuple[str, int, int]]
                               ) -> bool:
    """Whether the segments (2B, 2A) = (|a - b|, a + b - 2), given as
    (rho id, 2B, 2A) and sorted in place, of each rho are pairwise
    disjoint; called only when every block has multiplicity 1."""
    segments.sort()
    return all(r1 != r2 or b2 > a1
               for (r1, _, a1), (r2, b2, _) in zip(segments, segments[1:]))


def classify(psi: ArthurParameter) -> frozenset:
    """Flags: tempered / discrete_diag_restriction / elementary / discrete.

    Computed once per parameter value and kept on it."""
    return psi._flags


# a builtin generic: typing's subscription cache would keep the class, and
# with it this module, alive after the package is imported again
Instance = tuple[JordanBlock, int]


def _nested(x: JordanBlock, y: JordanBlock) -> bool:
    """True when condition (P) forces x above y."""
    if x.rho.id != y.rho.id or x.zeta is None or y.zeta is None:
        return False
    return (x.zeta == y.zeta and x.A > y.A and x.B > y.B)


@dataclass(frozen=True)
class BlockOrder:
    """An admissible total order on Jord(psi_p) with multiplicity,
    smallest first: condition (P) is checked when the order is built."""

    sequence: Tuple[Instance, ...]

    def __post_init__(self):
        seq = self.sequence
        for i, (x, _) in enumerate(seq):
            for j in range(i):
                y = seq[j][0]
                # y sits below x; (P) is violated when y should dominate x
                if _nested(y, x):
                    raise OrderViolation(f"order puts {y} below nested {x}")

    def positions(self, insts: Sequence[Instance]) -> Tuple[int, ...]:
        """The place of each of insts in the order, which must list each
        of them exactly once."""
        pos = {inst: i for i, inst in enumerate(self.sequence)}
        if len(pos) != len(self.sequence) or pos.keys() != set(insts):
            raise DomainError(
                "order does not enumerate the parameter's blocks")
        return tuple(pos[inst] for inst in insts)


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
    return BlockOrder(tuple(seq))


def _instance_key(inst: Instance):
    return inst[0].sort_key, inst[1]


def min_p_order(psi: ArthurParameter) -> BlockOrder:
    """Lexicographically smallest linear extension of the (P) constraints."""
    return p_order(psi, partial(min, key=_instance_key))


def max_p_order(psi: ArthurParameter) -> BlockOrder:
    """Lexicographically largest linear extension of the (P) constraints."""
    return p_order(psi, partial(max, key=_instance_key))


def p_order(psi: ArthurParameter,
            pick: Callable[[List[Instance]], Instance]) -> BlockOrder:
    """The linear extension of the (P) constraints that takes, at each
    step, pick(ready) from the ready instances in canonical order."""
    remaining = list(psi.instances())
    seq: List[Instance] = []
    while remaining:
        # candidates contain no other remaining block nested under them
        ready = [inst for inst in remaining
                 if not any(_nested(inst[0], other[0])
                            for other in remaining if other != inst)]
        chosen = pick(ready)
        seq.append(chosen)
        remaining.remove(chosen)
    return BlockOrder(tuple(seq))


def dominate(psi: ArthurParameter, order: BlockOrder,
             shifts: Optional[Dict[int, int]] = None,
             ensure_ddr: bool = False
             ) -> Tuple[ArthurParameter, BlockOrder]:
    """Shift blocks (A, B) -> (A+T, B+T) along an admissible order of
    psi's blocks.

    shifts maps order positions to nonnegative integers T.  With
    ensure_ddr the shifts are chosen minimally so the result has discrete
    diagonal restriction and the shifted order is natural per rho.
    """
    order.positions(psi.instances())  # raises unless the order is psi's
    seq = order.sequence
    if ensure_ddr:
        shifts = _minimal_ddr_shifts(seq)
    elif shifts is None:
        shifts = {}

    new_seq: List[JordanBlock] = []
    for pos, (blk, _) in enumerate(seq):
        t = shifts.get(pos, 0)
        if t < 0:
            raise NotDominating("shifts must be nonnegative")
        if t == 0:
            new_seq.append(blk)
            continue
        new_seq.append(from_AB(blk.rho, blk.A + t, blk.B + t,
                               blk.zeta_resolved()))

    psi_gg = psi.with_blocks(new_seq)
    order_gg = BlockOrder(number_copies(new_seq))
    if ensure_ddr and "discrete_diag_restriction" not in classify(psi_gg):
        raise NotDominating("minimal shifts failed to reach DDR")  # pragma: no cover
    return psi_gg, order_gg


def number_copies(blocks: Iterable[JordanBlock]) -> Tuple[Instance, ...]:
    """Number the copies of each block 0, 1, ... in the order given."""
    counts: Dict[tuple, int] = {}
    out = []
    for blk in blocks:
        k = counts.get(blk.sort_key, 0)
        counts[blk.sort_key] = k + 1
        out.append((blk, k))
    return tuple(out)


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


# -- elementary view ---------------------------------------------------------

def is_elementary(psi: ArthurParameter) -> bool:
    return "elementary" in psi._flags


def elementary_alpha(blk: JordanBlock) -> int:
    """alpha = max(a, b) for a block with min(a, b) == 1."""
    if min(blk.a, blk.b) != 1:
        raise DomainError(f"block {blk} is not elementary")
    return max(blk.a, blk.b)


def elementary_block(rho: RhoLabel, alpha: int, delta: int) -> JordanBlock:
    if delta == PLUS:
        return JordanBlock(rho, alpha, 1, 1, PLUS)
    return JordanBlock(rho, 1, alpha, 1, MINUS)
