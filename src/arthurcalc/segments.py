"""Segments, generalized segments, and the cuspidal-support calculus.

Segments are arithmetic progressions of half-integers of step one;
generalized segments are matrices whose rows and columns are segments of
opposite senses.  On top of these live the parameter-level vanishing
certificates for Jacquet operators and the parabolic-reduction chain for
tempered discrete pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Container, Dict, List, Optional, Tuple

from .charspace import CLASS, SignVector
from .errors import (DomainError, NotACharacter, NotDiscrete, NotDominating,
                     UnresolvedZeta)
from .halfint import HalfInt, hrange
from .labels import RhoLabel
from .params import ArthurParameter, JordanBlock, classify


@dataclass(frozen=True)
class Segment:
    """The ordered exponent progression <x, ..., y> twisted by rho."""

    rho: RhoLabel
    x: HalfInt
    y: HalfInt

    def __post_init__(self):
        if (self.x.twice - self.y.twice) % 2 != 0:
            raise DomainError("segment endpoints must differ by an integer")

    @property
    def length(self) -> int:
        return abs(self.x.twice - self.y.twice) // 2 + 1

    def exponents(self) -> Tuple[HalfInt, ...]:
        step = -1 if self.x.twice > self.y.twice else 1
        return tuple(HalfInt(t) for t in
                     range(self.x.twice, self.y.twice + 2 * step, 2 * step))

    def __str__(self) -> str:
        return f"<{self.rho.id};{self.x},...,{self.y}>"


@dataclass(frozen=True)
class GeneralizedSegment:
    """A matrix of half-integers with monotone rows and columns.

    Rows move by a common step r in {+1,-1} and columns by -r, so that
    adjacent rows differ entrywise by exactly one.
    """

    rho: RhoLabel
    entries: Tuple[Tuple[HalfInt, ...], ...]

    def __post_init__(self):
        rows = self.entries
        if not rows or not rows[0]:
            raise DomainError("generalized segment must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("ragged matrix")
        self._check_monotone()

    def _check_monotone(self):
        rows = self.entries
        steps = set()
        for r in rows:
            for u, v in zip(r, r[1:]):
                steps.add(v.twice - u.twice)
        for c in range(len(rows[0])):
            for u, v in zip(rows, rows[1:]):
                steps.add(-(v[c].twice - u[c].twice))
        if not steps <= {2} and not steps <= {-2}:
            raise DomainError("rows and columns must be opposite unit steps")

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    def transpose(self) -> "GeneralizedSegment":
        m, n = self.shape
        return GeneralizedSegment(
            self.rho,
            tuple(tuple(self.entries[i][j] for i in range(m))
                  for j in range(n)))

    def rows(self) -> Tuple[Segment, ...]:
        return tuple(Segment(self.rho, r[0], r[-1]) for r in self.entries)

    def __str__(self) -> str:
        body = "; ".join(",".join(str(x) for x in r) for r in self.entries)
        return f"[{self.rho.id}; {body}]"


def speh_matrix(rho: RhoLabel, a: int, b: int) -> GeneralizedSegment:
    """The b x a exponent matrix of the unitary degenerate representation
    attached to (rho, a, b)."""
    if a < 1 or b < 1:
        raise DomainError("a and b must be positive")
    rows = []
    for i in range(b):
        start = HalfInt(a - b + 2 * i)  # (a-b)/2 + i
        rows.append(tuple(start - j for j in range(a)))
    return GeneralizedSegment(rho, tuple(rows))


def shift_matrix(big: JordanBlock, small: JordanBlock) -> GeneralizedSegment:
    """Exponent matrix peeling a dominating block down to its base.

    Rows run from zeta*B_big back to zeta*(B+1), one row per level of the
    segment [B, A]; requires a genuine shift.
    """
    if big.rho.id != small.rho.id:
        raise NotDominating("blocks must share rho")
    zeta_b = big.zeta if big.a != big.b else big.zeta_resolved()
    zeta_s = small.zeta if small.a != small.b else small.zeta_resolved()
    if zeta_b is None or zeta_s is None:
        raise UnresolvedZeta("shift matrices need resolved zeta")
    if zeta_b != zeta_s:
        raise NotDominating("blocks must share zeta")
    t = (big.B - small.B).twice // 2
    if (big.A - small.A) != (big.B - small.B) or t < 1:
        raise NotDominating(f"{big} does not strictly dominate {small}")
    zeta = zeta_b
    rows = []
    for j in hrange(small.B, small.A):
        big_end = j + t
        rows.append(tuple((big_end - k) * zeta for k in range(t)))
    return GeneralizedSegment(big.rho, tuple(rows))


# -- Jacquet vanishing certificates ------------------------------------------

def jac_chain_possible(psi: ArthurParameter, rho: RhoLabel, zeta: int,
                       x: HalfInt, y: HalfInt) -> bool:
    """Existence of a block chain supporting Jac over [zeta*x ... zeta*y].

    False certifies that the corresponding Jacquet restriction vanishes
    on every packet member.  Chains start at a block with B = x, may pass
    to blocks with B_next in [B, A+1], and must reach A >= y.
    """
    if x.twice < 0 or x.twice > y.twice or (y - x).twice % 2 != 0:
        raise DomainError("need 0 <= x <= y with integer gap")
    cands = []
    for blk, _ in psi.instances():
        if blk.rho.id != rho.id:
            continue
        if blk.zeta is None:
            raise UnresolvedZeta(f"{blk} needs zeta for the chain search")
        if blk.zeta == zeta:
            cands.append((blk.B, blk.A))
    reach = [B == x for (B, A) in cands]
    changed = True
    while changed:
        changed = False
        for i, (Bi, Ai) in enumerate(cands):
            if reach[i]:
                continue
            for j, (Bj, Aj) in enumerate(cands):
                if i != j and reach[j] and Bj <= Bi <= Aj + 1:
                    reach[i] = True
                    changed = True
                    break
    return any(r and A >= y for r, (_, A) in zip(reach, cands))


def jac_multiplicity_bound(psi: ArthurParameter, rho: RhoLabel,
                           x: HalfInt, n: int) -> bool:
    """True when applying Jac at exponent x more than the available block
    count forces vanishing."""
    if n < 1:
        raise DomainError("n must be positive")
    m = 0
    for blk, _ in psi.instances():
        if blk.rho.id != rho.id:
            continue
        z = blk.zeta
        if z is None:
            raise UnresolvedZeta(f"{blk} needs zeta for the count")
        if blk.B * z == x:
            m += 1
    return n > m


# -- tempered discrete pairs --------------------------------------------------

def _require_discrete(phi: ArthurParameter) -> None:
    if "discrete" not in classify(phi):
        raise NotDiscrete("operation requires a tempered discrete parameter")


def jord_rho_sizes(phi: ArthurParameter, rho: RhoLabel) -> List[int]:
    return sorted(b.a for b in phi.blocks if b.rho.id == rho.id)


def cuspidal_reducibility_point(phi: ArthurParameter, rho: RhoLabel) -> int:
    """Largest rho-size, or the degenerate values 0 / -1."""
    _require_discrete(phi)
    sizes = jord_rho_sizes(phi, rho)
    if sizes:
        return max(sizes)
    if rho.is_self_dual() and rho.self_dual_type != phi.group.dual_parity:
        return 0
    return -1


class EpsMap:
    """A character of a tempered discrete parameter, keyed by (rho id, a)."""

    def __init__(self, values: Dict[Tuple[str, int], int]):
        self.values = dict(values)

    @staticmethod
    def from_vector(phi: ArthurParameter, eps: SignVector) -> "EpsMap":
        if eps.support != CLASS or len(eps) != len(phi.classes()):
            raise NotACharacter("character must live on the block classes")
        return EpsMap({(blk.rho.id, blk.a): sg
                       for blk, sg in zip(phi.classes(), eps.signs)})

    def product(self) -> int:
        return math.prod(self.values.values())

    def __getitem__(self, key: Tuple[str, int]) -> int:
        return self.values[key]


def _check_char(phi: ArthurParameter, eps: EpsMap) -> None:
    if set(eps.values) != {(b.rho.id, b.a) for b in phi.blocks}:
        raise NotACharacter("character support does not match the blocks")
    if eps.product() != 1:
        raise NotACharacter("character fails the product condition")


def extends_cuspidal_chain(size: int, sizes: Container[int],
                           sign: Callable[[int], int]) -> bool:
    """Whether size links into a cuspidal chain of one rho's sizes: the
    chain is gapless (size - 2 is present whenever positive), its signs
    alternate, and its bottom even size 2 carries -1.  A set of sizes is
    a chain exactly when each of them links; the test looks only below
    size, so an ascending scan may stop at the first size that fails."""
    if size > 2:
        return size - 2 in sizes and sign(size) * sign(size - 2) == -1
    return size != 2 or sign(2) == -1


def supercuspidal_test(phi: ArthurParameter, eps) -> bool:
    """Whether (phi, eps) is a supercuspidal pair: per rho the sizes form
    a gapless chain, the signs alternate, and the bottom even size gets -1."""
    _require_discrete(phi)
    if isinstance(eps, SignVector):
        eps = EpsMap.from_vector(phi, eps)
    _check_char(phi, eps)
    for rho in phi.rho_labels():
        sizes = jord_rho_sizes(phi, rho)
        sign = lambda a, rid=rho.id: eps[(rid, a)]
        if not all(extends_cuspidal_chain(a, sizes, sign) for a in sizes):
            return False
    return True


GAP = "gap"
PAIR = "pair"
EVEN_MIN = "even_min"
NONE = "none"


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    segments: Tuple[Segment, ...]
    phi: Optional[ArthurParameter]
    eps: Optional["EpsMap"]


def _drop_sizes(phi: ArthurParameter, rho: RhoLabel,
                *sizes: int) -> List[JordanBlock]:
    return [b for b in phi.blocks
            if not (b.rho.id == rho.id and b.a in sizes)]


def parabolic_reduce_step(phi: ArthurParameter, eps) -> ReductionStep:
    """One step of cuspidal-support reduction, or none when supercuspidal.

    Case priority is even_min, then pair, then gap, scanning the blocks
    of each rho by descending size; the choice only affects the trace,
    not the terminal pair.
    """
    _require_discrete(phi)
    if isinstance(eps, SignVector):
        eps = EpsMap.from_vector(phi, eps)
    _check_char(phi, eps)

    labels = sorted(phi.rho_labels(), key=lambda r: r.id)

    # even bottom with positive sign peels off entirely
    for rho in labels:
        sizes = jord_rho_sizes(phi, rho)
        if sizes and sizes[0] % 2 == 0 and eps[(rho.id, sizes[0])] == 1:
            a_min = sizes[0]
            seg = Segment(rho, HalfInt(a_min - 1), HalfInt(1))
            phi2 = phi.with_blocks(_drop_sizes(phi, rho, a_min))
            eps2 = EpsMap({k: v for k, v in eps.values.items()
                           if k != (rho.id, a_min)})
            return ReductionStep(EVEN_MIN, (seg,), phi2, eps2)

    # adjacent sizes with equal signs drop together
    for rho in labels:
        sizes = jord_rho_sizes(phi, rho)
        for a in reversed(sizes):
            lower = [x for x in sizes if x < a]
            if not lower:
                continue
            a_minus = max(lower)
            if eps[(rho.id, a)] * eps[(rho.id, a_minus)] == 1:
                seg = Segment(rho, HalfInt(a - 1), HalfInt(-(a_minus - 1)))
                phi2 = phi.with_blocks(_drop_sizes(phi, rho, a, a_minus))
                eps2 = EpsMap({k: v for k, v in eps.values.items()
                               if k not in ((rho.id, a), (rho.id, a_minus))})
                return ReductionStep(PAIR, (seg,), phi2, eps2)

    # a gap below an alternating size closes by two
    for rho in labels:
        sizes = jord_rho_sizes(phi, rho)
        for a in reversed(sizes):
            lower = [x for x in sizes if x < a]
            a_minus = max(lower) if lower else (0 if a % 2 == 0 else -1)
            prod = eps[(rho.id, a)] * eps[(rho.id, a_minus)] if lower else -1
            if prod == -1 and a_minus < a - 2:
                seg = Segment(rho, HalfInt(a - 1), HalfInt(a_minus + 3))
                phi2 = phi.with_blocks(_drop_sizes(phi, rho, a) +
                                       [JordanBlock(rho, a_minus + 2, 1)])
                vals = {k: v for k, v in eps.values.items()
                        if k != (rho.id, a)}
                vals[(rho.id, a_minus + 2)] = eps[(rho.id, a)]
                return ReductionStep(GAP, (seg,), phi2, EpsMap(vals))

    return ReductionStep(NONE, (), None, None)


def cuspidal_support(phi: ArthurParameter, eps
                     ) -> Tuple[ArthurParameter, "EpsMap",
                                List[Tuple[str, Segment]]]:
    """Iterate reduction steps down to a supercuspidal pair."""
    if isinstance(eps, SignVector):
        eps = EpsMap.from_vector(phi, eps)
    trace: List[Tuple[str, Segment]] = []
    budget = sum(b.a for b in phi.blocks) + 1
    for _ in range(budget):
        step = parabolic_reduce_step(phi, eps)
        if step.kind == NONE:
            assert supercuspidal_test(phi, eps)
            return phi, eps, trace
        trace.extend((step.kind, seg) for seg in step.segments)
        phi, eps = step.phi, step.eps
    raise DomainError("reduction failed to terminate")  # pragma: no cover
