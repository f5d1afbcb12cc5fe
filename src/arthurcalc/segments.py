"""Segments and the cuspidal-support calculus.

Segments are arithmetic progressions of half-integers of step one.  On
top of them lives the parabolic-reduction chain that takes a tempered
discrete pair down to its cuspidal support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Container, Dict, List, Optional, Tuple

from .charspace import CLASS, SignVector, check_vector
from .errors import DomainError, NotACharacter, NotDiscrete, SupportMismatch
from .halfint import HalfInt
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

    def __str__(self) -> str:
        return f"<{self.rho.id};{self.x},...,{self.y}>"


# -- tempered discrete pairs --------------------------------------------------

def _require_discrete(phi: ArthurParameter) -> None:
    if "discrete" not in classify(phi):
        raise NotDiscrete("operation requires a tempered discrete parameter")


def jord_rho_sizes(phi: ArthurParameter, rho: RhoLabel) -> List[int]:
    return sorted(b.a for b in phi.blocks if b.rho.id == rho.id)


class EpsMap:
    """A character of a tempered discrete parameter, keyed by (rho id, a)."""

    def __init__(self, values: Dict[Tuple[str, int], int]):
        self.values = dict(values)

    @staticmethod
    def from_vector(phi: ArthurParameter, eps: SignVector) -> "EpsMap":
        """The values of a class-support vector keyed by (rho id, alpha),
        which is (rho id, a) on a discrete parameter."""
        try:
            check_vector(phi, eps, CLASS)
        except SupportMismatch as e:
            raise NotACharacter(
                f"character must live on the block classes: {e}") from None
        return EpsMap({(blk.rho.id, blk.alpha): sg
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
