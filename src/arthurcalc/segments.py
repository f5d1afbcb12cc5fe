"""Segments and the cuspidal-support calculus.

Segments are arithmetic progressions of half-integers of step one.  On
top of them lives the parabolic-reduction chain that takes a tempered
discrete pair down to its cuspidal support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Container, Dict, List, Mapping, Optional, Tuple

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


def _rho_sizes(phi: ArthurParameter) -> List[Tuple[RhoLabel, List[int]]]:
    """Per rho, by id, its label and its ascending sizes, in one pass over
    the blocks of a discrete parameter, which sort by rho id, then a."""
    out: Dict[str, Tuple[RhoLabel, List[int]]] = {}
    for b in phi.blocks:
        out.setdefault(b.rho.id, (b.rho, []))[1].append(b.a)
    return list(out.values())


@dataclass(frozen=True)
class EpsMap:
    """A character keyed by (rho id, alpha), which is (rho id, a) on a
    discrete parameter.  A value: values is a read-only copy, and equal
    maps compare equal and hash alike."""

    values: Mapping[Tuple[str, int], int]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           MappingProxyType(dict(self.values)))

    @staticmethod
    def from_vector(phi: ArthurParameter, eps: SignVector) -> "EpsMap":
        """The values of a class-support vector keyed by (rho id, alpha)."""
        try:
            check_vector(phi, eps, CLASS)
        except SupportMismatch as e:
            raise NotACharacter(
                f"character must live on the block classes: {e}") from None
        return EpsMap({(blk.rho.id, blk.alpha): sg
                       for blk, sg in zip(phi.blocks, eps.signs)})

    def without(self, *keys: Tuple[str, int]) -> Dict[Tuple[str, int], int]:
        """A new dict of the values whose keys are not among keys."""
        return {k: v for k, v in self.values.items() if k not in keys}

    def __getitem__(self, key: Tuple[str, int]) -> int:
        return self.values[key]

    def __hash__(self) -> int:
        # a mappingproxy has no hash of its own
        return hash(frozenset(self.values.items()))


def check_character(psi: ArthurParameter, eps: EpsMap) -> None:
    """Refuse eps unless it has one value per block of psi, keyed by
    (rho id, alpha), with product 1."""
    if set(eps.values) != {(b.rho.id, b.alpha) for b in psi.blocks}:
        raise NotACharacter("character support does not match the blocks")
    if math.prod(eps.values.values()) != 1:
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


def cuspidal_chains(phi: ArthurParameter, eps: EpsMap) -> bool:
    """Whether per rho the sizes of a checked discrete pair (phi, eps)
    form a cuspidal chain."""
    for rho, sizes in _rho_sizes(phi):
        sign = lambda a, rid=rho.id: eps[(rid, a)]
        if not all(extends_cuspidal_chain(a, sizes, sign) for a in sizes):
            return False
    return True


def supercuspidal_test(phi: ArthurParameter, eps: EpsMap) -> bool:
    """Whether (phi, eps) is a supercuspidal pair: per rho the sizes form
    a gapless chain, the signs alternate, and the bottom even size gets -1."""
    _require_discrete(phi)
    check_character(phi, eps)
    return cuspidal_chains(phi, eps)


GAP = "gap"
PAIR = "pair"
EVEN_MIN = "even_min"
NONE = "none"


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    segments: Tuple[Segment, ...]
    phi: Optional[ArthurParameter]
    eps: Optional[EpsMap]


def _drop_sizes(phi: ArthurParameter, rho: RhoLabel,
                *sizes: int) -> List[JordanBlock]:
    return [b for b in phi.blocks
            if not (b.rho.id == rho.id and b.a in sizes)]


def _reduce_step(phi: ArthurParameter, eps: EpsMap) -> ReductionStep:
    """One step of cuspidal-support reduction on a checked pair, or none
    when it is supercuspidal.

    Case priority is even_min, then pair, then gap, scanning the blocks
    of each rho by descending size; the choice only affects the trace,
    not the terminal pair.  Each case drops a block valued 1 or two of
    equal value, or moves one block and its value down a gap of its
    parity, so the pair it returns passes the checks too.
    """
    chains = _rho_sizes(phi)

    # even bottom with positive sign peels off entirely
    for rho, sizes in chains:
        a_min = sizes[0]
        if a_min % 2 == 0 and eps[(rho.id, a_min)] == 1:
            seg = Segment(rho, HalfInt(a_min - 1), HalfInt(1))
            phi2 = phi.with_blocks(_drop_sizes(phi, rho, a_min))
            eps2 = EpsMap(eps.without((rho.id, a_min)))
            return ReductionStep(EVEN_MIN, (seg,), phi2, eps2)

    # adjacent sizes with equal signs drop together
    for rho, sizes in chains:
        for i in range(len(sizes) - 1, 0, -1):
            a, a_minus = sizes[i], sizes[i - 1]
            if eps[(rho.id, a)] == eps[(rho.id, a_minus)]:
                seg = Segment(rho, HalfInt(a - 1), HalfInt(-(a_minus - 1)))
                phi2 = phi.with_blocks(_drop_sizes(phi, rho, a, a_minus))
                eps2 = EpsMap(eps.without((rho.id, a), (rho.id, a_minus)))
                return ReductionStep(PAIR, (seg,), phi2, eps2)

    # the signs of adjacent sizes now alternate, and a gap below a size
    # closes by two; below the least size sits 0 or -1 by parity
    for rho, sizes in chains:
        for i in range(len(sizes) - 1, -1, -1):
            a = sizes[i]
            a_minus = sizes[i - 1] if i else -(a % 2)
            if a_minus < a - 2:
                seg = Segment(rho, HalfInt(a - 1), HalfInt(a_minus + 3))
                phi2 = phi.with_blocks(_drop_sizes(phi, rho, a) +
                                       [JordanBlock(rho, a_minus + 2, 1)])
                vals = eps.without((rho.id, a))
                vals[(rho.id, a_minus + 2)] = eps[(rho.id, a)]
                return ReductionStep(GAP, (seg,), phi2, EpsMap(vals))

    return ReductionStep(NONE, (), None, None)


def cuspidal_support(phi: ArthurParameter, eps: EpsMap
                     ) -> Tuple[ArthurParameter, EpsMap,
                                List[Tuple[str, Segment]]]:
    """Iterate reduction steps down to a supercuspidal pair."""
    _require_discrete(phi)
    check_character(phi, eps)
    trace: List[Tuple[str, Segment]] = []
    budget = sum(b.a for b in phi.blocks) + 1
    for _ in range(budget):
        step = _reduce_step(phi, eps)
        if step.kind == NONE:
            assert cuspidal_chains(phi, eps)
            return phi, eps, trace
        trace.extend((step.kind, seg) for seg in step.segments)
        phi, eps = step.phi, step.eps
    raise DomainError("reduction failed to terminate")  # pragma: no cover
