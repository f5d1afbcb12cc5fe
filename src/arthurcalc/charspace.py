"""Centralizer-character spaces as Z2-valued functions on Jordan blocks.

Characters and centralizer elements are both realized as sign vectors,
either on Jord(psi_p) with multiplicity ("mult" support) or on the block
classes ("class" support).  Coset quotients are handled by canonical
representatives rather than a group abstraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import SupportMismatch, TooLarge
from .halfint import sign_pow
from .params import SO_EVEN, ArthurParameter, Instance

MULT = "mult"
CLASS = "class"

S_HAT = "S_hat"
S_HAT_SIGMA0 = "S_hat_Sigma0"
S_GT_HAT = "S_gt_hat"
S_GT_HAT_SIGMA0 = "S_gt_hat_Sigma0"

ENUM_BOUND = 20


@dataclass(frozen=True)
class SignVector:
    """A Z2-valued function on the blocks of a fixed parameter."""

    support: str
    signs: Tuple[int, ...]

    def __post_init__(self):
        if self.support not in (MULT, CLASS):
            raise ValueError(f"bad support {self.support!r}")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: int) -> int:
        return self.signs[i]

    def product(self) -> int:
        return math.prod(self.signs)

    def pointwise(self, other: "SignVector") -> "SignVector":
        self._check(other)
        return SignVector(self.support,
                          tuple(a * b for a, b in zip(self.signs, other.signs)))

    def _check(self, other: "SignVector") -> None:
        if self.support != other.support or len(self) != len(other):
            raise SupportMismatch(
                f"supports {self.support}/{len(self)} vs "
                f"{other.support}/{len(other)}")

    def __str__(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)


def check_length(psi: ArthurParameter, v: SignVector) -> None:
    """Refuse a vector without one sign per block instance of psi."""
    n = psi.instance_count()
    if len(v.signs) != n:
        raise SupportMismatch(
            f"{len(v.signs)} signs given for {n} block instances")


def constant(psi: ArthurParameter, support: str, sign: int = 1) -> SignVector:
    n = len(psi.instances()) if support == MULT else len(psi.classes())
    return SignVector(support, (sign,) * n)


def vector_on_instances(psi: ArthurParameter, fn) -> SignVector:
    return SignVector(MULT, tuple(fn(blk, k) for blk, k in psi.instances()))


def vector_on_classes(psi: ArthurParameter, fn) -> SignVector:
    return SignVector(CLASS, tuple(fn(blk) for blk in psi.classes()))


def value_at(psi: ArthurParameter, v: SignVector, inst: Instance) -> int:
    """Value of a mult-support vector at a block instance."""
    if v.support != MULT:
        raise SupportMismatch("instance lookup needs mult support")
    return v.signs[psi.instances().index(inst)]


def s_psi(psi: ArthurParameter) -> SignVector:
    """Image of the central SL(2)-element: -1 exactly where b is even."""
    return vector_on_instances(psi, lambda blk, _: -1 if blk.b % 2 == 0 else 1)


def eps_zero(psi: ArthurParameter, support: str = MULT) -> SignVector:
    """The orientation character: -1 on odd-dimensional blocks (even
    orthogonal groups only, all +1 otherwise)."""
    if psi.group.kind != SO_EVEN:
        return constant(psi, support)
    fn = lambda blk: -1 if blk.dim % 2 == 1 else 1
    if support == MULT:
        return vector_on_instances(psi, lambda blk, _: fn(blk))
    return vector_on_classes(psi, fn)


def cont(psi: ArthurParameter, s: SignVector) -> SignVector:
    """Push a mult-support vector to classes: product over the copies."""
    if s.support != MULT:
        raise SupportMismatch("cont needs mult support")
    insts = psi.instances()
    out = []
    for blk in psi.classes():
        p = 1
        for (inst, _), sign in zip(insts, s.signs):
            if inst.key() == blk.key():
                p *= sign
        out.append(p)
    return SignVector(CLASS, tuple(out))


def ext(psi: ArthurParameter, eps: SignVector) -> SignVector:
    """Pull a class-support vector back to instances (constant on copies)."""
    if eps.support != CLASS:
        raise SupportMismatch("ext needs class support")
    keys = [b.key() for b in psi.classes()]
    out = []
    for blk, _ in psi.instances():
        out.append(eps.signs[keys.index(blk.key())])
    return SignVector(MULT, tuple(out))


def pair(eps: SignVector, s: SignVector) -> int:
    """Inner product: product over blocks of (-1 iff both entries are -1)."""
    eps._check(s)
    p = 1
    for a, b in zip(eps.signs, s.signs):
        if a == -1 and b == -1:
            p *= -1
    return p


def _dims(psi: ArthurParameter, support: str) -> List[int]:
    if support == MULT:
        return [blk.dim for blk, _ in psi.instances()]
    return [blk.dim for blk in psi.classes()]


def _mults(psi: ArthurParameter) -> List[int]:
    return [blk.mult for blk in psi.classes()]


def in_character_space(eps: SignVector, psi: ArthurParameter,
                       space: str) -> bool:
    """Membership of a character-side vector in one of the four spaces.

    The Sigma0 spaces are cut out by a product condition; dropping the
    Sigma0 leaves the condition unchanged and only coarsens equality by
    the orientation character, so membership agrees.
    """
    if space in (S_GT_HAT, S_GT_HAT_SIGMA0):
        if eps.support != MULT:
            raise SupportMismatch("the >-spaces live on instances")
        return eps.product() == 1
    if eps.support != CLASS:
        raise SupportMismatch("the class spaces live on block classes")
    p = 1
    for sign, mult in zip(eps.signs, _mults(psi)):
        p *= sign_pow(mult) if sign == -1 else 1
    return p == 1


def in_element_space(s: SignVector, psi: ArthurParameter) -> bool:
    """Element-side membership: the determinant condition for even
    orthogonal groups, no condition otherwise."""
    if psi.group.kind != SO_EVEN:
        return True
    p = 1
    for sign, dim in zip(s.signs, _dims(psi, s.support)):
        p *= sign_pow(dim) if sign == -1 else 1
    return p == 1


def _quotient_generator(psi: ArthurParameter, space: str) -> Optional[SignVector]:
    if space in (S_HAT, S_GT_HAT):
        if psi.group.kind != SO_EVEN:
            return None
        gen = eps_zero(psi, MULT if space == S_GT_HAT else CLASS)
        return None if gen.product() == 1 and all(
            g == 1 for g in gen.signs) else gen
    return None


def enumerate_characters(psi: ArthurParameter, space: str
                         ) -> List[SignVector]:
    """Canonical coset representatives of a character space.

    Representatives are the lexicographically least members of their
    coset (ordering + before -).
    """
    support = MULT if space in (S_GT_HAT, S_GT_HAT_SIGMA0) else CLASS
    n = len(psi.instances()) if support == MULT else len(psi.classes())
    if n > ENUM_BOUND:
        raise TooLarge(f"{n} blocks exceeds bound {ENUM_BOUND}")
    gen = _quotient_generator(psi, space)
    seen = set()
    out = []
    for signs in itertools.product((1, -1), repeat=n):
        v = SignVector(support, signs)
        if not in_character_space(v, psi, space):
            continue
        if signs in seen:
            continue
        seen.add(signs)
        if gen is not None:
            seen.add(v.pointwise(gen).signs)
        out.append(v)
    return out


def enumerate_elements(psi: ArthurParameter) -> List[SignVector]:
    """The element-side vectors on instances."""
    n = len(psi.instances())
    if n > ENUM_BOUND:
        raise TooLarge(f"{n} blocks exceeds bound {ENUM_BOUND}")
    out = []
    for signs in itertools.product((1, -1), repeat=n):
        v = SignVector(MULT, signs)
        if in_element_space(v, psi):
            out.append(v)
    return out
