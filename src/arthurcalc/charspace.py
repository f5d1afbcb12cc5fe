"""Centralizer characters and elements as Z2-valued functions on Jordan blocks.

A sign vector lives either on Jord(psi_p) with multiplicity ("mult"
support, one sign per block instance) or on the block classes ("class"
support, one sign per block).  check_vector is the one test that a
vector lives on a given parameter; every function that reads a vector
against a parameter calls it first.  The characters are the mult-support
vectors of product one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import DomainError, SupportMismatch, TooLarge
from .halfint import sign_pow
from .params import SO_EVEN, ArthurParameter, Instance, JordanBlock

MULT = "mult"
CLASS = "class"

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


def check_vector(psi: ArthurParameter, v: SignVector, support: str = MULT,
                 name: str = "eps") -> None:
    """Refuse v unless it has the given support and one sign per block
    instance (mult) or per block class (class) of psi."""
    if v.support != support:
        raise SupportMismatch(
            f"{name} has {v.support} support where {support} is needed")
    if support == MULT:
        n, what = psi.instance_count(), "instances"
    else:
        n, what = len(psi.blocks), "classes"
    if len(v.signs) != n:
        raise SupportMismatch(f"{len(v.signs)} signs given for {n} block "
                              f"{what}")


def per_class(psi: ArthurParameter, v: SignVector) -> List[Tuple[int, ...]]:
    """The signs of a mult-support vector, one tuple per block class.

    The instances list the copies of each block together, in the order
    of psi.blocks, so each class owns the next blk.mult signs.
    """
    check_vector(psi, v)
    signs = iter(v.signs)
    return [tuple(itertools.islice(signs, blk.mult)) for blk in psi.blocks]


def constant(psi: ArthurParameter, sign: int = 1) -> SignVector:
    return SignVector(MULT, (sign,) * psi.instance_count())


def _per_block(psi: ArthurParameter, sign) -> SignVector:
    """The mult-support vector with sign(blk) on every copy of blk."""
    return SignVector(MULT, tuple(sign(blk) for blk in psi.blocks
                                  for _ in range(blk.mult)))


def instance_index(psi: ArthurParameter, inst: Instance) -> int:
    """The position of inst in psi.instances(), read off the blocks: the
    copies of the blocks before inst's, then its copy index.  inst is an
    instance of psi when its block is one of psi's with multiplicity one
    and its index is an int below that block's multiplicity; anything
    else is refused with a DomainError that names it."""
    if (isinstance(inst, tuple) and len(inst) == 2
            and isinstance(inst[0], JordanBlock) and isinstance(inst[1], int)):
        one, k = inst
        key, pos = one.sort_key, 0
        for blk in psi.blocks:
            if blk.sort_key == key:
                if blk.rho == one.rho and one.mult == 1 and 0 <= k < blk.mult:
                    return pos + k
                break
            pos += blk.mult
    raise DomainError(f"{inst} is not a block instance of the parameter")


def value_at(psi: ArthurParameter, v: SignVector, inst: Instance) -> int:
    """Value of a mult-support vector at a block instance."""
    check_vector(psi, v)
    return v.signs[instance_index(psi, inst)]


def s_psi(psi: ArthurParameter) -> SignVector:
    """Image of the central SL(2)-element: -1 exactly where b is even."""
    return _per_block(psi, lambda blk: -1 if blk.b % 2 == 0 else 1)


def eps_zero(psi: ArthurParameter) -> SignVector:
    """The orientation character: -1 on odd-dimensional blocks (even
    orthogonal groups only, all +1 otherwise)."""
    if psi.group.kind != SO_EVEN:
        return constant(psi)
    return _per_block(psi, lambda blk: -1 if blk.dim % 2 == 1 else 1)


def cont(psi: ArthurParameter, s: SignVector) -> SignVector:
    """Push a mult-support vector to classes: product over the copies."""
    return SignVector(CLASS, tuple(map(math.prod, per_class(psi, s))))


def ext(psi: ArthurParameter, eps: SignVector) -> SignVector:
    """Pull a class-support vector back to instances (constant on copies)."""
    check_vector(psi, eps, CLASS)
    return SignVector(MULT, tuple(sg for blk, sg in zip(psi.blocks, eps.signs)
                                  for _ in range(blk.mult)))


def pair(eps: SignVector, s: SignVector) -> int:
    """Inner product: product over blocks of (-1 iff both entries are -1)."""
    eps._check(s)
    p = 1
    for a, b in zip(eps.signs, s.signs):
        if a == -1 and b == -1:
            p *= -1
    return p


def in_character_space(eps: SignVector, psi: ArthurParameter) -> bool:
    """Whether eps is a character: a mult-support vector of product one."""
    check_vector(psi, eps)
    return eps.product() == 1


def in_element_space(s: SignVector, psi: ArthurParameter) -> bool:
    """Element-side membership: the determinant condition for even
    orthogonal groups, no condition otherwise."""
    check_vector(psi, s, name="s")
    if psi.group.kind != SO_EVEN:
        return True
    dims = (blk.dim for blk in psi.blocks for _ in range(blk.mult))
    p = 1
    for sign, dim in zip(s.signs, dims):
        p *= sign_pow(dim) if sign == -1 else 1
    return p == 1


def _all_signs(psi: ArthurParameter):
    """Every mult-support vector on psi, ordering + before -."""
    n = psi.instance_count()
    if n > ENUM_BOUND:
        raise TooLarge(f"{n} blocks exceeds bound {ENUM_BOUND}")
    return (SignVector(MULT, signs)
            for signs in itertools.product((1, -1), repeat=n))


def enumerate_characters(psi: ArthurParameter) -> List[SignVector]:
    """The characters on instances, lexicographically (+ before -)."""
    return [v for v in _all_signs(psi) if v.product() == 1]


def enumerate_elements(psi: ArthurParameter) -> List[SignVector]:
    """The element-side vectors on instances."""
    return [v for v in _all_signs(psi) if in_element_space(v, psi)]
