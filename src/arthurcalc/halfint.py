"""Exact half-integer arithmetic.

Every numeric quantity in this package (segment endpoints, the A/B
coordinates of a Jordan block, Jacquet exponents) is a half-integer.  We
store twice the value as a plain int so that all arithmetic is exact and
the floor bracket [x] has unambiguous semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer x, stored as twice = 2x."""

    twice: int

    @staticmethod
    def of(value: Union[int, "HalfInt"]) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        return HalfInt(2 * value)

    def floor(self) -> int:
        # integer division toward -infinity, so [-1/2] == -1
        return self.twice // 2

    def __add__(self, other: Union[int, "HalfInt"]) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other: Union[int, "HalfInt"]) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other: Union[int, "HalfInt"]) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __mul__(self, k: int) -> "HalfInt":
        if not isinstance(k, int):
            raise TypeError("HalfInt may only be scaled by an int")
        return HalfInt(self.twice * k)

    __rmul__ = __mul__

    def __int__(self) -> int:
        if self.twice % 2 != 0:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def sign_pow(exponent: int) -> int:
    """(-1)**exponent for an integer exponent."""
    return -1 if exponent % 2 else 1


def bracket_sign(x: HalfInt) -> int:
    """(-1)**[x], the parity sign of the floor bracket."""
    return sign_pow(x.floor())


def hrange(lo: HalfInt, hi: HalfInt):
    """Half-integers lo, lo+1, ..., hi (empty when lo > hi).

    lo and hi must differ by an integer.
    """
    if (hi.twice - lo.twice) % 2 != 0:
        raise ValueError(f"endpoints {lo}, {hi} do not differ by an integer")
    t = lo.twice
    while t <= hi.twice:
        yield HalfInt(t)
        t += 2
