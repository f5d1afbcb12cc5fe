"""Opaque supercuspidal labels and formal quadratic characters.

A supercuspidal representation is modelled by nothing more than an id,
its dimension, its self-duality type and a formal generator for its
central quadratic character.  A quadratic character is a formal F2-sum
of opaque generators: multiplication is symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from .errors import BadRho

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
NOT_SELF_DUAL = "not_self_dual"

_DUAL_SUFFIX = "^vee"


@dataclass(frozen=True)
class QuadCharacter:
    """Formal quadratic character: a finite set of commuting generators."""

    generators: FrozenSet[str] = frozenset()

    @staticmethod
    def trivial() -> "QuadCharacter":
        """The trivial character: one shared immutable value."""
        return _TRIVIAL

    @staticmethod
    def of(*gens: str) -> "QuadCharacter":
        return QuadCharacter(frozenset(gens))

    def is_trivial(self) -> bool:
        return not self.generators

    def __mul__(self, other: "QuadCharacter") -> "QuadCharacter":
        return QuadCharacter(self.generators ^ other.generators)

    def __pow__(self, k: int) -> "QuadCharacter":
        return self if k % 2 else QuadCharacter.trivial()

    def __str__(self) -> str:
        if not self.generators:
            return "1"
        return "*".join(sorted(self.generators))


_TRIVIAL = QuadCharacter()


@dataclass(frozen=True)
class RhoLabel:
    """Opaque label for a unitary supercuspidal representation of GL(dim)."""

    id: str
    dim: int = 1
    self_dual_type: str = ORTHOGONAL
    det_char: QuadCharacter = field(default_factory=QuadCharacter.trivial)

    def __post_init__(self):
        if self.dim < 1:
            raise BadRho("dim must be positive")
        if self.self_dual_type not in (ORTHOGONAL, SYMPLECTIC, NOT_SELF_DUAL):
            raise BadRho(f"bad self-dual type {self.self_dual_type!r}")

    def is_self_dual(self) -> bool:
        return self.self_dual_type != NOT_SELF_DUAL

    def dual(self) -> "RhoLabel":
        """The contragredient label.

        Self-dual labels are their own dual.  For the rest we use the id
        convention id <-> id + "^vee"; duals share dim and det generator.
        """
        if self.is_self_dual():
            return self
        if self.id.endswith(_DUAL_SUFFIX):
            did = self.id[: -len(_DUAL_SUFFIX)]
        else:
            did = self.id + _DUAL_SUFFIX
        return RhoLabel(did, self.dim, self.self_dual_type, self.det_char)

    def twist(self, eta: QuadCharacter) -> "RhoLabel":
        """Formal twist by a quadratic character.

        Twisting by a quadratic character keeps self-duality and the type;
        the determinant generator picks up eta**dim.
        """
        if eta.is_trivial():
            return self
        new_id = f"{self.id}(x){eta}"
        return RhoLabel(new_id, self.dim, self.self_dual_type,
                        self.det_char * (eta ** self.dim))
