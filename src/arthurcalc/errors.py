"""Domain error hierarchy.

All errors raised for mathematically invalid inputs derive from
DomainError, so the CLI can distinguish usage errors (exit 2) from
domain errors (exit 1).
"""


class DomainError(ValueError):
    """Base class for violations of a documented precondition."""


class BadGroup(DomainError):
    """A group form of unknown kind or negative rank."""


class BadRho(DomainError):
    """A supercuspidal label of dimension below one or of unknown type."""


class BadBlock(DomainError):
    """A Jordan block with a size below one or a zeta against sign(a - b)."""


class OddLeftover(DomainError):
    """The non-parity part of a parameter has no dual pairing."""


class NotDDR(DomainError):
    """Operation requires discrete diagonal restriction."""


class NotElementary(DomainError):
    """Operation requires an elementary parameter."""


class NotDiscrete(DomainError):
    """Operation requires a discrete (tempered, multiplicity-free) parameter."""


class UnresolvedZeta(DomainError):
    """A block with a == b entered a zeta-sensitive computation unresolved."""


class OrderViolation(DomainError):
    """A block order fails the nesting admissibility condition."""


class NotDominating(DomainError):
    """Shift data does not dominate the base block."""


class SupportMismatch(DomainError):
    """Sign vectors over different supports were combined."""


class NotACharacter(DomainError):
    """A sign vector fails the defining condition of its character space."""


class TooLarge(DomainError):
    """Enumeration request exceeds the configured size bound."""


class BadDimensionSplit(DomainError):
    """An endoscopic partition has impossible dimension bookkeeping."""


class NotApplicable(DomainError):
    """The requested endoscopic construction does not apply to this input."""


class MixedParity(DomainError):
    """A per-rho block family mixes odd and even sizes."""


class NoCompoundBlock(DomainError):
    """A recursion step was requested on a block with A == B."""


class OutOfRange(DomainError):
    """A segment-count function escapes its allowed range."""


class AmbiguousChoice(DomainError):
    """A construction step requires an explicit branch choice."""


class RankTooSmall(DomainError):
    """A root datum below the smallest rank of its type."""
