"""Integer-linear combinations of symbolic packet terms.

Terms record a path of formal operations (parabolic prefixes and Jacquet
markers) over a core label; sums implement the two block recursions and
a brute-force check of their endoscopic sign bookkeeping.  Jacquet
markers are never evaluated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .charspace import (ENUM_BOUND, MULT, SignVector, check_vector,
                        in_character_space, instance_index, pair, s_psi,
                        value_at)
from .errors import DomainError, NoCompoundBlock, NotDDR, TooLarge
from .halfint import HalfInt, hrange, sign_pow
from .params import (SO_EVEN, ArthurParameter, GroupForm, Instance,
                     JordanBlock, _Derived, classify, from_AB)

# Most recursion steps packet_expand_fully runs before it gives up; each
# step expands one term, and elementary terms take none.
MAX_EXPANSION_STEPS = 100_000
# Most exponents the Jacquet markers of one recursion step write; no test,
# golden, selftest or benchmark input has A - B above 6, which writes 15.
MAX_JACQUET_EXPONENTS = 100_000


@dataclass(frozen=True)
class Induce:
    """Formal parabolic prefix by the segment <x, ..., y> twisted by rho."""

    rho_id: str
    x: HalfInt
    y: HalfInt

    def __str__(self) -> str:
        return f"<{self.rho_id};{self.x}..{self.y}>"


@dataclass(frozen=True)
class Jac:
    """Formal Jacquet marker at an exponent sequence."""

    rho_id: str
    exponents: Tuple[HalfInt, ...]

    def __str__(self) -> str:
        seq = ",".join(str(x) for x in self.exponents)
        return f"Jac[{self.rho_id};{seq}]"


Op = object  # Induce | Jac


def _entry_key(entry: Tuple[JordanBlock, Optional[int]]):
    return entry[0].sort_key, entry[1] or 0


@dataclass(frozen=True)
class CoreLabel:
    """A parameter with an optional character value on every block.

    Blocks are kept as (block, sign) pairs sorted canonically; sign None
    means the core is a stable-packet label without a character.
    """

    group: object
    entries: Tuple[Tuple[JordanBlock, Optional[int]], ...]

    @_Derived
    def _hash(self) -> int:
        return hash((self.group, self.entries))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(psi: ArthurParameter,
           signs: Optional[SignVector] = None) -> "CoreLabel":
        insts = psi.instances()
        if signs is None:
            ent = tuple((blk, None) for blk, _ in insts)
        else:
            check_vector(psi, signs)
            ent = tuple((blk, sg) for (blk, _), sg in zip(insts, signs.signs))
        return CoreLabel(psi.group, tuple(sorted(ent, key=_entry_key)))

    def __str__(self) -> str:
        body = ", ".join(
            f"{blk}:{'' if sg is None else ('+' if sg == 1 else '-')}"
            for blk, sg in self.entries)
        return f"[{body}]"


@dataclass(frozen=True)
class BasisTerm:
    ops: Tuple[Op, ...]
    core: CoreLabel

    @_Derived
    def _hash(self) -> int:
        return hash((self.ops, self.core))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        ops = " ".join(str(op) for op in self.ops)
        return f"{ops} |x {self.core}" if ops else str(self.core)


class FormalSum:
    """A finite integer combination of basis terms."""

    def __init__(self, terms: Optional[Dict[BasisTerm, int]] = None):
        self.terms: Dict[BasisTerm, int] = {
            t: c for t, c in (terms or {}).items() if c}

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def ordered(self) -> List[Tuple[BasisTerm, int]]:
        """The (term, coefficient) pairs by the str of the term, ties in
        the order they entered: the order of every printed sum."""
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "  ".join(f"{'+' if c >= 0 else '-'}{abs(c)} {t}"
                         for t, c in self.ordered())


def _check_ddr(psi: ArthurParameter, eps: Optional[SignVector]) -> None:
    """The input checks of the block recursions: discrete diagonal
    restriction, and for a character its support, length and product."""
    if "discrete_diag_restriction" not in classify(psi):
        raise NotDDR("the recursion expands DDR parameters")
    if eps is not None and not in_character_space(eps, psi):
        raise DomainError("eps must satisfy the character product condition")


def _require_compound(blk: JordanBlock) -> Tuple[HalfInt, HalfInt, int]:
    A, B = blk.A, blk.B
    if A == B:
        raise NoCompoundBlock(f"{blk} has A == B")
    return A, B, blk.zeta_resolved()


def _step(core: CoreLabel, i: int) -> Dict[BasisTerm, int]:
    """One step of either recursion on entry i of a checked DDR core: at
    the character level when the entry carries a sign eta0, at the
    stable-packet level when it carries None.  Each new core is the other
    entries plus the raised or split blocks, on the group their dimensions
    give; those blocks keep the DDR conditions and the product of the
    signs, so every core built here is again a DDR core."""
    blk, eta0 = core.entries[i]
    A, B, zeta = _require_compound(blk)
    width = int(A - B)
    exponents = width * (width - 1) // 2  # C - B - 1 for each C in (B, A]
    if exponents > MAX_JACQUET_EXPONENTS:
        raise TooLarge(f"A - B = {width} gives {exponents} Jacquet exponents, "
                       f"above the bound {MAX_JACQUET_EXPONENTS}")
    rho, rest = blk.rho, core.entries[:i] + core.entries[i + 1:]

    def with_blocks(*extra) -> CoreLabel:
        entries = rest + extra
        dim = sum(b.dim for b, _ in entries)
        group = GroupForm.of_dim(core.group.kind, dim, core.group.eta)
        return CoreLabel(group, tuple(sorted(entries, key=_entry_key)))

    out: Dict[BasisTerm, int] = {}
    raised = (B + 2).twice <= A.twice
    # the C-indexed terms, over the core with the base raised by two; they
    # vanish when the raised base would exceed the top and eta0 is -1
    if raised or eta0 != -1:
        c_core = with_blocks(*([(from_AB(rho, A, B + 2, zeta), eta0)]
                               if raised else []))
        for C in hrange(B + 1, A):
            ops = [Induce(rho.id, zeta * B, -(zeta * C))]
            jac_seq = tuple(zeta * D for D in hrange(B + 2, C))
            if jac_seq:
                ops.append(Jac(rho.id, jac_seq))
            out[BasisTerm(tuple(ops), c_core)] = sign_pow(int(A - C))
    # the split terms: one at the stable level, one per sign eta otherwise
    top, base = from_AB(rho, A, B + 1, zeta), from_AB(rho, B, B, zeta)
    gap = width + 1  # A - B + 1
    coeff = sign_pow(gap // 2)
    if eta0 is None:
        out[BasisTerm((), with_blocks((top, None), (base, None)))] = coeff
        return out
    if (gap - 1) % 2:
        coeff *= eta0
    for eta in (1, -1):
        split = with_blocks((top, eta), (base, eta * eta0))
        out[BasisTerm((), split)] = coeff * eta if gap % 2 else coeff
    return out


def ddr_recursion_expand(psi: ArthurParameter, eps: SignVector,
                         chosen: Instance) -> FormalSum:
    """Expand one compound block of a DDR parameter at the character level.

    The C-indexed terms carry a parabolic prefix and a Jacquet marker over
    a core with the base raised by two; the split terms sum over the sign
    eta with the printed coefficient.  When the raised base would exceed
    the top and the block's character value is -1 the C-terms vanish.
    """
    _check_ddr(psi, eps)
    # a DDR parameter has no multiplicities: entry i is instance i
    i = instance_index(psi, chosen)
    return FormalSum(_step(CoreLabel.of(psi, eps), i))


def packet_recursion_expand(psi: ArthurParameter,
                            chosen: Instance) -> FormalSum:
    """Expand one compound block at the stable-packet level."""
    _check_ddr(psi, None)
    i = instance_index(psi, chosen)
    return FormalSum(_step(CoreLabel.of(psi), i))


def _level(core: CoreLabel) -> int:
    """The sum of A - B over a core's entries; every term a step builds
    from a core lies strictly below it, and elementary cores are level 0."""
    return sum(min(blk.a, blk.b) - 1 for blk, _ in core.entries)


def packet_expand_fully(psi: ArthurParameter,
                        eps: Optional[SignVector] = None) -> FormalSum:
    """Iterate a block recursion until every core is elementary: the
    stable one without eps, the character one on each core's own signs
    with it.

    The work is kept by level (see _level) and taken highest level first.
    A step raises a block's base by two or splits it, so every term that
    adds to a level comes from a higher one: each term of the top level
    is expanded once, on its first compound block, with its whole
    coefficient.  More than MAX_EXPANSION_STEPS steps raise.
    The input is checked once, as the one-block recursions check theirs;
    every core a step builds is again a DDR core (see _step).
    """
    _check_ddr(psi, eps)
    start = BasisTerm((), CoreLabel.of(psi, eps))
    # level -> {term: coefficient}; only levels some term reached exist
    levels: Dict[int, Dict[BasisTerm, int]] = {_level(start.core): {start: 1}}
    steps = 0
    while (top := max(levels, default=0)) > 0:
        for term, coeff in levels.pop(top).items():
            if not coeff:
                continue
            steps += 1
            if steps > MAX_EXPANSION_STEPS:
                raise TooLarge("expansion exceeded the step limit")
            i = next(i for i, (blk, _) in enumerate(term.core.entries)
                     if blk.A != blk.B)
            for t2, c2 in _step(term.core, i).items():
                bucket = levels.setdefault(_level(t2.core), {})
                new = BasisTerm(term.ops + t2.ops, t2.core)
                bucket[new] = bucket.get(new, 0) + coeff * c2
    return FormalSum(levels.get(0))


def endoscopic_sign_bookkeeping(psi: ArthurParameter, s: SignVector,
                                chosen: Instance) -> bool:
    """Brute-force check of the character identities behind the recursion.

    For every admissible eps, and every lift to the two-block split, the
    pairing against s extended across the recursion must reproduce the
    printed coefficients.
    """
    if "discrete_diag_restriction" not in classify(psi):
        raise NotDDR("bookkeeping is checked on DDR parameters")
    check_vector(psi, s, name="s")
    # the loop below runs over all 2^n sign vectors on the n instances
    if len(s) > ENUM_BOUND:
        raise TooLarge(f"{len(s)} blocks exceeds bound {ENUM_BOUND}")
    instance_index(psi, chosen)  # refuses what is no instance of psi
    blk = chosen[0]
    A, B, zeta = _require_compound(blk)
    rho = blk.rho
    gap = int(A - B) + 1

    rest = [inst for inst in psi.instances() if inst != chosen]
    rest_keys = [inst[0].sort_key for inst in rest]
    s_rest = [value_at(psi, s, inst) for inst in rest]
    s_val = value_at(psi, s, chosen)

    blk1 = from_AB(rho, A, B + 2, zeta) if (B + 2).twice <= A.twice else None
    blk2a = from_AB(rho, A, B + 1, zeta)
    blk2b = from_AB(rho, B, B, zeta)
    rest_blocks = [inst[0] for inst in rest]
    psi2 = psi.with_blocks(rest_blocks + [blk2a, blk2b])

    def vec(param: ArthurParameter,
            values: Dict[tuple, int]) -> SignVector:
        return SignVector(MULT, tuple(values[inst[0].sort_key]
                                      for inst in param.instances()))

    ok = True
    for eps_signs in itertools.product((1, -1), repeat=len(rest) + 1):
        eps_vals = dict(zip(rest_keys, eps_signs))
        eps_vals[blk.sort_key] = eps_signs[-1]
        if math.prod(eps_vals.values()) != 1:
            continue
        eps = vec(psi, eps_vals)
        base = pair(eps, s.pointwise(s_psi(psi)))
        eta0 = eps_vals[blk.sort_key]

        # identification with the raised-base parameter
        if blk1 is not None:
            psi1 = psi.with_blocks(rest_blocks + [blk1])
            vals1 = dict(eps_vals)
            del vals1[blk.sort_key]
            vals1[blk1.sort_key] = eta0
            s1_vals = dict(zip(rest_keys, s_rest))
            s1_vals[blk1.sort_key] = s_val
            eps1 = vec(psi1, vals1)
            s1 = vec(psi1, s1_vals)
            if pair(eps1, s1.pointwise(s_psi(psi1))) != base:
                ok = False

        # all lifts to the two-block split
        for eta in (1, -1):
            vals2 = dict(eps_vals)
            del vals2[blk.sort_key]
            vals2[blk2a.sort_key] = eta
            vals2[blk2b.sort_key] = eta * eta0
            s2_vals = dict(zip(rest_keys, s_rest))
            s2_vals[blk2a.sort_key] = s_val
            s2_vals[blk2b.sort_key] = s_val
            eps2 = vec(psi2, vals2)
            s2 = vec(psi2, s2_vals)
            predicted = (eta if gap % 2 else 1) * \
                (eta0 if (gap - 1) % 2 else 1) * base
            if pair(eps2, s2.pointwise(s_psi(psi2))) != predicted:
                ok = False
    return ok


def twist_by_orientation(term: BasisTerm) -> BasisTerm:
    """Multiply a term's character data by the orientation character of
    its own core parameter: -1 on the odd-dimensional blocks of an even
    orthogonal group."""
    core = term.core
    if core.group.kind != SO_EVEN:
        return term
    entries = [(blk, sg if sg is None or blk.dim % 2 == 0 else -sg)
               for blk, sg in core.entries]
    return BasisTerm(term.ops, CoreLabel(core.group,
                                         tuple(sorted(entries,
                                                      key=_entry_key))))
