"""Seeded generators and the registry of verification families.

Each family checks one group of exact identities and returns
``(checks, failures)``.  The acceptance suite runs the first ten at
``FULL`` size, each from a fixed seed; ``arthurcalc selftest`` runs all
of them at ``COMPACT`` size from one generator.
"""

from __future__ import annotations

import collections.abc
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import weyl as W
from .charspace import (MULT, S_GT_HAT_SIGMA0, SignVector,
                        enumerate_characters, enumerate_elements, pair,
                        s_psi)
from .endoscopy import sign_transfer_check
from .errors import DomainError
from .formal import endoscopic_sign_bookkeeping
from .halfint import HalfInt, sign_pow
from .labels import ORTHOGONAL, SYMPLECTIC, QuadCharacter, RhoLabel
from .packets import eta_constraint_check, packet_constituents
from .params import (MINUS, PLUS, ArthurParameter, BlockOrder, Instance,
                     JordanBlock, _nested, classify, dominate,
                     elementary_alpha, elementary_block, from_AB,
                     make_parameter, max_p_order, min_p_order, natural_order,
                     satisfies_condition_p)
from .segments import EpsMap, cuspidal_support, supercuspidal_test
from .signs import (aubert_flip, beta_sign, eps_m_mw_ddr, eps_m_mw_elementary,
                    eps_m_mw_general, eps_mw_w, s_ratio, theta_ratio_mw_w)

_RHO_POOL = [
    RhoLabel("r1", 1, ORTHOGONAL, QuadCharacter.of("u1")),
    RhoLabel("r2", 2, SYMPLECTIC),
    RhoLabel("r3", 3, ORTHOGONAL, QuadCharacter.of("u3")),
]


def _block_for(rng: random.Random, rho: RhoLabel, want_orthogonal: bool,
               max_ab: int) -> JordanBlock:
    """A block of the requested parity type for this rho."""
    # type is orthogonal iff (rho orthogonal) == (a+b even)
    want_even_sum = (rho.self_dual_type == ORTHOGONAL) == want_orthogonal
    while True:
        a = rng.randint(1, max_ab)
        b = rng.randint(1, max_ab)
        if ((a + b) % 2 == 0) == want_even_sum:
            zeta = rng.choice((PLUS, MINUS)) if a == b else None
            return JordanBlock(rho, a, b, 1, zeta)


def random_pure_parameter(rng: random.Random, max_blocks: int = 6,
                          max_ab: int = 8, max_rhos: int = 3,
                          orthogonal_side: Optional[bool] = None
                          ) -> ArthurParameter:
    """A random parameter equal to its parity part, zeta resolved."""
    if orthogonal_side is None:
        orthogonal_side = rng.random() < 0.7
    rhos = _RHO_POOL[:max_rhos]
    k = rng.randint(1, max_blocks)
    blocks = [_block_for(rng, rng.choice(rhos), orthogonal_side, max_ab)
              for _ in range(k)]
    if not orthogonal_side:
        # symplectic side: total dimension is automatically even
        return make_parameter(blocks)
    total = sum(b.dim for b in blocks)
    if total % 2 == 0 and rng.random() < 0.5:
        return make_parameter(blocks, eta=QuadCharacter.of("w"))
    return make_parameter(blocks)


def random_p_order(rng: random.Random, psi: ArthurParameter) -> BlockOrder:
    """A random admissible order, built as a random linear extension."""
    remaining = list(psi.instances())
    seq: List[Instance] = []
    while remaining:
        ready = [inst for inst in remaining
                 if not any(_nested(inst[0], other[0])
                            for other in remaining if other != inst)]
        pick = rng.choice(ready)
        seq.append(pick)
        remaining.remove(pick)
    order = BlockOrder(tuple(seq))
    assert satisfies_condition_p(order)
    return order


def random_ddr_parameter(rng: random.Random, max_blocks: int = 5,
                         max_level: int = 8) -> ArthurParameter:
    """A random parameter with discrete diagonal restriction."""
    rhos = _RHO_POOL[:rng.randint(1, 2)]
    orthogonal_side = rng.random() < 0.7
    blocks = []
    for rho in rhos:
        # per rho, stack disjoint [B, A] segments of the right parity
        want_even_sum = (rho.self_dual_type == ORTHOGONAL) == orthogonal_side
        # a+b = 2A+2: even sum always; parity of block type is decided by
        # A-B (integer) versus half-integers: choose grid accordingly
        twice_base = 0 if want_even_sum else 1
        cursor = twice_base + rng.randint(0, 2) * 2
        for _ in range(rng.randint(0, max_blocks)):
            width = rng.randint(0, 2) * 2
            tb, ta = cursor, cursor + width
            if ta > 2 * max_level:
                break
            zeta = rng.choice((PLUS, MINUS))
            blocks.append(from_AB(rho, HalfInt(ta), HalfInt(tb), zeta))
            cursor = ta + 2 + rng.randint(0, 2) * 2
    if not blocks:
        rho = rhos[0]
        tb = 0 if (rho.self_dual_type == ORTHOGONAL) == orthogonal_side else 1
        blocks = [from_AB(rho, HalfInt(tb), HalfInt(tb),
                          rng.choice((PLUS, MINUS)))]
    kept = [b for b in blocks
            if ((b.a + b.b) % 2 == 0) == (
                (b.rho.self_dual_type == ORTHOGONAL) == orthogonal_side)]
    psi = make_parameter(kept or blocks)
    assert "discrete_diag_restriction" in classify(psi)
    return psi


def random_elementary(rng: random.Random, max_blocks: int = 5,
                      max_alpha: int = 9) -> ArthurParameter:
    """A random elementary parameter."""
    rhos = _RHO_POOL[:rng.randint(1, 2)]
    orthogonal_side = rng.random() < 0.7
    blocks = []
    for rho in rhos:
        want_even_sum = (rho.self_dual_type == ORTHOGONAL) == orthogonal_side
        # elementary blocks have a+b = alpha+1
        parity = 1 if want_even_sum else 0  # alpha odd gives a+b even
        alphas = [al for al in range(1, max_alpha + 1) if al % 2 == parity]
        rng.shuffle(alphas)
        take = alphas[:rng.randint(0, min(max_blocks, len(alphas)))]
        for al in take:
            blocks.append(elementary_block(rho, al, rng.choice((PLUS, MINUS))))
    if not blocks:
        rho = rhos[0]
        parity = 1 if (rho.self_dual_type == ORTHOGONAL) == orthogonal_side \
            else 0
        blocks = [elementary_block(rho, 1 if parity else 2,
                                   rng.choice((PLUS, MINUS)))]
    psi = make_parameter(blocks)
    assert "elementary" in classify(psi)
    return psi


def random_discrete_pair(rng: random.Random, max_blocks: int = 5,
                         max_a: int = 9
                         ) -> Tuple[ArthurParameter, EpsMap]:
    """A tempered discrete parameter with an admissible character."""
    rhos = _RHO_POOL[:rng.randint(1, 2)]
    orthogonal_side = rng.random() < 0.7
    blocks = []
    for rho in rhos:
        want_even_sum = (rho.self_dual_type == ORTHOGONAL) == orthogonal_side
        parity = 1 if want_even_sum else 0
        sizes = [a for a in range(1, max_a + 1) if a % 2 == parity]
        rng.shuffle(sizes)
        take = sizes[:rng.randint(0, min(max_blocks, len(sizes)))]
        for a in take:
            blocks.append(JordanBlock(rho, a, 1))
    if not blocks:
        rho = rhos[0]
        parity = 1 if (rho.self_dual_type == ORTHOGONAL) == orthogonal_side \
            else 0
        blocks = [JordanBlock(rho, 1 if parity else 2, 1)]
    phi = make_parameter(blocks)
    signs = [rng.choice((1, -1)) for _ in phi.classes()]
    prod = 1
    for s in signs:
        prod *= s
    if prod != 1:
        signs[0] = -signs[0]
    eps = EpsMap({(b.rho.id, b.a): s for b, s in zip(phi.classes(), signs)})
    return phi, eps


# -- structured grids ---------------------------------------------------------

_RHO, _RHO_S = _RHO_POOL[0], _RHO_POOL[1]


def _block_pools() -> Tuple[List[JordanBlock], List[JordanBlock]]:
    """Two structured pools: one feeding symplectic and even orthogonal
    groups, one feeding odd orthogonal groups."""
    orthogonal_side = [
        JordanBlock(_RHO, 1, 1, 1, PLUS), JordanBlock(_RHO, 1, 1, 1, MINUS),
        JordanBlock(_RHO, 2, 2, 1, PLUS), JordanBlock(_RHO, 2, 2, 1, MINUS),
        JordanBlock(_RHO, 3, 1), JordanBlock(_RHO, 1, 3),
        JordanBlock(_RHO, 4, 2), JordanBlock(_RHO, 2, 4),
        JordanBlock(_RHO, 3, 3, 1, PLUS), JordanBlock(_RHO, 5, 1),
    ]
    symplectic_side = [
        JordanBlock(_RHO_S, 1, 1, 1, PLUS),
        JordanBlock(_RHO_S, 1, 1, 1, MINUS),
        JordanBlock(_RHO_S, 3, 1), JordanBlock(_RHO_S, 1, 3),
        JordanBlock(_RHO_S, 3, 3, 1, PLUS), JordanBlock(_RHO_S, 5, 1),
        JordanBlock(_RHO_S, 2, 2, 1, PLUS), JordanBlock(_RHO_S, 4, 2),
    ]
    return orthogonal_side, symplectic_side


def _ddr_grid() -> List[ArthurParameter]:
    """Structured DDR parameters over layered disjoint segments."""
    out = []
    layouts = [
        [(0, 2)], [(0, 4)], [(2, 4)], [(2, 6)], [(0, 0), (2, 4)],
        [(0, 2), (4, 6)], [(0, 2), (4, 4)], [(0, 4), (6, 8)],
        [(0, 0), (2, 2), (4, 6)], [(0, 0), (2, 4), (6, 6)],
        [(0, 2), (4, 6), (8, 8)], [(1, 3)], [(1, 5)], [(1, 3), (5, 7)],
        [(1, 1), (3, 5)], [(1, 1), (3, 3), (5, 7)],
    ]
    second_rho = [(), ((0, 0),), ((0, 2),), ((1, 1),), ((1, 3),)]
    for layout in layouts:
        for extra in second_rho:
            for zetas in itertools.product((PLUS, MINUS),
                                           repeat=len(layout) + len(extra)):
                blocks = [from_AB(_RHO, HalfInt(ta), HalfInt(tb), z)
                          for (tb, ta), z in zip(layout, zetas)]
                blocks += [from_AB(_RHO_S, HalfInt(ta + 1), HalfInt(tb + 1), z)
                           for (tb, ta), z in zip(
                               extra, zetas[len(layout):])]
                try:
                    psi = make_parameter(blocks)
                except DomainError:
                    continue
                if "discrete_diag_restriction" in classify(psi) and \
                        len(psi.instances()) <= 5:
                    out.append(psi)
    return out


def _elementary_grid() -> List[ArthurParameter]:
    """Every elementary parameter over a bounded size grid."""
    out = []
    for parity, sizes in ((1, (1, 3, 5, 7, 9)), (0, (2, 4, 6, 8))):
        rho = _RHO if parity == 1 else _RHO_S
        for r in range(1, len(sizes) + 1):
            for subset in itertools.combinations(sizes, r):
                for deltas in itertools.product((PLUS, MINUS), repeat=r):
                    blocks = [elementary_block(rho, al, d)
                              for al, d in zip(subset, deltas)]
                    out.append(make_parameter(blocks))
    return out


# -- verification families ----------------------------------------------------

@dataclass(frozen=True)
class Size:
    """How much of each family to run.

    ``full`` selects the acceptance draw counts and grids over the
    compact ones; Weyl catalog data of rank above ``rank_bound`` are
    skipped, and ``None`` keeps the whole catalog.
    """
    full: bool
    rank_bound: Optional[int]


FULL = Size(full=True, rank_bound=None)
COMPACT = Size(full=False, rank_bound=4)

# builtin generics, which typing's subscription cache does not keep alive
Family = collections.abc.Callable[[random.Random, Size], tuple[int, int]]


def _sign_laws(rng: random.Random, size: Size) -> Tuple[int, int]:
    """eps_MW/W is a character whose pairing with s_psi is the theta
    ratio; on DDR parameters eps_M/MW is trivial on s_psi."""
    checks = failures = 0
    for _ in range(10000 if size.full else 500):
        psi = random_pure_parameter(rng, max_blocks=6, max_ab=8, max_rhos=3)
        order = random_p_order(rng, psi)
        vec = eps_mw_w(psi, order)
        if vec.product() != 1:
            failures += 1
        if pair(vec, s_psi(psi)) != theta_ratio_mw_w(psi, order):
            failures += 1
        checks += 2
        if "discrete_diag_restriction" in classify(psi):
            m = eps_m_mw_ddr(psi)
            if m.product() != 1:
                failures += 1
            if pair(m, s_psi(psi)) != 1:
                failures += 1
            checks += 2
    return checks, failures


def _transfer_sign(rng: random.Random, size: Size) -> Tuple[int, int]:
    """The endoscopic transfer-sign identity for the extreme orders, over
    every parameter of up to three (compact: two) pool blocks."""
    checks = failures = 0
    for pool in _block_pools():
        for n in ((1, 2, 3) if size.full else (1, 2)):
            for combo in itertools.combinations_with_replacement(pool, n):
                if n > 1 and len({b.key() for b in combo}) < n:
                    continue  # repeated entries covered by mult elsewhere
                try:
                    psi = make_parameter(list(combo))
                except DomainError:
                    continue  # mixed-parity draw
                for order in (min_p_order(psi), max_p_order(psi)):
                    for s in enumerate_elements(psi):
                        if not sign_transfer_check(psi, s, order):
                            failures += 1
                        checks += 1
    return checks, failures


def _dominance(rng: random.Random, size: Size) -> Tuple[int, int]:
    """eps_M/MW is unchanged, position by position, by dominating shifts,
    explicit or chosen to reach discrete diagonal restriction."""
    checks = failures = 0
    while checks < (1000 if size.full else 200):
        psi = random_pure_parameter(rng, max_blocks=5)
        order = random_p_order(rng, psi)
        if rng.random() < 0.5:
            shifts = {i: rng.randint(0, 3)
                      for i in range(len(order.sequence))}
            try:
                psi_gg, order_gg = dominate(psi, order, shifts=shifts)
            except DomainError:
                continue  # the shifts break the order
        else:
            psi_gg, order_gg = dominate(psi, order, ensure_ddr=True)
        before = eps_m_mw_general(psi, order)
        after = eps_m_mw_general(psi_gg, order_gg)
        for pos in range(len(order.sequence)):
            i = psi.instances().index(order.sequence[pos])
            j = psi_gg.instances().index(order_gg.sequence[pos])
            if before.signs[i] != after.signs[j]:
                failures += 1
        checks += 1
    return checks, failures


def _eta_constraint(rng: random.Random, size: Size) -> Tuple[int, int]:
    """The eta-constraint equivalence for every cell with A <= 15/2."""
    checks = failures = 0
    for ta in range(0, 16):          # A = 0, 1/2, ..., 15/2
        for tb in range(ta % 2, ta + 1, 2):
            A, B = HalfInt(ta), HalfInt(tb)
            gap = (ta - tb) // 2 + 1
            for l in range(gap // 2 + 1):
                if not eta_constraint_check(A, B, l):
                    failures += 1
                checks += 1
    return checks, failures


def _census(rng: random.Random, size: Size) -> Tuple[int, int]:
    """Summed over all sign vectors, a parameter's packets have
    prod (A - B + 2) constituents, one factor per block."""
    checks = failures = 0
    # per block, exhaustively for A - B <= 7
    for gap in range(0, 8):
        for tb in (0, 1, 4):
            A, B = HalfInt(tb + 2 * gap), HalfInt(tb)
            for zeta in (PLUS, MINUS):
                psi = make_parameter([from_AB(_RHO, A, B, zeta)])
                total = 0
                for sign in (1, -1):
                    total += len(packet_constituents(
                        psi, SignVector(MULT, (sign,))))
                if total != gap + 2:
                    failures += 1
                checks += 1
    # random multi-block parameters
    for _ in range(1000 if size.full else 50):
        psi = random_pure_parameter(rng, max_blocks=3, max_ab=6)
        insts = psi.instances()
        expect = 1
        for blk, _ in insts:
            expect *= int(blk.A - blk.B) + 2
        total = 0
        for signs in itertools.product((1, -1), repeat=len(insts)):
            total += len(packet_constituents(psi, SignVector(MULT, signs)))
        if total != expect:
            failures += 1
        checks += 1
    return checks, failures


def _keyed(param: ArthurParameter, vec: SignVector) -> Dict[tuple, int]:
    """A sign vector on an elementary parameter, keyed by (label, alpha)."""
    return {(b.rho.id, elementary_alpha(b)): sg
            for (b, _), sg in zip(param.instances(), vec.signs)}


def _flip_involution(rng: random.Random, size: Size) -> Tuple[int, int]:
    """The Aubert flip is an involution, s_ratio and the pairing match
    their closed forms, and beta matches its defining product."""
    checks = failures = 0
    for _ in range(1000 if size.full else 30):
        psi = random_elementary(rng, max_blocks=4, max_alpha=7)
        rho = rng.choice(psi.rho_labels())
        max_alpha = max(elementary_alpha(b) for b in psi.blocks)
        for x0 in range(1, max_alpha + 2):
            for strict in (True, False):
                if aubert_flip(aubert_flip(psi, rho, x0, strict),
                               rho, x0, strict) != psi:
                    failures += 1
                checks += 1
            flipped = aubert_flip(psi, rho, x0)

            ratio = _keyed(psi, s_ratio(psi, x0, rho))
            combined = _keyed(psi, s_psi(psi))
            for k, v in _keyed(flipped, s_psi(flipped)).items():
                combined[k] *= v
            if ratio != combined:
                failures += 1
            checks += 1

            # pairing reproduces the closed form for every character
            insts = psi.instances()
            for eps in enumerate_characters(psi, S_GT_HAT_SIGMA0):
                eps_keyed = _keyed(psi, eps)
                eps_flip = SignVector(MULT, tuple(
                    eps_keyed[(b.rho.id, elementary_alpha(b))]
                    for b, _ in flipped.instances()))
                lhs = pair(eps, s_psi(psi)) * pair(eps_flip, s_psi(flipped))
                sizes = [elementary_alpha(b) for b in psi.blocks
                         if b.rho.id == rho.id]
                if sizes and sizes[0] % 2 == 0:
                    expected = 1
                    for (b, _), sg in zip(insts, eps.signs):
                        if b.rho.id == rho.id and elementary_alpha(b) < x0:
                            expected *= sg
                else:
                    expected = 1
                if lhs != expected:
                    failures += 1
                checks += 1

            # beta matches a direct evaluation of its defining product
            below = sorted(elementary_alpha(b) for b in psi.blocks
                           if b.rho.id == rho.id
                           and elementary_alpha(b) < x0)
            parity = ({a % 2 for a in
                       (elementary_alpha(b) for b in psi.blocks
                        if b.rho.id == rho.id)} or {1}).pop()
            direct = 1
            if parity == 1:
                k = len(below)
                direct = sign_pow(k * (k - 1) // 2)
                for al in below:
                    direct *= sign_pow((al - 1) // 2)
            else:
                for al in below:
                    direct *= sign_pow(al // 2)
            if beta_sign(psi, rho, x0) != direct:
                failures += 1
            checks += 1
    return checks, failures


def _cuspidal_support(rng: random.Random, size: Size) -> Tuple[int, int]:
    """Cuspidal-support reduction ends at a supercuspidal pair within
    sum(a) steps and removes exactly the dimension it reports."""
    checks = failures = 0
    for _ in range(1000 if size.full else 200):
        phi, eps = random_discrete_pair(rng)
        total_a = sum(b.a for b in phi.blocks)
        try:
            cusp, eps_c, trace = cuspidal_support(phi, eps)
        except Exception:
            failures += 1  # a crash is a failed check
            checks += 1
            continue
        ok = supercuspidal_test(cusp, eps_c)
        ok = ok and len(trace) <= total_a
        removed = sum(2 * seg.length * seg.rho.dim for _, seg in trace)
        ok = ok and removed + cusp.group.N == phi.group.N
        if not ok:
            failures += 1
        checks += 1
    return checks, failures


def _catalog_splits(size: Size) -> Iterator[W.SplitData]:
    """Every catalogued split of every datum within the rank bound."""
    for datum in W.datum_catalog():
        if size.rank_bound is None or datum.rank <= size.rank_bound:
            yield from W.catalog_split_data(datum)


def _weyl_catalog(rng: random.Random, size: Size) -> Tuple[int, int]:
    """Identities A and B, every alternating-sum row and the coset
    representatives of every catalogued split."""
    checks = failures = 0
    for data in _catalog_splits(size):
        report = W.verify_alternating_sum(data)
        for _, lhs, rhs in report.entries:
            if lhs != rhs:
                failures += 1
            checks += 1
        if not W.verify_identity_A(data):
            failures += 1
        if not W.verify_identity_B(data):
            failures += 1
        if not W.verify_coset_representatives(data):
            failures += 1
        checks += 3
    return checks, failures


def _per_levi(verify: Callable[[W.SplitData, W.LeviG], bool]) -> Family:
    """The family checking verify on every catalogued split and Levi."""
    def family(rng: random.Random, size: Size) -> Tuple[int, int]:
        checks = failures = 0
        for data in _catalog_splits(size):
            for levi in W.levi_g_all(data.res):
                if not verify(data, levi):
                    failures += 1
                checks += 1
        return checks, failures
    return family


def _bookkeeping(rng: random.Random, size: Size) -> Tuple[int, int]:
    """Endoscopic sign bookkeeping for every compound block and every
    centralizer element of the DDR grid (compact: a sample of it)."""
    grid = _ddr_grid()
    if not size.full:
        grid = rng.sample(grid, 20)
    checks = failures = 0
    for psi in grid:
        compounds = [inst for inst in psi.instances()
                     if inst[0].A != inst[0].B]
        for chosen in compounds:
            for s in enumerate_elements(psi):
                if not endoscopic_sign_bookkeeping(psi, s, chosen):
                    failures += 1
                checks += 1
    return checks, failures


def _variant_agreement(rng: random.Random, size: Size) -> Tuple[int, int]:
    """The elementary, DDR and general definitions of eps_M/MW agree
    wherever more than one applies."""
    checks = failures = 0
    for psi in _elementary_grid():
        order = natural_order(psi)
        elem = eps_m_mw_elementary(psi)
        ddr = eps_m_mw_ddr(psi)
        gen = eps_m_mw_general(psi, order)
        if not (elem.signs == ddr.signs == gen.signs):
            failures += 1
        checks += 1
    for psi in _ddr_grid():
        order = natural_order(psi)
        if eps_m_mw_ddr(psi).signs != eps_m_mw_general(psi, order).signs:
            failures += 1
        checks += 1
    return checks, failures


# name -> family; `arthurcalc selftest` reports one failure count per name
FAMILIES: Dict[str, Family] = {
    "sign_laws": _sign_laws,
    "transfer_sign": _transfer_sign,
    "dominance": _dominance,
    "eta_constraint": _eta_constraint,
    "census": _census,
    "flip_involution": _flip_involution,
    "cuspidal_support": _cuspidal_support,
    "weyl_catalog": _weyl_catalog,
    "bookkeeping": _bookkeeping,
    "variant_agreement": _variant_agreement,
    "intersection_prop": _per_levi(W.verify_intersection_prop),
    "algebraic_identity": _per_levi(W.verify_algebraic_identity),
}
