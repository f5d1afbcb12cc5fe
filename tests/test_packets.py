import itertools
import random

import pytest

from arthurcalc.charspace import (CLASS, MULT, SignVector,
                                  enumerate_characters, S_GT_HAT_SIGMA0,
                                  eps_zero)
from arthurcalc.errors import OutOfRange, SupportMismatch
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import ORTHOGONAL, QuadCharacter, RhoLabel
from arthurcalc.packets import (GUARANTEED, UNDECIDED, LEtaPair, _gaps,
                                enumerate_l_eta, eps_from_l_eta, equiv,
                                equiv_sigma0, eta0, eta_constraint_check,
                                l_range_max, packet_constituents,
                                translate_m_w)
from arthurcalc.params import (PLUS, JordanBlock, SO_EVEN, classify, from_AB,
                               make_parameter)
from arthurcalc.testing import (_ddr_grid, random_p_order,
                                random_pure_parameter)

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _single(ta, tb, zeta=PLUS):
    return make_parameter([from_AB(RHO, HalfInt(ta), HalfInt(tb), zeta)])


def test_eps_from_l_eta_spec_examples():
    # A = B: eps = eta
    psi = _single(2, 2)
    for eta in (1, -1):
        assert eps_from_l_eta(psi, LEtaPair((0,), (eta,))).signs == (eta,)

    # (A, B) = (2, 1)
    psi2 = _single(4, 2)
    for eta in (1, -1):
        assert eps_from_l_eta(psi2, LEtaPair((0,), (eta,))).signs == (-1,)
        assert eps_from_l_eta(psi2, LEtaPair((1,), (eta,))).signs == (1,)

    # (A, B) = (1, 0): l = 1 gives +1 for both eta
    psi3 = _single(2, 0)
    for eta in (1, -1):
        assert eps_from_l_eta(psi3, LEtaPair((1,), (eta,))).signs == (1,)

    with pytest.raises(OutOfRange):
        eps_from_l_eta(psi2, LEtaPair((2,), (1,)))


def test_eta_constraint_spec_cells():
    assert eta_constraint_check(HalfInt(4), HalfInt(2), 0)
    assert eta_constraint_check(HalfInt(4), HalfInt(2), 1)
    assert eta_constraint_check(HalfInt(3), HalfInt(1), 0)


def test_eta_constraint_exhaustive_small():
    for ta in range(0, 16):
        for tb in range(ta % 2, ta + 1, 2):
            A, B = HalfInt(ta), HalfInt(tb)
            for l in range(((ta - tb) // 2 + 1) // 2 + 1):
                assert eta_constraint_check(A, B, l), (ta, tb, l)


def test_l_range():
    assert l_range_max(from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)) == 1
    assert l_range_max(from_AB(RHO, HalfInt(2), HalfInt(2), PLUS)) == 0
    assert l_range_max(from_AB(RHO, HalfInt(14), HalfInt(0), PLUS)) == 4


def test_enumerate_l_eta_spec_examples():
    single = _single(2, 2)
    assert len(enumerate_l_eta(single)) == 2

    psi2 = _single(4, 2)
    assert len(enumerate_l_eta(psi2)) == 4

    # no pair attains a +1 at l = 0 and a -1 at l = 1 simultaneously
    filt = SignVector(MULT, (1,))
    got = enumerate_l_eta(psi2, filter_eps=filt)
    assert [(p.l, p.eta) for p in got] == [((1,), (1,)), ((1,), (-1,))]


def test_equiv_sigma0_spec_examples():
    psi = _single(2, 0)  # (A, B) = (1, 0), max l = 1
    p = LEtaPair((1,), (1,))
    q = LEtaPair((1,), (-1,))
    assert equiv_sigma0(psi, p, q)   # l = (A-B+1)/2 collapses eta
    assert equiv_sigma0(psi, p, p)

    psi2 = _single(4, 2)  # (A, B) = (2, 1)
    p2 = LEtaPair((0,), (1,))
    q2 = LEtaPair((0,), (-1,))
    assert not equiv_sigma0(psi2, p2, q2)
    # l = 1 = (A-B+1)/2 collapses here as well
    assert equiv_sigma0(psi2, LEtaPair((1,), (1,)), LEtaPair((1,), (-1,)))


def test_eta0_and_coarser_equivalence():
    soeven = make_parameter(
        [from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
         from_AB(RHO, HalfInt(6), HalfInt(4), PLUS)],
        eta=QuadCharacter.of("e"))
    assert soeven.group.kind == SO_EVEN
    tw = eta0(soeven)
    assert tw.signs == (-1, -1)  # d = 1 odd, both A integral

    p = LEtaPair((0, 0), (1, 1))
    q = LEtaPair((0, 0), (-1, -1))
    assert not equiv_sigma0(soeven, p, q)
    assert equiv(soeven, p, q)  # differ exactly by the twist

    sp = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(2), PLUS)])
    assert sp.group.kind == "Sp"
    assert all(s == 1 for s in eta0(sp).signs)


def test_eta0_consistency_with_orientation_character():
    rng = random.Random(5)
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=4)
        tw = eta0(psi)
        orient = eps_zero(psi, MULT)
        for (blk, _), t, e in zip(psi.instances(), tw.signs, orient.signs):
            gap = int(blk.A - blk.B) + 1
            assert (t if gap % 2 else 1) == e


def test_packet_constituents_census_single_block():
    psi = _single(4, 2)  # (A, B) = (2, 1)
    minus = packet_constituents(psi, SignVector(MULT, (-1,)))
    plus = packet_constituents(psi, SignVector(MULT, (1,)))
    assert len(minus) == 2   # (0, +), (0, -)
    assert len(plus) == 1    # (1, +-) collapsed at maximal l
    assert len(minus) + len(plus) == 2 - 1 + 2  # A - B + 2
    assert all(c.status == GUARANTEED for c in minus + plus)


def test_census_per_block_range():
    for gap_twice in range(0, 15, 2):  # A - B = gap
        psi = _single(gap_twice, 0) if gap_twice % 4 in (0, 2) else None
        if psi is None:
            continue
        total = 0
        for sign in (1, -1):
            total += len(packet_constituents(psi, SignVector(MULT, (sign,))))
        assert total == gap_twice // 2 + 2


def test_census_multi_block():
    rng = random.Random(15)
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=3, max_ab=6)
        insts = psi.instances()
        expect = 1
        for blk, _ in insts:
            expect *= int(blk.A - blk.B) + 2
        total = 0
        for signs in itertools.product((1, -1), repeat=len(insts)):
            total += len(packet_constituents(psi,
                                             SignVector(MULT, signs)))
        assert total == expect


def test_constituents_status_undecided_off_ddr():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    out = packet_constituents(psi, SignVector(MULT, (1, -1, -1)))
    assert out and all(c.status == UNDECIDED for c in out)


def test_eps_l_eta_twist_identity():
    rng = random.Random(25)
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=4)
        pairs = enumerate_l_eta(psi)
        if not pairs:
            continue
        pair_ = pairs[rng.randrange(len(pairs))]
        tw = eta0(psi)
        twisted = LEtaPair(pair_.l, tuple(e * t for e, t in
                                          zip(pair_.eta, tw.signs)))
        lhs = eps_from_l_eta(psi, twisted)
        rhs = eps_from_l_eta(psi, pair_).pointwise(eps_zero(psi, MULT))
        assert lhs.signs == rhs.signs


def test_translate_m_w_multiplicity_free():
    rng = random.Random(35)
    hits = 0
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=4)
        if any(b.mult > 1 for b in psi.blocks):
            continue
        order = random_p_order(rng, psi)
        for eps in enumerate_characters(psi, S_GT_HAT_SIGMA0)[:8]:
            out = translate_m_w(psi, eps, order)
            assert out is not None
            hits += 1
    assert hits > 50


def test_translate_m_w_descent_failure():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS),
                          JordanBlock(RHO, 3, 1)],
                         eta=QuadCharacter.of("e"))
    from arthurcalc.params import BlockOrder as BO
    order = BO(tuple(psi.instances()))
    # non-constant on the two copies of the repeated block, product one
    insts = psi.instances()
    signs = []
    seen_copy = 0
    for blk, k in insts:
        if blk.a == 2 and blk.b == 2:
            signs.append(1 if k == 0 else -1)
        else:
            signs.append(1 if seen_copy else -1)
            seen_copy += 1
    eps = SignVector(MULT, tuple(signs))
    assert eps.product() == 1
    assert translate_m_w(psi, eps, order) is None


def test_translate_m_w_injective():
    rng = random.Random(45)
    for _ in range(60):
        psi = random_pure_parameter(rng, max_blocks=4)
        if any(b.mult > 1 for b in psi.blocks):
            continue
        order = random_p_order(rng, psi)
        seen = {}
        for eps in enumerate_characters(psi, S_GT_HAT_SIGMA0):
            out = translate_m_w(psi, eps, order)
            if out is None:
                continue
            assert out.signs not in seen
            seen[out.signs] = eps


def test_enumeration_bound():
    import pytest as _pytest
    from arthurcalc.errors import TooLarge
    blocks = [from_AB(RHO, HalfInt(2 * k), HalfInt(2 * k), PLUS)
              for k in range(0, 8)]
    psi = make_parameter(blocks)
    with _pytest.raises(TooLarge):
        enumerate_l_eta(psi, bound=4)


@pytest.mark.parametrize("support,signs,message", [
    (MULT, (1, 1), "2 signs given for 3 block instances"),
    (MULT, (1, 1, 1, 1), "4 signs given for 3 block instances"),
    (CLASS, (1, 1, 1), "eps has class support where mult is needed"),
], ids=["short", "long", "class"])
def test_eps_off_the_instances_is_refused(support, signs, message):
    psi = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    eps = SignVector(support, signs)
    for call in (packet_constituents, enumerate_l_eta):
        with pytest.raises(SupportMismatch, match=f"^{message}$"):
            call(psi, eps)
    # refused before the enumeration bound is looked at
    big = make_parameter([from_AB(RHO, HalfInt(2 * k), HalfInt(2 * k), PLUS)
                          for k in range(8)])
    with pytest.raises(SupportMismatch):
        enumerate_l_eta(big, SignVector(support, signs), bound=2)


def test_translate_m_w_compatible_with_products():
    rng = random.Random(55)
    rounds = 0
    for _ in range(60):
        psi = random_pure_parameter(rng, max_blocks=4)
        if any(b.mult > 1 for b in psi.blocks):
            continue
        order = random_p_order(rng, psi)
        chars = enumerate_characters(psi, S_GT_HAT_SIGMA0)
        for e1 in chars[:4]:
            for e2 in chars[:4]:
                t1 = translate_m_w(psi, e1, order)
                t2 = translate_m_w(psi, e2, order)
                if t1 is None or t2 is None:
                    continue
                # the twists cancel pairwise, leaving the plain product
                from arthurcalc.charspace import cont
                product = cont(psi, e1.pointwise(e2))
                assert t1.pointwise(t2).signs == product.signs
                rounds += 1
    assert rounds > 50


def _census_via_constraint(blk, target):
    """Count constituent classes through the recursion constraint on eta.

    Independent route: a pair is admissible when the product of bracket
    signs over [B+l, A-l] matches the requested character value through
    eta**(A-B+1); both eta values collapse exactly on the empty range.
    """
    from arthurcalc.halfint import bracket_sign, hrange
    A, B = blk.A, blk.B
    gap = int(A - B) + 1
    count = 0
    for l in range(gap // 2 + 1):
        prod = 1
        for C in hrange(B + l, A - l):
            prod *= bracket_sign(C)
        valid = [eta for eta in (1, -1)
                 if (eta if gap % 2 else 1) * prod == target]
        if 2 * l == gap:
            count += 1 if valid else 0  # empty range: one term per value
        else:
            count += len(valid)
    return count


def test_census_matches_constraint_route():
    for gap in range(0, 8):
        for tb in (0, 1, 3):
            blk = from_AB(RHO, HalfInt(tb + 2 * gap), HalfInt(tb), PLUS)
            psi = make_parameter([blk])
            for target in (1, -1):
                direct = len(packet_constituents(
                    psi, SignVector(MULT, (target,))))
                assert direct == _census_via_constraint(blk, target), \
                    (gap, tb, target)


def _reference_constituents(psi, eps):
    """Classes of the enumerated pairs under the public, range-checked
    equiv_sigma0, in first-seen order, with their status."""
    status = GUARANTEED if "discrete_diag_restriction" in classify(psi) \
        else UNDECIDED
    classes = []
    for pair in enumerate_l_eta(psi, filter_eps=eps):
        for cls in classes:
            if equiv_sigma0(psi, cls[0], pair):
                cls.append(pair)
                break
        else:
            classes.append([pair])
    return [(cls[0], tuple(cls), status) for cls in classes]


def _assert_constituents_match_reference(psi):
    merged = 0
    n = len(psi.instances())
    for signs in itertools.product((1, -1), repeat=n):
        eps = SignVector(MULT, signs)
        got = [(c.representative, c.members, c.status)
               for c in packet_constituents(psi, eps)]
        assert got == _reference_constituents(psi, eps), (psi, signs)
        merged += sum(len(members) > 1 for _, members, _ in got)
    return merged


def test_packet_constituents_match_public_equivalence():
    merged = sum(_assert_constituents_match_reference(psi)
                 for psi in _ddr_grid() if len(psi.instances()) >= 2)
    # eta collapses (2l = A - B + 1) merge pairs in many cells
    assert merged > 0


def test_packet_constituents_match_reference_off_ddr():
    # two parameters with a block of multiplicity 2 and one whose
    # segments overlap: none is DDR
    params = [
        make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS, mult=2),
                        JordanBlock(RHO, 1, 1, 1, PLUS)]),
        make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                        JordanBlock(RHO, 1, 1, 1, PLUS)]),
        make_parameter([from_AB(RHO, HalfInt(4), HalfInt(0), PLUS),
                        from_AB(RHO, HalfInt(2), HalfInt(2), PLUS)]),
    ]
    assert [max(b.mult for b in psi.blocks) for psi in params] == [2, 2, 1]
    merged = 0
    for psi in params:
        assert "discrete_diag_restriction" not in classify(psi)
        merged += _assert_constituents_match_reference(psi)
    assert merged > 0


def test_gaps_are_a_minus_b_plus_one_on_instances():
    rng = random.Random(21)
    repeated = 0
    for _ in range(200):
        psi = random_pure_parameter(rng, max_blocks=6, max_ab=4)
        assert _gaps(psi) == tuple(int(blk.A - blk.B) + 1
                                   for blk, _ in psi.instances()), psi
        repeated += any(b.mult > 1 for b in psi.blocks)
    assert repeated > 10


def test_equiv_sigma0_checks_ranges():
    psi = make_parameter([from_AB(RHO, HalfInt(0), HalfInt(0), PLUS),
                          from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)])
    inside = LEtaPair((0, 1), (1, 1))
    outside = LEtaPair((0, 2), (1, 1))  # l = 2 > [(A - B + 1)/2] = 1
    assert equiv_sigma0(psi, inside, inside)
    with pytest.raises(OutOfRange):
        equiv_sigma0(psi, inside, outside)
    with pytest.raises(OutOfRange):
        equiv_sigma0(psi, outside, inside)
    with pytest.raises(OutOfRange):
        equiv(psi, inside, outside)
