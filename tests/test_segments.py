import random

import pytest

from arthurcalc.errors import (DomainError, NotDiscrete, NotDominating)
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, RhoLabel
from arthurcalc.params import (MINUS, PLUS, JordanBlock, from_AB,
                               make_parameter)
from arthurcalc.segments import (EVEN_MIN, GAP, NONE, PAIR, EpsMap,
                                 GeneralizedSegment, cuspidal_reducibility_point,
                                 cuspidal_support, jac_chain_possible,
                                 jac_multiplicity_bound, parabolic_reduce_step,
                                 shift_matrix, speh_matrix,
                                 supercuspidal_test)
from arthurcalc.testing import random_discrete_pair

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _tw(matrix):
    return tuple(tuple(x.twice for x in row) for row in matrix.entries)


def test_speh_matrix_spec_examples():
    gs = speh_matrix(RHO, 3, 2)
    assert _tw(gs) == ((1, -1, -3), (3, 1, -1))  # halves of 1/2,-1/2,-3/2 ...

    st = speh_matrix(RHO, 4, 1)
    assert _tw(st) == ((3, 1, -1, -3),)

    assert _tw(speh_matrix(RHO, 1, 1)) == ((0,),)


def test_shift_matrix_spec_examples():
    big = from_AB(RHO, HalfInt(8), HalfInt(6), PLUS)
    small = from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)
    gs = shift_matrix(big, small)
    assert _tw(gs) == ((6, 4), (8, 6))  # [[3,2],[4,3]]

    big2 = from_AB(RHO, HalfInt(2), HalfInt(2), MINUS)
    small2 = from_AB(RHO, HalfInt(0), HalfInt(0), MINUS)
    assert _tw(shift_matrix(big2, small2)) == ((-2,),)  # [[-1]]

    with pytest.raises(NotDominating):
        shift_matrix(small, small)


def test_transpose():
    one = speh_matrix(RHO, 1, 1)
    assert one.transpose().entries == one.entries
    gs = speh_matrix(RHO, 3, 2)
    assert gs.transpose().shape == (3, 2)
    assert gs.transpose().transpose().entries == gs.entries


def test_generalized_segment_invariants():
    rng = random.Random(2)
    for _ in range(40):
        a, b = rng.randint(1, 5), rng.randint(1, 4)
        gs = speh_matrix(RHO, a, b)
        assert gs.shape == (b, a)
        gs.transpose()  # revalidates on construction
    with pytest.raises(DomainError):
        GeneralizedSegment(RHO, ((HalfInt(0), HalfInt(4)),))


def test_shift_matrix_always_valid():
    rng = random.Random(3)
    for _ in range(60):
        tb = rng.randint(0, 4)
        ta = tb + 2 * rng.randint(0, 3)
        t = rng.randint(1, 3)
        zeta = rng.choice((PLUS, MINUS))
        small = from_AB(RHO, HalfInt(ta), HalfInt(tb), zeta)
        big = from_AB(RHO, HalfInt(ta + 2 * t), HalfInt(tb + 2 * t), zeta)
        gs = shift_matrix(big, small)
        assert gs.shape == ((ta - tb) // 2 + 1, t)


def test_jac_chain_spec_examples():
    psi = make_parameter([from_AB(RHO, HalfInt(4), HalfInt(2), PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert jac_chain_possible(psi, RHO, PLUS, HalfInt(2), HalfInt(4))
    assert not jac_chain_possible(psi, RHO, PLUS, HalfInt(4), HalfInt(4))
    assert jac_chain_possible(psi, RHO, PLUS, HalfInt(2), HalfInt(2))
    assert jac_chain_possible(psi, RHO, PLUS, HalfInt(0), HalfInt(0))
    assert not jac_chain_possible(psi, RHO, MINUS, HalfInt(2), HalfInt(2))


def test_jac_chain_monotone():
    rng = random.Random(4)
    for _ in range(60):
        base = [from_AB(RHO, HalfInt(2), HalfInt(0), PLUS)]
        psi = make_parameter(base)
        bigger = make_parameter(base + [from_AB(RHO, HalfInt(8), HalfInt(6),
                                                PLUS)])
        for tx in (0, 2, 4, 6):
            for ty in (tx, tx + 2, tx + 4):
                before = jac_chain_possible(psi, RHO, PLUS, HalfInt(tx),
                                            HalfInt(ty))
                after = jac_chain_possible(bigger, RHO, PLUS, HalfInt(tx),
                                           HalfInt(ty))
                assert after or not before  # enlarging never flips to False


def test_jac_chain_multi_block():
    # chain must step through overlapping supports
    psi = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
                          from_AB(RHO, HalfInt(6), HalfInt(4), PLUS)])
    assert jac_chain_possible(psi, RHO, PLUS, HalfInt(0), HalfInt(6))
    gap = make_parameter([from_AB(RHO, HalfInt(0), HalfInt(0), PLUS),
                          from_AB(RHO, HalfInt(6), HalfInt(6), PLUS)])
    assert not jac_chain_possible(gap, RHO, PLUS, HalfInt(0), HalfInt(6))


def test_jac_multiplicity_bound():
    psi = make_parameter([from_AB(RHO, HalfInt(4), HalfInt(2), PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert jac_multiplicity_bound(psi, RHO, HalfInt(4), 1)   # no block there
    assert not jac_multiplicity_bound(psi, RHO, HalfInt(2), 1)
    assert jac_multiplicity_bound(psi, RHO, HalfInt(2), 2)

    two = make_parameter([from_AB(RHO, HalfInt(4), HalfInt(2), PLUS),
                          from_AB(RHO, HalfInt(8), HalfInt(2), PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert not jac_multiplicity_bound(two, RHO, HalfInt(2), 2)
    assert jac_multiplicity_bound(two, RHO, HalfInt(2), 3)


def _phi(*sizes, rho=RHO):
    return make_parameter([JordanBlock(rho, a, 1) for a in sizes])


def test_cuspidal_reducibility_spec_examples():
    phi = _phi(1, 3, 5)
    assert cuspidal_reducibility_point(phi, RHO) == 5

    other = RhoLabel("other", 2, SYMPLECTIC)  # opposite to SO-dual of Sp
    assert cuspidal_reducibility_point(phi, other) == 0

    from arthurcalc.labels import NOT_SELF_DUAL
    nsd = RhoLabel("nsd", 1, NOT_SELF_DUAL)
    assert cuspidal_reducibility_point(phi, nsd) == -1

    with pytest.raises(NotDiscrete):
        cuspidal_reducibility_point(
            make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                            JordanBlock(RHO, 1, 1, 1, PLUS)]), RHO)


def _eps(phi, values):
    return EpsMap({(b.rho.id, b.a): v
                   for b, v in zip(phi.classes(), values)})


def test_supercuspidal_spec_examples():
    phi = _phi(1, 3, 5)   # Sp(8): 1+3+5 = 9
    eps = _eps(phi, (-1, 1, -1))
    assert supercuspidal_test(phi, eps)

    from arthurcalc.errors import NotACharacter
    with pytest.raises(NotACharacter):
        supercuspidal_test(phi, _eps(phi, (1, -1, 1)))

    lonely = _phi(5, 1)  # {(rho,5)} plus filler to keep the product even
    assert not supercuspidal_test(lonely, _eps(lonely, (-1, -1)))


def test_parabolic_reduction_gap_case():
    phi = _phi(7, 3, 1)
    eps = EpsMap({("rho", 1): -1, ("rho", 3): 1, ("rho", 7): -1})
    step = parabolic_reduce_step(phi, eps)
    assert step.kind == GAP
    seg = step.segments[0]
    assert (seg.x.twice, seg.y.twice) == (6, 6)  # <3>
    assert sorted(b.a for b in step.phi.blocks) == [1, 3, 5]
    assert step.eps[("rho", 5)] == -1  # transported value


def test_parabolic_reduction_pair_case():
    phi = _phi(5, 3, 1)
    eps = EpsMap({("rho", 1): 1, ("rho", 3): -1, ("rho", 5): -1})
    step = parabolic_reduce_step(phi, eps)
    assert step.kind == PAIR
    seg = step.segments[0]
    assert (seg.x.twice, seg.y.twice) == (4, -2)  # <2,...,-1>
    assert sorted(b.a for b in step.phi.blocks) == [1]


def test_parabolic_reduction_even_min_case():
    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    phi = make_parameter([JordanBlock(rho2, 2, 1), JordanBlock(rho2, 4, 1)])
    eps = EpsMap({("sig", 2): 1, ("sig", 4): 1})
    step = parabolic_reduce_step(phi, eps)
    assert step.kind == EVEN_MIN
    seg = step.segments[0]
    assert (seg.x.twice, seg.y.twice) == (1, 1)  # <1/2>
    assert sorted(b.a for b in step.phi.blocks) == [4]


def test_parabolic_reduction_terminal():
    phi = _phi(1, 3, 5)
    eps = _eps(phi, (-1, 1, -1))
    assert parabolic_reduce_step(phi, eps).kind == NONE


def test_pair_case_companion_character():
    phi = _phi(5, 3, 1)
    eps = EpsMap({("rho", 1): 1, ("rho", 3): -1, ("rho", 5): -1})
    eps1 = EpsMap({("rho", 1): 1, ("rho", 3): 1, ("rho", 5): 1})
    s1 = parabolic_reduce_step(phi, eps)
    s2 = parabolic_reduce_step(phi, eps1)
    assert s1.kind == s2.kind == PAIR
    assert s1.phi == s2.phi
    assert s1.eps.values == s2.eps.values


def test_cuspidal_support_spec_trace():
    phi = _phi(7, 3, 1)
    eps = EpsMap({("rho", 1): -1, ("rho", 3): 1, ("rho", 7): -1})
    cusp, eps_c, trace = cuspidal_support(phi, eps)
    assert supercuspidal_test(cusp, eps_c)
    assert sorted(b.a for b in cusp.blocks) == [1, 3, 5]

    sc = _phi(1, 3, 5)
    eps_sc = _eps(sc, (-1, 1, -1))
    cusp2, _, trace2 = cuspidal_support(sc, eps_sc)
    assert cusp2 == sc and trace2 == []


def test_cuspidal_support_random_invariants():
    rng = random.Random(17)
    for _ in range(300):
        phi, eps = random_discrete_pair(rng)
        total_a = sum(b.a for b in phi.blocks)
        cusp, eps_c, trace = cuspidal_support(phi, eps)
        assert supercuspidal_test(cusp, eps_c)
        assert len(trace) <= total_a
        removed = 0
        for kind, seg in trace:
            removed += 2 * seg.length * seg.rho.dim
        assert removed + cusp.group.N == phi.group.N
