import random

import pytest

from arthurcalc.errors import NotDiscrete
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, RhoLabel
from arthurcalc.params import PLUS, JordanBlock, make_parameter
from arthurcalc.segments import (EVEN_MIN, GAP, NONE, PAIR, EpsMap,
                                 cuspidal_support, supercuspidal_test)
from arthurcalc.testing import random_discrete_pair
from reduction import parabolic_reduce_step

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _phi(*sizes, rho=RHO):
    return make_parameter([JordanBlock(rho, a, 1) for a in sizes])


def _eps(phi, values):
    return EpsMap({(b.rho.id, b.a): v
                   for b, v in zip(phi.blocks, values)})


def test_supercuspidal_spec_examples():
    phi = _phi(1, 3, 5)   # Sp(8): 1+3+5 = 9
    eps = _eps(phi, (-1, 1, -1))
    assert supercuspidal_test(phi, eps)

    from arthurcalc.errors import NotACharacter
    with pytest.raises(NotACharacter):
        supercuspidal_test(phi, _eps(phi, (1, -1, 1)))

    lonely = _phi(5, 1)  # {(rho,5)} plus filler to keep the product even
    assert not supercuspidal_test(lonely, _eps(lonely, (-1, -1)))

    with pytest.raises(NotDiscrete):
        supercuspidal_test(make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                                           JordanBlock(RHO, 1, 1, 1, PLUS)]),
                           EpsMap({}))


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


def test_epsmap_is_a_value():
    values = {("rho", 1): -1, ("rho", 3): -1}
    first, second = EpsMap(values), EpsMap(dict(values))
    assert first == second and hash(first) == hash(second)
    assert first != EpsMap({("rho", 1): 1, ("rho", 3): 1})
    values[("rho", 1)] = 1  # the map keeps its own copy
    assert first == second
    with pytest.raises(TypeError):
        first.values[("rho", 1)] = 1


def test_equal_cuspidal_supports_compare_equal():
    phi = _phi(1, 3, 7)
    first = cuspidal_support(phi, _eps(phi, (-1, 1, -1)))
    second = cuspidal_support(phi, _eps(phi, (-1, 1, -1)))
    assert first[2] and first == second


def test_cuspidal_support_checks_its_pair_once(monkeypatch):
    import arthurcalc.segments as segments
    calls = []
    for name in ("_require_discrete", "check_character"):
        real = getattr(segments, name)
        monkeypatch.setattr(segments, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    phi = _phi(1, 3, 7, 9)
    _, _, trace = cuspidal_support(phi, _eps(phi, (1, -1, 1, -1)))
    assert len(trace) == 2
    assert sorted(calls) == ["_require_discrete", "check_character"]


def test_reduction_steps_keep_the_invariants_checked_once():
    """cuspidal_support checks its pair only on entry; every pair a step
    builds is again discrete and its character lives on its blocks."""
    from arthurcalc.params import classify
    from arthurcalc.segments import _reduce_step, check_character
    rng = random.Random(5)
    steps = 0
    for _ in range(200):
        phi, eps = random_discrete_pair(rng)
        step = _reduce_step(phi, eps)
        while step.kind != NONE:
            steps += 1
            assert "discrete" in classify(step.phi)
            check_character(step.phi, step.eps)
            step = _reduce_step(step.phi, step.eps)
    assert steps > 400
