import random

import pytest

from arthurcalc.charspace import (CLASS, MULT, S_GT_HAT_SIGMA0, SignVector,
                                  cont, constant, enumerate_characters,
                                  enumerate_elements, eps_zero, ext,
                                  in_character_space, in_element_space, pair,
                                  s_psi)
from arthurcalc.errors import SupportMismatch
from arthurcalc.labels import ORTHOGONAL, QuadCharacter, RhoLabel
from arthurcalc.params import (PLUS, ArthurParameter, GroupForm, JordanBlock,
                               SO_EVEN, make_parameter)
from arthurcalc.testing import random_pure_parameter

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _psi_22_11():
    return make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])


def test_s_psi_spec_examples():
    psi = _psi_22_11()
    # canonical instance order sorts (1,1) before (2,2)
    assert s_psi(psi).signs == (1, -1)
    tempered = make_parameter([JordanBlock(RHO, 3, 1), JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert all(s == 1 for s in s_psi(tempered).signs)
    assert s_psi(make_parameter([JordanBlock(RHO, 1, 3)])).signs == (1,)


def test_s_zero_eps_zero():
    psi = _psi_22_11()
    assert all(s == 1 for s in eps_zero(psi).signs)  # symplectic group

    soeven = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                             JordanBlock(RHO, 1, 1, 1, PLUS),
                             JordanBlock(RHO, 3, 1)],
                            eta=QuadCharacter.of("e"))
    assert soeven.group.kind == SO_EVEN
    vec = eps_zero(soeven)
    dims = [b.dim for b, _ in soeven.instances()]
    assert all((s == -1) == (d % 2 == 1) for s, d in zip(vec.signs, dims))


def test_cont_products():
    psi = ArthurParameter(GroupForm(SO_EVEN, 4, QuadCharacter.of("e")),
                          (JordanBlock(RHO, 2, 2, 2, PLUS),))
    v = SignVector(MULT, (-1, -1))
    assert cont(psi, v).signs == (1,)
    v2 = SignVector(MULT, (-1, 1))
    assert cont(psi, v2).signs == (-1,)
    # multiplicity-free: identity
    psi2 = _psi_22_11()
    v3 = SignVector(MULT, (-1, 1))
    assert cont(psi2, v3).signs == (-1, 1)
    psi3 = ArthurParameter(GroupForm(SO_EVEN, 6, QuadCharacter.of("e")),
                           (JordanBlock(RHO, 2, 2, 3, PLUS),))
    assert cont(psi3, SignVector(MULT, (-1, -1, -1))).signs == (-1,)


def test_pair_spec_examples():
    e = SignVector(MULT, (1, 1))
    s = SignVector(MULT, (-1, -1))
    assert pair(e, s) == 1
    assert pair(SignVector(MULT, (-1, 1)), SignVector(MULT, (-1, 1))) == -1
    assert pair(SignVector(MULT, (-1, -1)), SignVector(MULT, (-1, -1))) == 1
    with pytest.raises(SupportMismatch):
        pair(SignVector(MULT, (1, 1)), SignVector(CLASS, (1, 1)))


def test_adjointness_property():
    rng = random.Random(3)
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=4)
        insts = psi.instances()
        classes = psi.classes()
        eps = SignVector(CLASS, tuple(rng.choice((1, -1)) for _ in classes))
        s = SignVector(MULT, tuple(rng.choice((1, -1)) for _ in insts))
        assert pair(ext(psi, eps), s) == pair(eps, cont(psi, s))


def test_character_space_membership():
    psi = _psi_22_11()
    assert in_character_space(constant(psi, MULT), psi, S_GT_HAT_SIGMA0)
    assert not in_character_space(SignVector(MULT, (-1, 1)), psi,
                                  S_GT_HAT_SIGMA0)
    assert in_character_space(SignVector(MULT, (-1, -1)), psi,
                              S_GT_HAT_SIGMA0)


def test_element_space_determinant_condition():
    soeven = make_parameter([JordanBlock(RHO, 3, 1),
                             JordanBlock(RHO, 1, 1, 1, PLUS)],
                            eta=QuadCharacter.of("e"))
    assert soeven.group.kind == SO_EVEN
    # both blocks are odd-dimensional: a lone -1 breaks the condition
    assert not in_element_space(SignVector(MULT, (-1, 1)), soeven)
    assert in_element_space(SignVector(MULT, (-1, -1)), soeven)


def test_enumerate_characters_counts():
    single = make_parameter([JordanBlock(RHO, 3, 1)])
    assert [v.signs for v in enumerate_characters(single, S_GT_HAT_SIGMA0)] \
        == [(1,)]

    three = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                            JordanBlock(RHO, 3, 1), JordanBlock(RHO, 5, 1)])
    chars = enumerate_characters(three, S_GT_HAT_SIGMA0)
    assert len(chars) == 4  # 2^3 / 2

    empty = ArthurParameter(GroupForm(SO_EVEN, 0, QuadCharacter.of("e")), ())
    assert [v.signs for v in enumerate_characters(empty, S_GT_HAT_SIGMA0)] \
        == [()]


def test_enumeration_closed_under_product():
    rng = random.Random(11)
    for _ in range(20):
        psi = random_pure_parameter(rng, max_blocks=4)
        chars = enumerate_characters(psi, S_GT_HAT_SIGMA0)
        sigs = {v.signs for v in chars}
        ident = constant(psi, MULT)
        assert ident.signs in sigs
        for a in chars[:4]:
            for b in chars[:4]:
                prod = a.pointwise(b)
                assert in_character_space(prod, psi, S_GT_HAT_SIGMA0)


def test_canonical_elements_satisfy_determinant_condition():
    # the central and SL(2)-image vectors always pass the determinant
    # condition on even orthogonal groups
    import random as _random
    from arthurcalc.testing import random_pure_parameter as _rpp
    rng = _random.Random(51)
    seen = 0
    for _ in range(200):
        psi = _rpp(rng, max_blocks=5)
        if psi.group.kind != SO_EVEN:
            continue
        assert in_element_space(s_psi(psi), psi)
        assert in_element_space(constant(psi, MULT, -1), psi)
        seen += 1
    assert seen > 20


def test_enumeration_bound_characters():
    import pytest as _pytest
    from arthurcalc.errors import TooLarge
    # 21 instances, one above the bound: refused before the 2^21 loop
    many = make_parameter([JordanBlock(RHO, 1, 1, 21, PLUS)])
    with _pytest.raises(TooLarge, match="^21 blocks exceeds bound 20$"):
        enumerate_characters(many, S_GT_HAT_SIGMA0)
    with _pytest.raises(TooLarge, match="^21 blocks exceeds bound 20$"):
        enumerate_elements(many)
