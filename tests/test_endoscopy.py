import random

import pytest

from arthurcalc.charspace import (MULT, SignVector, enumerate_elements,
                                  in_element_space)
from arthurcalc.endoscopy import (elliptic_datum, eta_block,
                                  sign_transfer_check, twisted_datum)
from arthurcalc.errors import BadDimensionSplit, NotApplicable, SupportMismatch
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, QuadCharacter, RhoLabel
from arthurcalc.params import (PLUS, JordanBlock, SO_EVEN, SO_ODD, SP,
                               make_parameter)
from arthurcalc.testing import random_p_order, random_pure_parameter

from block_orders import all_p_orders

RHO = RhoLabel("rho", 1, ORTHOGONAL, QuadCharacter.of("g"))
RHO_TRIV = RhoLabel("triv", 1, ORTHOGONAL)


def test_eta_block():
    assert eta_block(JordanBlock(RHO, 4, 2)).is_trivial()
    assert eta_block(JordanBlock(RHO, 1, 1, 1, PLUS)) == QuadCharacter.of("g")
    assert eta_block(JordanBlock(RHO, 3, 3, 1, PLUS)) == QuadCharacter.of("g")
    assert eta_block(JordanBlock(RHO_TRIV, 1, 1, 1, PLUS)).is_trivial()


def test_elliptic_symplectic_spec_example():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert psi.group.kind == SP
    # canonical instances: (1,1) first; s = +1 on (1,1), -1 on (2,2)
    s = SignVector(MULT, (1, -1))
    datum = elliptic_datum(psi, s)
    assert datum.psi_one.group.kind == SP and datum.psi_one.group.n == 0
    assert datum.psi_two.group.kind == SO_EVEN and datum.psi_two.group.n == 2
    assert datum.eta_two == eta_block(JordanBlock(RHO, 2, 2, 1, PLUS))
    assert datum.eta_two.is_trivial()  # a*b = 4 even
    assert [b.a for b in datum.psi_one.blocks] == [1]
    assert [(b.a, b.b) for b in datum.psi_two.blocks] == [(2, 2)]
    assert not datum.swapped


def test_elliptic_trivial_s():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    s = SignVector(MULT, (1, 1))
    datum = elliptic_datum(psi, s)
    assert datum.psi_two.group.N == 0
    assert datum.psi_one.blocks == psi.blocks  # trivial twist, same labels


def test_elliptic_swap_normalization():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    s = SignVector(MULT, (-1, 1))  # odd side carries -1: gets swapped
    datum = elliptic_datum(psi, s)
    assert datum.swapped
    assert datum.psi_one.group.kind == SP


def test_elliptic_so_odd_bad_split():
    # formal symplectic label of dimension one lets an odd side appear
    rho1 = RhoLabel("sig1", 1, SYMPLECTIC)
    psi = make_parameter([JordanBlock(rho1, 1, 1, 1, PLUS),
                          JordanBlock(rho1, 3, 1)])
    assert psi.group.kind == SO_ODD
    with pytest.raises(BadDimensionSplit):
        elliptic_datum(psi, SignVector(MULT, (-1, 1)))

    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    psi2 = make_parameter([JordanBlock(rho2, 1, 1, 1, PLUS),
                           JordanBlock(rho2, 3, 1)])
    assert psi2.group.kind == SO_ODD
    ok = elliptic_datum(psi2, SignVector(MULT, (-1, 1)))
    assert ok.psi_one.group.kind == SO_ODD and ok.psi_two.group.kind == SO_ODD
    assert ok.eta_one.is_trivial() and ok.eta_two.is_trivial()
    ok2 = elliptic_datum(psi2, SignVector(MULT, (1, 1)))
    assert ok2.psi_two.group.N == 0


def test_twisted_datum_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 3, 1),
                          JordanBlock(RHO, 1, 1, 1, PLUS)],
                         eta=QuadCharacter.of("e"))
    assert psi.group.kind == SO_EVEN
    s = SignVector(MULT, (1, -1))  # fails the determinant condition
    assert not in_element_space(s, psi)
    datum = twisted_datum(psi, s)
    assert datum.twisted
    assert {datum.psi_one.group.kind, datum.psi_two.group.kind} == {SP}
    assert datum.psi_one.group.N % 2 == 1 and datum.psi_two.group.N % 2 == 1
    assert datum.psi_one.group.N + datum.psi_two.group.N == psi.group.N

    good = SignVector(MULT, (1, 1))
    with pytest.raises(NotApplicable):
        twisted_datum(psi, good)
    with pytest.raises(NotApplicable):
        elliptic_datum(psi, s)


def test_twisted_single_block_split():
    psi = make_parameter([JordanBlock(RHO, 3, 1),
                          JordanBlock(RHO, 1, 1, 1, PLUS)],
                         eta=QuadCharacter.of("e"))
    s = SignVector(MULT, (-1, 1))
    datum = twisted_datum(psi, s)
    assert {datum.psi_one.group.N, datum.psi_two.group.N} == {1, 3}


def test_sign_transfer_spec_example():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    for order in all_p_orders(psi):
        for s in enumerate_elements(psi):
            assert sign_transfer_check(psi, s, order)


def test_sign_transfer_random():
    rng = random.Random(81)
    count = 0
    for _ in range(60):
        psi = random_pure_parameter(rng, max_blocks=4, max_ab=6)
        order = random_p_order(rng, psi)
        for s in enumerate_elements(psi):
            assert sign_transfer_check(psi, s, order)
            count += 1
    assert count > 300


def test_cross_pair_counting_identity():
    # |Z(psi)| - |Z(psi_I)| - |Z(psi_II)| counts the straddling pairs
    from arthurcalc.signs import z_mw_w
    from arthurcalc.endoscopy import induced_order, _partition
    rng = random.Random(91)
    for _ in range(50):
        psi = random_pure_parameter(rng, max_blocks=4, max_ab=6)
        order = random_p_order(rng, psi)
        ss = enumerate_elements(psi)
        s = ss[rng.randrange(len(ss))]
        datum = elliptic_datum(psi, s)
        plus, minus = _partition(psi, s)
        if datum.swapped:
            plus, minus = minus, plus
        eta_plus = datum.eta_one if psi.group.kind == SP \
            else QuadCharacter.trivial()
        o1 = induced_order(order, plus, eta_plus)
        o2 = induced_order(order, minus, QuadCharacter.trivial())
        full = z_mw_w(psi, order)
        insts = psi.instances()
        straddle = sum(
            1 for (i, j) in full.pairs
            if (insts[i] in plus) != (insts[j] in plus))
        part = len(z_mw_w(datum.psi_one, o1)) + len(z_mw_w(datum.psi_two, o2))
        assert (len(full) - part) % 2 == straddle % 2


@pytest.mark.parametrize("build,signs", [(elliptic_datum, (-1,)),
                                         (twisted_datum, (1, 1, 1))],
                         ids=["elliptic-short", "twisted-long"])
def test_s_checked_before_the_determinant_condition(build, signs):
    # SO(4,e) = (rho,1,1,+) + (rho,3,1,+) has two block instances
    psi = make_parameter([JordanBlock(RHO_TRIV, 1, 1, 1, PLUS),
                          JordanBlock(RHO_TRIV, 3, 1)],
                         eta=QuadCharacter.of("e"))
    with pytest.raises(SupportMismatch,
                       match=f"^{len(signs)} signs given for 2 block "
                             "instances$"):
        build(psi, SignVector(MULT, signs))
