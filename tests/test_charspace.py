import random
import re
from dataclasses import replace

import pytest

from arthurcalc.charspace import (CLASS, MULT, SignVector, cont, constant,
                                  enumerate_characters, enumerate_elements,
                                  eps_zero, ext, in_character_space,
                                  in_element_space, pair, s_psi, value_at)
from arthurcalc.elementary import construction_trace
from arthurcalc.endoscopy import endoscopic_datum, sign_transfer_check
from arthurcalc.errors import DomainError, NotACharacter, SupportMismatch
from arthurcalc.formal import (CoreLabel, ddr_recursion_expand,
                               endoscopic_sign_bookkeeping,
                               packet_expand_fully, packet_recursion_expand)
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import ORTHOGONAL, QuadCharacter, RhoLabel
from arthurcalc.packets import packet_constituents, translate_m_w
from arthurcalc.params import (PLUS, SO_EVEN, SO_ODD, SP, ArthurParameter,
                               GroupForm, JordanBlock, from_AB, make_parameter,
                               natural_order)
from arthurcalc.segments import EpsMap, cuspidal_support, supercuspidal_test
from arthurcalc.testing import random_pure_parameter
from reduction import parabolic_reduce_step

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
        classes = psi.blocks
        eps = SignVector(CLASS, tuple(rng.choice((1, -1)) for _ in classes))
        s = SignVector(MULT, tuple(rng.choice((1, -1)) for _ in insts))
        assert pair(ext(psi, eps), s) == pair(eps, cont(psi, s))


def test_character_space_membership():
    psi = _psi_22_11()
    assert in_character_space(constant(psi), psi)
    assert not in_character_space(SignVector(MULT, (-1, 1)), psi)
    assert in_character_space(SignVector(MULT, (-1, -1)), psi)


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
    assert [v.signs for v in enumerate_characters(single)] == [(1,)]

    three = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                            JordanBlock(RHO, 3, 1), JordanBlock(RHO, 5, 1)])
    chars = enumerate_characters(three)
    assert len(chars) == 4  # 2^3 / 2

    empty = ArthurParameter(GroupForm(SO_EVEN, 0, QuadCharacter.of("e")), ())
    assert [v.signs for v in enumerate_characters(empty)] == [()]


def test_enumeration_closed_under_product():
    rng = random.Random(11)
    for _ in range(20):
        psi = random_pure_parameter(rng, max_blocks=4)
        chars = enumerate_characters(psi)
        sigs = {v.signs for v in chars}
        ident = constant(psi)
        assert ident.signs in sigs
        for a in chars[:4]:
            for b in chars[:4]:
                prod = a.pointwise(b)
                assert in_character_space(prod, psi)


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
        assert in_element_space(constant(psi, -1), psi)
        seen += 1
    assert seen > 20


def test_enumeration_bound_characters():
    import pytest as _pytest
    from arthurcalc.errors import TooLarge
    # 21 instances, one above the bound: refused before the 2^21 loop
    many = make_parameter([JordanBlock(RHO, 1, 1, 21, PLUS)])
    with _pytest.raises(TooLarge, match="^21 blocks exceeds bound 20$"):
        enumerate_characters(many)
    with _pytest.raises(TooLarge, match="^21 blocks exceeds bound 20$"):
        enumerate_elements(many)


def _so4():
    """SO(4,e) = (rho,1,1,+) + (rho,3,1,+): discrete and elementary, with
    two odd-dimensional blocks, so one block class per instance."""
    return make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                           JordanBlock(RHO, 3, 1)], eta=QuadCharacter.of("e"))


def test_cont_and_ext_refuse_a_short_vector():
    psi = _so4()
    with pytest.raises(SupportMismatch,
                       match="^1 signs given for 2 block instances$"):
        cont(psi, SignVector(MULT, (-1,)))
    with pytest.raises(SupportMismatch,
                       match="^1 signs given for 2 block classes$"):
        ext(psi, SignVector(CLASS, (-1,)))


def _ddr():
    """Sp(10) = (rho,2,2,+) + (rho,7,1,+): DDR, the first block compound."""
    return make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
                           from_AB(RHO, HalfInt(6), HalfInt(6), PLUS)])


def _compound(psi):
    return next(inst for inst in psi.instances() if inst[0].A != inst[0].B)


def _sp4():
    """Sp(4) = 2(rho,1,1,+) + (rho,3,1,+): three instances on two block
    classes, so the copies of the first class share its one class sign."""
    return make_parameter([JordanBlock(RHO, 1, 1, 2, PLUS),
                           JordanBlock(RHO, 3, 1)])


def _from_vector(fn):
    """fn on the character map of a class vector, as the CLI calls it."""
    return lambda psi, eps: fn(psi, EpsMap.from_vector(psi, eps))


# function -> (parameter builder, support, a vector it accepts, the call,
# the error a wrongly sized or supported vector gets)
TAKES_A_VECTOR = {
    "packet_constituents": (_so4, MULT, (1, 1), packet_constituents,
                            SupportMismatch),
    "translate_m_w": (_so4, MULT, (1, 1), lambda psi, v: translate_m_w(
        psi, v, natural_order(psi)), SupportMismatch),
    "ddr_recursion_expand": (_ddr, MULT, (1, 1), lambda psi, v:
                             ddr_recursion_expand(psi, v, _compound(psi)),
                             SupportMismatch),
    "packet_expand_fully": (_ddr, MULT, (1, 1), packet_expand_fully,
                            SupportMismatch),
    "endoscopic_sign_bookkeeping": (
        _ddr, MULT, (1, 1), lambda psi, s:
        endoscopic_sign_bookkeeping(psi, s, _compound(psi)), SupportMismatch),
    "CoreLabel.of": (_so4, MULT, (1, 1), CoreLabel.of, SupportMismatch),
    # the elliptic and the twisted datum, both built by endoscopic_datum: a
    # lone -1 on an odd-dimensional block breaks the determinant condition
    "elliptic_datum": (_so4, MULT, (1, 1), endoscopic_datum,
                       SupportMismatch),
    "twisted_datum": (_so4, MULT, (-1, 1), endoscopic_datum, SupportMismatch),
    "sign_transfer_check": (_so4, MULT, (1, 1), lambda psi, s:
                            sign_transfer_check(psi, s, natural_order(psi)),
                            SupportMismatch),
    # the one conversion to the character map that segments and
    # elementary take, alone and ahead of each function that takes the map
    "EpsMap.from_vector": (_so4, CLASS, (1, 1), EpsMap.from_vector,
                           NotACharacter),
    "cuspidal_support": (_so4, CLASS, (1, 1), _from_vector(cuspidal_support),
                         NotACharacter),
    "supercuspidal_test": (_so4, CLASS, (1, 1),
                           _from_vector(supercuspidal_test), NotACharacter),
    "parabolic_reduce_step": (_so4, CLASS, (1, 1),
                              _from_vector(parabolic_reduce_step),
                              NotACharacter),
    "construction_trace": (_so4, CLASS, (1, 1),
                           _from_vector(construction_trace), NotACharacter),
    "cont": (_so4, MULT, (1, 1), cont, SupportMismatch),
    "ext": (_so4, CLASS, (1, 1), ext, SupportMismatch),
    "value_at": (_so4, MULT, (1, 1), lambda psi, v:
                 value_at(psi, v, psi.instances()[0]), SupportMismatch),
    "in_character_space": (_so4, MULT, (1, 1),
                           lambda psi, v: in_character_space(v, psi),
                           SupportMismatch),
    "in_element_space": (_so4, MULT, (1, 1),
                         lambda psi, s: in_element_space(s, psi),
                         SupportMismatch),
}
# The same checks where instances outnumber classes.
for _name in ("packet_constituents", "cont", "ext", "value_at",
              "in_character_space", "in_element_space"):
    _, _support, _, _call, _error = TAKES_A_VECTOR[_name]
    TAKES_A_VECTOR[_name + "@sp4"] = (
        _sp4, _support, (1, 1, 1) if _support == MULT else (1, 1), _call,
        _error)


@pytest.mark.parametrize("wrong", ["support", "short", "long"])
@pytest.mark.parametrize("name", sorted(TAKES_A_VECTOR))
def test_every_vector_is_checked_against_its_parameter(name, wrong):
    """Each public function that takes a sign vector accepts one of the
    right support and length, and refuses the other support, one sign
    too few and one sign too many: with NotACharacter where the vector
    becomes a character map, SupportMismatch elsewhere."""
    make, support, signs, call, error = TAKES_A_VECTOR[name]
    psi = make()
    call(psi, SignVector(support, signs))
    bad = {"support": SignVector(CLASS if support == MULT else MULT, signs),
           "short": SignVector(support, signs[:-1]),
           "long": SignVector(support, signs + (1,))}[wrong]
    with pytest.raises(error) as caught:
        call(psi, bad)
    assert type(caught.value) is error


def _with_mults(rng):
    """A seeded parameter whose blocks each have multiplicity 1 to 3."""
    psi = random_pure_parameter(rng, max_blocks=4)
    return make_parameter([replace(blk, mult=rng.randint(1, 3))
                           for blk in psi.blocks])


def test_block_readers_match_the_instance_walk():
    """s_psi, eps_zero and value_at, which read the blocks and their
    multiplicities, agree with the same rules read off psi.instances()."""
    rng = random.Random(27)
    kinds, mults = set(), set()
    for _ in range(300):
        psi = _with_mults(rng)
        insts = psi.instances()
        kinds.add(psi.group.kind)
        mults.update(blk.mult for blk in psi.blocks)
        orthogonal = psi.group.kind == SO_EVEN
        assert s_psi(psi) == SignVector(MULT, tuple(
            -1 if blk.b % 2 == 0 else 1 for blk, _ in insts))
        assert eps_zero(psi) == SignVector(MULT, tuple(
            -1 if orthogonal and blk.dim % 2 == 1 else 1 for blk, _ in insts))
        v = SignVector(MULT, tuple(rng.choice((1, -1)) for _ in insts))
        for inst in insts:
            assert value_at(psi, v, inst) == v.signs[insts.index(inst)]
    assert kinds == {SP, SO_ODD, SO_EVEN} and mults == {1, 2, 3}


def test_block_readers_build_no_instances(monkeypatch):
    # SO(12,e) = (rho,1,1,+) + 2(rho,2,2,+) + (rho,3,1,+), in instance
    # order: a block with two copies, and odd dimensions for eps_zero's
    # orientation branch
    psi = make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS),
                          JordanBlock(RHO, 3, 1)], eta=QuadCharacter.of("e"))
    assert psi.group.kind == SO_EVEN
    insts, v = psi.instances(), constant(psi, -1)
    monkeypatch.setattr(ArthurParameter, "instances", None)
    assert s_psi(psi).signs == (1, -1, -1, 1)
    assert eps_zero(psi).signs == (-1, 1, 1, -1)
    assert [value_at(psi, v, inst) for inst in insts] == [-1] * 4


def test_bookkeeping_instances_count(monkeypatch):
    # two instances, four sign vectors, two of product one: the instances
    # of the other blocks once, then per character those of psi, of the
    # raised-base parameter and of the two lifts to the split
    psi = _ddr()
    chosen = _compound(psi)
    real, calls = ArthurParameter.instances, []
    monkeypatch.setattr(ArthurParameter, "instances",
                        lambda self: calls.append(self) or real(self))
    assert endoscopic_sign_bookkeeping(psi, constant(psi, -1), chosen)
    assert len(calls) == 11


def _foreign_instances(psi):
    """Near misses of an instance of psi's first block: its copy index at
    the multiplicity, the block with multiplicity two, a block psi lacks,
    the block under a label that differs only in its determinant, and a
    value of the wrong shape."""
    blk = psi.blocks[0]
    one = replace(blk, mult=1)
    relabelled = replace(blk.rho, det_char=QuadCharacter.of("x"))
    return {"index": (one, blk.mult), "mult": (replace(blk, mult=2), 0),
            "absent": (JordanBlock(RHO, 5, 1), 0),
            "label": (replace(one, rho=relabelled), 0), "shape": (one,)}


FOREIGN = ["index", "mult", "absent", "label", "shape"]


def _refused_as_foreign(psi, inst, call):
    """call() refuses inst with the one DomainError that names it, where
    psi.instances().index refuses it too."""
    with pytest.raises(ValueError):
        psi.instances().index(inst)
    message = re.escape(f"{inst} is not a block instance of the parameter")
    with pytest.raises(DomainError, match=f"^{message}$") as caught:
        call()
    assert type(caught.value) is DomainError


@pytest.mark.parametrize("kind", FOREIGN)
def test_value_at_refuses_a_foreign_instance(kind):
    psi = _sp4()  # its first block has two copies
    inst = _foreign_instances(psi)[kind]
    _refused_as_foreign(psi, inst,
                        lambda: value_at(psi, constant(psi), inst))


@pytest.mark.parametrize("kind", FOREIGN)
def test_recursions_refuse_a_foreign_instance(kind):
    psi = _ddr()
    inst = _foreign_instances(psi)[kind]
    _refused_as_foreign(psi, inst, lambda: ddr_recursion_expand(
        psi, SignVector(MULT, (1, 1)), inst))
    _refused_as_foreign(psi, inst,
                        lambda: packet_recursion_expand(psi, inst))
