import random

import pytest

from arthurcalc.charspace import (MULT, SignVector, enumerate_elements,
                                  in_element_space)
from arthurcalc.endoscopy import (_roles, endoscopic_datum, eta_block,
                                  sign_transfer_check)
from arthurcalc.errors import (BadDimensionSplit, DomainError, NotApplicable,
                               SupportMismatch)
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, QuadCharacter, RhoLabel
from arthurcalc.params import (MINUS, PLUS, ArthurParameter, GroupForm,
                               JordanBlock, SO_EVEN, SO_ODD, SP,
                               make_parameter, min_p_order)
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
    datum = endoscopic_datum(psi, s)
    assert not datum.twisted
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
    datum = endoscopic_datum(psi, s)
    assert not datum.twisted
    assert datum.psi_two.group.N == 0
    assert datum.psi_one.blocks == psi.blocks  # trivial twist, same labels


def test_elliptic_swap_normalization():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    s = SignVector(MULT, (-1, 1))  # odd side carries -1: gets swapped
    datum = endoscopic_datum(psi, s)
    assert not datum.twisted and datum.swapped
    assert datum.psi_one.group.kind == SP


def test_elliptic_so_odd_bad_split():
    # formal symplectic label of dimension one lets an odd side appear
    rho1 = RhoLabel("sig1", 1, SYMPLECTIC)
    psi = make_parameter([JordanBlock(rho1, 1, 1, 1, PLUS),
                          JordanBlock(rho1, 3, 1)])
    assert psi.group.kind == SO_ODD
    with pytest.raises(BadDimensionSplit):
        endoscopic_datum(psi, SignVector(MULT, (-1, 1)))

    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    psi2 = make_parameter([JordanBlock(rho2, 1, 1, 1, PLUS),
                           JordanBlock(rho2, 3, 1)])
    assert psi2.group.kind == SO_ODD
    ok = endoscopic_datum(psi2, SignVector(MULT, (-1, 1)))
    assert not ok.twisted
    assert ok.psi_one.group.kind == SO_ODD and ok.psi_two.group.kind == SO_ODD
    assert ok.eta_one.is_trivial() and ok.eta_two.is_trivial()
    ok2 = endoscopic_datum(psi2, SignVector(MULT, (1, 1)))
    assert ok2.psi_two.group.N == 0


def test_twisted_datum_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 3, 1),
                          JordanBlock(RHO, 1, 1, 1, PLUS)],
                         eta=QuadCharacter.of("e"))
    assert psi.group.kind == SO_EVEN
    s = SignVector(MULT, (1, -1))  # fails the determinant condition
    assert not in_element_space(s, psi)
    datum = endoscopic_datum(psi, s)
    assert datum.twisted
    assert {datum.psi_one.group.kind, datum.psi_two.group.kind} == {SP}
    assert datum.psi_one.group.N % 2 == 1 and datum.psi_two.group.N % 2 == 1
    assert datum.psi_one.group.N + datum.psi_two.group.N == psi.group.N

    good = SignVector(MULT, (1, 1))
    assert not endoscopic_datum(psi, good).twisted
    # the transfer check is elliptic only, and refuses the twisted s
    refusal = "^s fails the determinant condition; use the twisted " \
        "construction$"
    with pytest.raises(NotApplicable, match=refusal):
        _roles(psi, s, elliptic_only=True)
    with pytest.raises(NotApplicable, match=refusal):
        sign_transfer_check(psi, s, min_p_order(psi))


def test_twisted_single_block_split():
    psi = make_parameter([JordanBlock(RHO, 3, 1),
                          JordanBlock(RHO, 1, 1, 1, PLUS)],
                         eta=QuadCharacter.of("e"))
    s = SignVector(MULT, (-1, 1))
    datum = endoscopic_datum(psi, s)
    assert datum.twisted
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



def test_sign_transfer_when_s_splits_the_copies_of_a_block():
    # criterion 2 skips repeated blocks, so only here does s put copies of
    # one block on both sides at every admissible order
    sig = RhoLabel("sig", 2, SYMPLECTIC)
    cases = [
        make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                        JordanBlock(RHO, 3, 1, 2),
                        JordanBlock(RHO, 2, 2, 1, MINUS)]),
        make_parameter([JordanBlock(RHO, 2, 2, 2, MINUS),
                        JordanBlock(RHO, 3, 1),
                        JordanBlock(RHO, 1, 1, 1, PLUS)]),
        make_parameter([JordanBlock(RHO, 1, 1, 3, PLUS),
                        JordanBlock(RHO, 3, 1), JordanBlock(RHO, 4, 2)],
                       eta=QuadCharacter.of("e")),
        make_parameter([JordanBlock(sig, 1, 1, 2, PLUS),
                        JordanBlock(sig, 3, 1),
                        JordanBlock(sig, 2, 2, 1, MINUS)]),
    ]
    assert [psi.group.kind for psi in cases] == [SP, SO_EVEN, SO_EVEN, SO_ODD]
    count = 0
    for psi in cases:
        insts = psi.instances()
        orders = all_p_orders(psi)
        for s in enumerate_elements(psi):
            signs_of = {}
            for (blk, _), sg in zip(insts, s.signs):
                signs_of.setdefault(blk, set()).add(sg)
            if all(len(signs) == 1 for signs in signs_of.values()):
                continue
            for order in orders:
                assert sign_transfer_check(psi, s, order)
                count += 1
    assert count == 320


def test_sign_transfer_builds_each_pair_set_once(monkeypatch):
    # one pair set for psi and one for each endoscopic side
    import arthurcalc.endoscopy as E
    import arthurcalc.signs as S
    real, calls = S.z_mw_w, []

    def counted(psi, order):
        calls.append(psi)
        return real(psi, order)

    monkeypatch.setattr(S, "z_mw_w", counted)
    monkeypatch.setattr(E, "z_mw_w", counted)
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    checks = 0
    for order in all_p_orders(psi):
        for s in enumerate_elements(psi):
            calls.clear()
            assert sign_transfer_check(psi, s, order)
            assert len(calls) == 3 and calls[0] is psi
            checks += 1
    assert checks == 8


def test_cross_pair_counting_identity():
    # |Z(psi)| - |Z(psi_I)| - |Z(psi_II)| counts the straddling pairs
    from arthurcalc.signs import z_mw_w
    from arthurcalc.endoscopy import induced_order
    rng = random.Random(91)
    for _ in range(50):
        psi = random_pure_parameter(rng, max_blocks=4, max_ab=6)
        order = random_p_order(rng, psi)
        ss = enumerate_elements(psi)
        s = ss[rng.randrange(len(ss))]
        datum = endoscopic_datum(psi, s)
        assert not datum.twisted
        one, two, _ = _roles(psi, s, elliptic_only=True)
        o1 = induced_order(order, one.insts, one.label_eta())
        o2 = induced_order(order, two.insts, two.label_eta())
        full = z_mw_w(psi, order)
        insts = psi.instances()
        straddle = sum(
            1 for (i, j) in full.pairs
            if (insts[i] in one.insts) != (insts[j] in one.insts))
        part = len(z_mw_w(datum.psi_one, o1)) + len(z_mw_w(datum.psi_two, o2))
        assert (len(full) - part) % 2 == straddle % 2


def _transfer_at_min_order(psi, s):
    return sign_transfer_check(psi, s, min_p_order(psi))


# the elliptic and the twisted construction, both reached through
# endoscopic_datum, and the elliptic-only transfer check
@pytest.mark.parametrize("build,signs", [
    (endoscopic_datum, (-1,)), (endoscopic_datum, (1, 1, 1)),
    (_transfer_at_min_order, (-1,)), (_transfer_at_min_order, (1, 1, 1))],
    ids=["elliptic-short", "twisted-long", "transfer-short", "transfer-long"])
def test_s_checked_before_the_determinant_condition(build, signs):
    # SO(4,e) = (rho,1,1,+) + (rho,3,1,+) has two block instances
    psi = make_parameter([JordanBlock(RHO_TRIV, 1, 1, 1, PLUS),
                          JordanBlock(RHO_TRIV, 3, 1)],
                         eta=QuadCharacter.of("e"))
    with pytest.raises(SupportMismatch,
                       match=f"^{len(signs)} signs given for 2 block "
                             "instances$"):
        build(psi, SignVector(MULT, signs))


def _endoscopy_fingerprint():
    """SHA-256 over `arthurcalc endoscopy` (exit code and stdout) for every
    sign vector of seeded pure parameters and of two fixed refusals, and
    over sign_transfer_check at min_p_order and max_p_order for each
    vector: its result, or the error's class and message."""
    import contextlib
    import hashlib
    import io
    import itertools
    import json
    from arthurcalc import cli
    from arthurcalc.io_json import parameter_to_json
    from arthurcalc.params import max_p_order, min_p_order

    def row(fn):
        try:
            return fn()
        except DomainError as e:
            return type(e).__name__, str(e)

    rng = random.Random(3303)
    corpus = [random_pure_parameter(rng, max_blocks=4, max_ab=6)
              for _ in range(300)]
    rho1 = RhoLabel("sig1", 1, SYMPLECTIC)
    corpus.append(make_parameter([JordanBlock(rho1, 1, 1, 1, PLUS),
                                  JordanBlock(rho1, 3, 1)]))  # odd sides
    corpus.append(ArthurParameter(GroupForm(SP, 2), (   # not parity pure
        JordanBlock(RHO, 1, 1, 1, PLUS), JordanBlock(RHO, 2, 1, 2))))
    digest = hashlib.sha256()
    for psi in corpus:
        spec = json.dumps(parameter_to_json(psi))
        orders = [row(lambda: min_p_order(psi)), row(lambda: max_p_order(psi))]
        for signs in itertools.product("+-", repeat=psi.instance_count()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["endoscopy", spec, "--s=" + "".join(signs)])
            s = SignVector(MULT, tuple(1 if c == "+" else -1 for c in signs))
            rows = [rc, buf.getvalue()]
            rows.extend(row(lambda: sign_transfer_check(psi, s, order))
                        for order in orders)
            digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the per-case side constructions, before one role table
ENDOSCOPY_FINGERPRINT = \
    "45f684f6e0fd1523a52b0650899991a7cfb4e57e38d07b57f0e81ff4620589be"


def test_endoscopy_fingerprint():
    assert _endoscopy_fingerprint() == ENDOSCOPY_FINGERPRINT


@pytest.mark.parametrize("build,signs", [
    (endoscopic_datum, (1, 1, -1, 1)), (endoscopic_datum, (-1, 1, 1, 1)),
    (_transfer_at_min_order, (1, 1, -1, 1))],
    ids=["elliptic", "twisted", "transfer"])
def test_both_constructors_refuse_a_parameter_beyond_its_parity_part(
        build, signs):
    """The elliptic and the twisted construction, which endoscopic_datum
    picks between by the determinant condition, and the transfer check
    all refuse a parameter that is not its own parity part."""
    # SO(8): (r,1,1,+) + (r,2,1,+) x 2 + (r,3,1,+); the two copies of
    # (r,2,1) are of symplectic type
    psi = ArthurParameter(GroupForm(SO_EVEN, 4), (
        JordanBlock(RHO_TRIV, 1, 1, 1, PLUS), JordanBlock(RHO_TRIV, 2, 1, 2),
        JordanBlock(RHO_TRIV, 3, 1)))
    s = SignVector(MULT, signs)
    assert in_element_space(s, psi) == (signs != (-1, 1, 1, 1))
    with pytest.raises(DomainError,
                       match="^endoscopic data are built from the parity "
                             "part$"):
        build(psi, s)
