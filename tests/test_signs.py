import itertools
import random

import pytest

from arthurcalc.charspace import SignVector, MULT, pair, s_psi
from arthurcalc.errors import (DomainError, OrderViolation, SupportMismatch,
                               UnresolvedZeta)
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, QuadCharacter, RhoLabel
from arthurcalc.params import (MINUS, PLUS, ArthurParameter, BlockOrder,
                               JordanBlock, classify, dominate,
                               elementary_alpha, elementary_block, from_AB,
                               make_parameter, natural_order)
from arthurcalc.signs import (PairSet, aubert_flip, beta_sign, eps_m_mw_ddr,
                              eps_m_mw_elementary, eps_m_mw_general, eps_m_w,
                              eps_mw_w, s_ratio, theta_ratio_mw_w, z_mw_w)
from arthurcalc.testing import (_keyed, random_ddr_parameter,
                                random_elementary, random_p_order,
                                random_pure_parameter)

from block_orders import all_p_orders

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def z_u(psi_p):
    """Pairs with sup(a,a'), sup(b,b') even and inf(a,a'), inf(b,b') odd:
    the oracle for how a shift moves the pair count of z_mw_w."""
    insts = psi_p.instances()
    pairs = set()
    for (i, (p, _)), (j, (q, _)) in itertools.combinations(
            enumerate(insts), 2):
        if p.rho.id == q.rho.id and max(p.a, q.a) % 2 == 0 \
                and max(p.b, q.b) % 2 == 0 and min(p.a, q.a) % 2 == 1 \
                and min(p.b, q.b) % 2 == 1:
            pairs.add((i, j))
    return PairSet(len(insts), frozenset(pairs))


def _psi_22_11():
    return make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])


def _orders_22_11(psi):
    """(order with (2,2) above, order with (2,2) below)."""
    insts = psi.instances()  # sorted: (1,1) first
    return (BlockOrder((insts[0], insts[1])),
            BlockOrder((insts[1], insts[0])))


def test_z_mw_w_spec_examples():
    elem = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    for order in all_p_orders(elem):
        assert len(z_mw_w(elem, order)) == 0

    psi = _psi_22_11()
    above, below = _orders_22_11(psi)
    assert len(z_mw_w(psi, above)) == 0
    assert len(z_mw_w(psi, below)) == 1

    single = make_parameter([JordanBlock(RHO, 3, 1)])
    assert len(z_mw_w(single, natural_order(single))) == 0


def test_z_mw_w_needs_zeta():
    psi = make_parameter([JordanBlock(RHO, 2, 2), JordanBlock(RHO, 1, 1)])
    insts = psi.instances()
    with pytest.raises(UnresolvedZeta):
        z_mw_w(psi, BlockOrder(tuple(insts)))


def test_order_that_repeats_an_instance_is_refused():
    psi = _psi_22_11()
    i0, i1 = psi.instances()
    order = BlockOrder((i0, i0, i1))
    with pytest.raises(DomainError, match="enumerate the parameter's blocks"):
        z_mw_w(psi, order)
    with pytest.raises(DomainError, match="enumerate the parameter's blocks"):
        eps_m_mw_general(psi, order)


def test_eps_mw_w_spec_examples():
    psi = _psi_22_11()
    above, below = _orders_22_11(psi)
    assert eps_mw_w(psi, above).signs == (1, 1)
    assert eps_mw_w(psi, below).signs == (-1, -1)
    assert theta_ratio_mw_w(psi, above) == 1
    assert theta_ratio_mw_w(psi, below) == -1


def test_eps_mw_w_character_always():
    rng = random.Random(21)
    for _ in range(300):
        psi = random_pure_parameter(rng)
        order = random_p_order(rng, psi)
        assert eps_mw_w(psi, order).product() == 1


def test_theta_ratio_empty():
    from arthurcalc.params import ArthurParameter, GroupForm, SO_EVEN
    empty = ArthurParameter(GroupForm(SO_EVEN, 0, QuadCharacter.of("e")), ())
    assert theta_ratio_mw_w(empty, BlockOrder(())) == 1


def test_z_u_spec_examples():
    psi = _psi_22_11()
    assert len(z_u(psi)) == 1
    psi2 = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 4, 4, 1, PLUS)])
    # sup(a,a') = 4 even but inf(a,a') = 2 even: excluded
    assert len(z_u(psi2)) == 0
    single = make_parameter([JordanBlock(RHO, 3, 1)])
    assert len(z_u(single)) == 0


def test_eps_m_mw_elementary_spec_example():
    psi = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    vec = eps_m_mw_elementary(psi)
    by_alpha = {elementary_alpha(b): s
                for (b, _), s in zip(psi.instances(), vec.signs)}
    assert by_alpha == {5: 1, 3: -1, 1: -1}
    assert vec.product() == 1


def test_eps_m_mw_even_sizes_trivial():
    psi = make_parameter([JordanBlock(RHO, 4, 1), JordanBlock(RHO, 2, 1)])
    assert eps_m_mw_elementary(psi).signs == (1, 1)


def test_eps_m_mw_variants_agree():
    rng = random.Random(31)
    checked_elem = checked_ddr = 0
    for _ in range(300):
        psi = random_pure_parameter(rng, max_blocks=5)
        flags = classify(psi)
        if "discrete_diag_restriction" not in flags:
            continue
        order = natural_order(psi)
        general = eps_m_mw_general(psi, order)
        ddr = eps_m_mw_ddr(psi)
        assert general.signs == ddr.signs
        checked_ddr += 1
        if "elementary" in flags:
            assert eps_m_mw_elementary(psi).signs == ddr.signs
            checked_elem += 1
    assert checked_ddr > 20 and checked_elem > 5


def test_eps_m_mw_pairs_trivially_with_s_psi_on_ddr():
    rng = random.Random(41)
    for _ in range(200):
        psi = random_pure_parameter(rng)
        if "discrete_diag_restriction" not in classify(psi):
            continue
        vec = eps_m_mw_ddr(psi)
        assert vec.product() == 1
        assert pair(vec, s_psi(psi)) == 1


def test_eps_m_mw_dominance_stable():
    rng = random.Random(51)
    for _ in range(150):
        psi = random_pure_parameter(rng, max_blocks=5)
        order = random_p_order(rng, psi)
        before = eps_m_mw_general(psi, order)
        psi_gg, order_gg = dominate(psi, order, ensure_ddr=True)
        after = eps_m_mw_general(psi_gg, order_gg)
        # the order-preserving bijection matches positions in the order
        for pos in range(len(order.sequence)):
            i = psi.instances().index(order.sequence[pos])
            j = psi_gg.instances().index(order_gg.sequence[pos])
            assert before.signs[i] == after.signs[j]


def test_eps_m_w_pointwise_product():
    psi = _psi_22_11()
    above, below = _orders_22_11(psi)
    for order in (above, below):
        prod = eps_m_w(psi, order)
        a = eps_m_mw_general(psi, order)
        b = eps_mw_w(psi, order)
        assert prod.signs == tuple(x * y for x, y in zip(a.signs, b.signs))


def test_aubert_flip_spec_example():
    psi = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    flipped = aubert_flip(psi, RHO, 4, strict=True)
    deltas = {elementary_alpha(b): b.zeta for b in flipped.blocks}
    assert deltas == {5: PLUS, 3: PLUS, 1: MINUS}

    assert aubert_flip(psi, RHO, 0) == psi
    assert aubert_flip(aubert_flip(psi, RHO, 4), RHO, 4) == psi


def test_aubert_flip_involution_random():
    rng = random.Random(61)
    for _ in range(200):
        psi = random_elementary(rng)
        rho = psi.blocks[0].rho
        x0 = rng.randint(0, 10)
        strict = rng.random() < 0.5
        assert aubert_flip(aubert_flip(psi, rho, x0, strict),
                           rho, x0, strict) == psi


def _reference_flip(psi, rho, x0, strict):
    """aubert_flip from its definition, one block at a time."""
    top = x0 if strict else x0 + 1
    new = []
    for blk in psi.blocks:
        alpha = elementary_alpha(blk)
        if blk.rho.id == rho.id and alpha < top:
            blk = elementary_block(blk.rho, alpha, -blk.zeta)
        new.append(blk)
    return ArthurParameter(psi.group, tuple(new))


def test_aubert_flip_matches_reference_on_every_x0():
    """aubert_flip builds its result without the constructor's checks and
    with the flags of classify stored; the reference builds it through
    the checked constructor and derives them."""
    rng = random.Random(62)
    flips = tempered = 0
    for _ in range(500):
        psi = random_elementary(rng)
        top = max(elementary_alpha(blk) for blk in psi.blocks)
        for rho in psi.rho_labels():
            for x0 in range(top + 3):
                for strict in (True, False):
                    got = aubert_flip(psi, rho, x0, strict)
                    want = _reference_flip(psi, rho, x0, strict)
                    assert "_flags" in vars(got)
                    assert (got, got.blocks, got._flags) == \
                        (want, want.blocks, classify(want))
                    flips += got != psi
                    tempered += "tempered" in got._flags
    assert flips > 1000 and 100 < tempered < flips


def test_double_flip_derives_no_flags(monkeypatch):
    flags = vars(ArthurParameter)["_flags"]
    real, calls = flags.derive, []
    monkeypatch.setattr(flags, "derive",
                        lambda psi: calls.append(psi) or real(psi))
    rng = random.Random(64)
    for _ in range(50):
        psi = random_elementary(rng)
        classify(psi)
        calls.clear()
        top = max(elementary_alpha(blk) for blk in psi.blocks)
        for rho in psi.rho_labels():
            for x0 in range(top + 2):
                for strict in (True, False):
                    assert aubert_flip(aubert_flip(psi, rho, x0, strict),
                                       rho, x0, strict) == psi
        assert calls == []


def test_flip_partner_is_an_involution_the_value_ignores():
    rng = random.Random(63)
    for _ in range(100):
        for blk in random_elementary(rng).blocks:
            fresh = JordanBlock(blk.rho, blk.a, blk.b, blk.mult, blk.zeta)
            partner = blk.flip_partner
            assert partner == elementary_block(
                blk.rho, elementary_alpha(blk), -blk.zeta)
            assert partner.flip_partner == blk
            # built once, then kept on the block outside its fields
            assert blk.flip_partner is partner
            assert "flip_partner" in vars(blk)
            assert blk == fresh and hash(blk) == hash(fresh)
            assert repr(blk) == repr(fresh)
    # a balanced block without a resolved zeta has no partner yet
    with pytest.raises(UnresolvedZeta):
        JordanBlock(RHO, 1, 1).flip_partner


def test_beta_sign_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 3, 1), JordanBlock(RHO, 1, 1, 1, PLUS)])
    # J = {1, 3}: (-1)^{2*1/2} * (-1)^0 * (-1)^1 = +1
    assert beta_sign(psi, RHO, 4) == 1
    assert beta_sign(psi, RHO, 1) == 1  # empty J

    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    psi_even = make_parameter([JordanBlock(rho2, 2, 1)])
    assert beta_sign(psi_even, rho2, 3) == -1  # J = {2}: (-1)^1


def test_beta_mixed_parity_impossible_within_pure_parameter():
    # same-label blocks in a parity-pure parameter share the size parity,
    # so the mixed-parity error can only be provoked on artificial input
    psi = make_parameter([JordanBlock(RHO, 3, 1), JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert beta_sign(psi, RHO, 10) == beta_sign(psi, RHO, 4)


def test_s_ratio_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 3, 1), JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert all(s == 1 for s in s_ratio(psi, 5).signs)  # all odd sizes

    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    psi2 = make_parameter([JordanBlock(rho2, 2, 1), JordanBlock(rho2, 4, 1)])
    vec = s_ratio(psi2, 4)
    by_alpha = {elementary_alpha(b): s
                for (b, _), s in zip(psi2.instances(), vec.signs)}
    assert by_alpha == {2: -1, 4: 1}
    assert all(s == 1 for s in s_ratio(psi2, 1).signs)


def test_s_ratio_matches_flip_pairing():
    rng = random.Random(71)
    rounds = 0
    for _ in range(300):
        psi = random_elementary(rng)
        rhos = psi.rho_labels()
        rho = rng.choice(rhos)
        alphas = [elementary_alpha(b) for b in psi.blocks]
        x0 = rng.randint(1, max(alphas) + 1)
        flipped = aubert_flip(psi, rho, x0)

        def keyed(param, vec):
            return {(b.rho.id, elementary_alpha(b)): sg
                    for (b, _), sg in zip(param.instances(), vec.signs)}

        direct = keyed(psi, s_psi(psi))
        for k, v in keyed(flipped, s_psi(flipped)).items():
            direct[k] *= v
        assert direct == keyed(psi, s_ratio(psi, x0, rho))
        # pairing any character reproduces the closed form of the lemma
        insts = psi.instances()
        eps = SignVector(MULT, tuple(rng.choice((1, -1)) for _ in insts))
        eps_keyed = keyed(psi, eps)
        eps_flipped = SignVector(MULT, tuple(
            eps_keyed[(b.rho.id, elementary_alpha(b))]
            for b, _ in flipped.instances()))
        lhs = pair(eps, s_psi(psi)) * pair(eps_flipped, s_psi(flipped))
        sizes = [elementary_alpha(b) for b in psi.blocks
                 if b.rho.id == rho.id]
        if sizes and sizes[0] % 2 == 0:
            expected = 1
            for (b, _), sg in zip(insts, eps.signs):
                if b.rho.id == rho.id and elementary_alpha(b) < x0:
                    expected *= sg
        else:
            expected = 1
        assert lhs == expected
        rounds += 1
    assert rounds == 300


def test_keyed_refuses_a_vector_of_another_length():
    # criterion 6 keys a sign vector by the blocks of an elementary
    # parameter: a vector of another length is refused, not truncated
    psi = make_parameter([elementary_block(RHO, 1, PLUS),
                          elementary_block(RHO, 3, MINUS)])
    assert _keyed(psi, SignVector(MULT, (1, -1))) == {("rho", 1): 1,
                                                      ("rho", 3): -1}
    for signs in [(1,), (1, -1, 1)]:
        with pytest.raises(SupportMismatch):
            _keyed(psi, SignVector(MULT, signs))


def test_z_mw_w_with_multiplicity():
    # copies of one block pair with other blocks independently
    psi = make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    insts = psi.instances()
    # put both copies of the balanced block below the odd one
    copies = [i for i in insts if i[0].a == 2]
    ones = [i for i in insts if i[0].a == 1]
    order = BlockOrder(tuple(copies + ones))
    zs = z_mw_w(psi, order)
    assert len(zs) == 2  # one pair per copy
    # identical copies never pair with each other
    pairs = sorted(zs.pairs)
    idx_one = insts.index(ones[0])
    assert all(idx_one in p for p in pairs)


def test_z_mw_w_shift_oracle_against_sup_inf_set():
    """Shifting one block ties the pair set to the sup/inf set.

    Raising a single block with zeta -1 leaves the pair set in bijection;
    raising one with zeta +1 changes its cardinality parity by the number
    of sup/inf pairs touching the block, counted before and after.  This
    reproduces the inductive step of the normalization-ratio theorem and
    pins the case analysis against an independent pair set.
    """
    from arthurcalc.params import from_AB
    rng = random.Random(101)
    rounds_minus = rounds_plus = 0
    for _ in range(600):
        psi = random_pure_parameter(rng, max_blocks=5, max_ab=6)
        order = random_p_order(rng, psi)
        insts = psi.instances()
        pos = rng.randrange(len(insts))
        inst = order.sequence[pos]
        blk = inst[0]
        zeta = blk.zeta
        if zeta is None:
            continue
        t = rng.randint(1, 3)
        shifted_blk = from_AB(blk.rho, blk.A + t, blk.B + t, zeta)
        new_seq = []
        counters = {}
        for oinst in order.sequence:
            nb = shifted_blk if oinst == inst else oinst[0]
            k = counters.get(nb.sort_key, 0)
            counters[nb.sort_key] = k + 1
            new_seq.append((nb, k))
        blocks = [b for b, _ in new_seq]
        try:
            psi2 = make_parameter(blocks)
        except Exception:
            continue
        try:
            order2 = BlockOrder(tuple(new_seq))
        except OrderViolation:
            continue
        before = z_mw_w(psi, order)
        after = z_mw_w(psi2, order2)
        if zeta == MINUS:
            assert len(before) == len(after)
            rounds_minus += 1
        else:
            idx1 = psi.instances().index(inst)
            idx2 = psi2.instances().index(
                new_seq[pos])
            touch1 = z_u(psi).touching(idx1)
            touch2 = z_u(psi2).touching(idx2)
            assert (len(after) - len(before)) % 2 == (touch1 + touch2) % 2
            rounds_plus += 1
    assert rounds_minus > 80 and rounds_plus > 80


def test_beta_endoscopy_comparison_identity():
    """The flip-bookkeeping signs of an endoscopic pair multiply to the
    comparison characters of the parameter and its flip, paired at the
    partitioning element.

    This ties beta, the elementary comparison character and the elliptic
    partition together through one identity.
    """
    from arthurcalc.charspace import enumerate_elements
    from arthurcalc.endoscopy import _roles, elliptic_datum
    rng = random.Random(111)
    rounds = 0
    for _ in range(250):
        psi = random_elementary(rng, max_blocks=4, max_alpha=7)
        if len(psi.instances()) > 5:
            continue
        rho = rng.choice(psi.rho_labels())
        max_alpha = max(elementary_alpha(b) for b in psi.blocks)
        x0 = rng.randint(1, max_alpha + 1)
        flipped = aubert_flip(psi, rho, x0)

        def keyed(param, vec):
            return {(b.rho.id, elementary_alpha(b)): sg
                    for (b, _), sg in zip(param.instances(), vec.signs)}

        comparison = keyed(psi, eps_m_mw_elementary(psi))
        for k, v in keyed(flipped, eps_m_mw_elementary(flipped)).items():
            comparison[k] *= v

        for s in enumerate_elements(psi):
            datum = elliptic_datum(psi, s)
            one, two, _ = _roles(psi, s, twisted=False)
            lhs = beta_sign(datum.psi_one, rho.twist(one.label_eta()), x0) \
                * beta_sign(datum.psi_two, rho.twist(two.label_eta()), x0) \
                * beta_sign(psi, rho, x0)
            rhs = 1
            for (blk, _), sg in zip(psi.instances(), s.signs):
                if sg == -1:
                    rhs *= comparison[(blk.rho.id, elementary_alpha(blk))]
            assert lhs == rhs
            rounds += 1
    assert rounds > 400


def _flip_fingerprint():
    """SHA-256 over classify, both flips, beta_sign and s_ratio on seeded
    elementary and non-elementary parameters: every label of the
    parameter and one it lacks, every x0 from 0 to max alpha + 1; each
    result as repr and str, or the error's class and message."""
    import hashlib
    rng = random.Random(3131)
    foreign = RhoLabel("zz", 1, ORTHOGONAL)
    digest = hashlib.sha256()

    def row(fn):
        try:
            out = fn()
        except DomainError as e:
            return type(e).__name__, str(e)
        if isinstance(out, ArthurParameter):
            return repr(out), str(out), sorted(classify(out))
        return repr(out)

    for n in range(160):
        if n % 4 == 0:
            psi = random_pure_parameter(rng, max_blocks=4)
        elif n % 4 == 1:
            psi = random_ddr_parameter(rng, max_blocks=3)
        else:
            psi = random_elementary(rng, max_blocks=4)
        top = max(max(blk.a, blk.b) for blk in psi.blocks)
        rows = [repr(psi), sorted(classify(psi))]
        for rho in psi.rho_labels() + [foreign]:
            for x0 in range(top + 2):
                rows.append((
                    row(lambda: aubert_flip(psi, rho, x0, True)),
                    row(lambda: aubert_flip(psi, rho, x0, False)),
                    row(lambda: beta_sign(psi, rho, x0)),
                    row(lambda: s_ratio(psi, x0, rho))))
        rows.extend(row(lambda: s_ratio(psi, x0)) for x0 in range(top + 2))
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the per-call block arithmetic, before blocks kept facts
FLIP_FINGERPRINT = \
    "1cca5a911a76e43b7b0309212a64928e8ba346d69344fa4da8937469adc62311"


def test_flip_fingerprint():
    assert _flip_fingerprint() == FLIP_FINGERPRINT
