import math
import random

import pytest

from arthurcalc.charspace import (CLASS, MULT, SignVector,
                                  enumerate_characters, enumerate_elements,
                                  eps_zero)
from arthurcalc.errors import (DomainError, NoCompoundBlock, NotDDR,
                               SupportMismatch, TooLarge)
import arthurcalc.formal as formal
from arthurcalc.formal import (BasisTerm, CoreLabel, FormalSum, Induce, Jac,
                               ddr_recursion_expand,
                               endoscopic_sign_bookkeeping,
                               packet_expand_fully, packet_recursion_expand,
                               twist_by_orientation)
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import ORTHOGONAL, QuadCharacter, RhoLabel
from arthurcalc.params import (MINUS, PLUS, ArthurParameter, JordanBlock,
                               classify, from_AB, make_parameter)
from arthurcalc.testing import random_ddr_parameter

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _psi_10():
    """Single compound block (A, B) = (1, 0) plus a separated filler."""
    return make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
                           from_AB(RHO, HalfInt(6), HalfInt(6), PLUS)])


def _compound(psi):
    return next(inst for inst in psi.instances()
                if inst[0].A != inst[0].B)


def _prefix(term):
    """The parabolic inductions of a term, in order."""
    return tuple(op for op in term.ops if isinstance(op, Induce))


def _jac_ops(term):
    """The Jacquet markers of a term, in order."""
    return tuple(op for op in term.ops if isinstance(op, Jac))


def test_ddr_expand_suppression():
    psi = _psi_10()
    chosen = _compound(psi)
    idx = psi.instances().index(chosen)

    eps_minus = SignVector(MULT, tuple(
        -1 if i == idx else -1 for i in range(2)))
    # eta0 = -1 at the compound block: only the two split terms remain
    out = ddr_recursion_expand(psi, eps_minus, chosen)
    assert len(out) == 2
    assert all(not t.ops for t in out.terms)

    eps_plus = SignVector(MULT, (1, 1))
    out2 = ddr_recursion_expand(psi, eps_plus, chosen)
    assert len(out2) == 3  # one C-term plus two split terms


def test_ddr_expand_c_term_shape():
    psi = _psi_10()
    chosen = _compound(psi)
    eps = SignVector(MULT, (1, 1))
    out = ddr_recursion_expand(psi, eps, chosen)
    c_terms = [(t, c) for t, c in out.terms.items() if t.ops]
    assert len(c_terms) == 1
    term, coeff = c_terms[0]
    assert coeff == 1  # C = A contributes (+1)
    ind = _prefix(term)[0]
    assert (ind.x.twice, ind.y.twice) == (0, -2)  # <zeta B, ..., -zeta C>
    assert _jac_ops(term) == ()  # B + 2 exceeds C = A = B + 1
    # raised-base block is empty: the core keeps only the filler
    assert [b.a for b, _ in term.core.entries] == [7]


def test_ddr_expand_taller_block():
    psi = make_parameter([from_AB(RHO, HalfInt(4), HalfInt(0), PLUS),
                          from_AB(RHO, HalfInt(8), HalfInt(8), PLUS)])
    chosen = _compound(psi)
    eps = SignVector(MULT, (1, 1))
    out = ddr_recursion_expand(psi, eps, chosen)
    # C in {1, 2} plus two split terms
    assert len(out) == 4
    coeffs = sorted(c for t, c in out.terms.items() if t.ops)
    assert coeffs == [-1, 1]  # (-1)^{A-C}
    jacs = [_jac_ops(t) for t, c in out.terms.items()
            if t.ops and c == 1]
    assert jacs[0][0].exponents == (HalfInt(4),)  # Jac at zeta(B+2) = 2

    split_coeffs = sorted(c for t, c in out.terms.items() if not t.ops)
    # [(A-B+1)/2] = 1, so the split carries (-1) * eta-dependence
    assert split_coeffs == [-1, 1]


def test_ddr_expand_negative_zeta():
    psi = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), MINUS),
                          from_AB(RHO, HalfInt(6), HalfInt(6), MINUS)])
    chosen = _compound(psi)
    eps = SignVector(MULT, (1, 1))
    out = ddr_recursion_expand(psi, eps, chosen)
    term = next(t for t in out.terms if t.ops)
    ind = _prefix(term)[0]
    assert (ind.x.twice, ind.y.twice) == (0, 2)  # <0, ..., +C> for zeta=-1


def test_packet_expand_spec_example():
    psi = _psi_10()
    chosen = _compound(psi)
    out = packet_recursion_expand(psi, chosen)
    assert len(out) == 2
    shapes = sorted(len(t.core.entries) for t in out.terms)
    assert shapes == [1, 3]  # C-term loses the block, split gains one


def test_packet_expand_coefficient_of_top():
    psi = make_parameter([from_AB(RHO, HalfInt(6), HalfInt(2), PLUS),
                          from_AB(RHO, HalfInt(10), HalfInt(10), PLUS)])
    chosen = _compound(psi)
    out = packet_recursion_expand(psi, chosen)
    top = [c for t, c in out.terms.items()
           if _prefix(t) and _prefix(t)[0].y.twice == -6]  # C = A term
    assert top == [1]


def test_no_compound_block():
    psi = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(2), PLUS)])
    with pytest.raises(NoCompoundBlock):
        packet_recursion_expand(psi, psi.instances()[0])
    tall = make_parameter([JordanBlock(RHO, 2, 2, 2, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    with pytest.raises(NotDDR):
        packet_recursion_expand(tall, tall.instances()[0])


def test_full_expansion_terminates_elementary_cores():
    rng = random.Random(55)
    for _ in range(40):
        psi = random_ddr_parameter(rng, max_blocks=2, max_level=6)
        out = packet_expand_fully(psi)
        assert len(out) >= 1
        for term in out.terms:
            assert all(b.A == b.B for b, _ in term.core.entries)


def test_expand_empty_sum():
    from arthurcalc.params import GroupForm, SO_EVEN
    empty = ArthurParameter(GroupForm(SO_EVEN, 0, QuadCharacter.of("e")), ())
    out = packet_expand_fully(empty)
    assert len(out) == 1  # the empty core itself


def _psi_sp10():
    """Sp(10) = (rho,2,2,+) + (rho,7,1,+): two block instances."""
    return make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 7, 1)])


@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, -1), (1,)])
def test_wrong_length_character_refused(signs):
    psi = _psi_sp10()
    eps = SignVector(MULT, signs)
    with pytest.raises(SupportMismatch):
        ddr_recursion_expand(psi, eps, _compound(psi))
    with pytest.raises(SupportMismatch):
        CoreLabel.of(psi, eps)
    with pytest.raises(SupportMismatch):
        packet_expand_fully(psi, eps)


@pytest.mark.parametrize("signs", [(1, 1, 1), (-1,), ()])
def test_bookkeeping_wrong_length_s_refused(signs):
    psi = _psi_sp10()
    with pytest.raises(SupportMismatch):
        endoscopic_sign_bookkeeping(psi, SignVector(MULT, signs),
                                    _compound(psi))


def test_bookkeeping_refuses_more_instances_than_the_bound():
    # 20 tempered blocks under one compound block: 21 instances, one above
    # the bound, refused before the loop over the 2^21 sign vectors
    blocks = [JordanBlock(RHO, 2 * k + 1, 1) for k in range(20)]
    blocks.append(from_AB(RHO, HalfInt(42), HalfInt(40), PLUS))
    psi = make_parameter(blocks)
    chosen = _compound(psi)
    s = SignVector(MULT, (1,) * 21)
    with pytest.raises(TooLarge, match="^21 blocks exceeds bound 20$"):
        endoscopic_sign_bookkeeping(psi, s, chosen)


def test_endoscopic_bookkeeping_small():
    psi = _psi_10()
    chosen = _compound(psi)
    for s in enumerate_elements(psi):
        assert endoscopic_sign_bookkeeping(psi, s, chosen)


def test_endoscopic_bookkeeping_random():
    rng = random.Random(65)
    rounds = 0
    for _ in range(60):
        psi = random_ddr_parameter(rng, max_blocks=3, max_level=8)
        compounds = [inst for inst in psi.instances()
                     if inst[0].A != inst[0].B]
        if not compounds or len(psi.instances()) > 5:
            continue
        for chosen in compounds:
            for s in enumerate_elements(psi):
                assert endoscopic_sign_bookkeeping(psi, s, chosen)
                rounds += 1
    assert rounds > 50


def test_orientation_twist_property():
    rng = random.Random(75)
    rounds = 0
    for _ in range(200):
        psi = random_ddr_parameter(rng, max_blocks=3, max_level=8)
        if psi.group.kind != "SOeven":
            continue
        compounds = [inst for inst in psi.instances()
                     if inst[0].A != inst[0].B]
        if not compounds:
            continue
        chosen = compounds[0]
        for eps in enumerate_characters(psi)[:6]:
            twisted_eps = eps.pointwise(eps_zero(psi))
            lhs = ddr_recursion_expand(psi, twisted_eps, chosen)
            rhs = FormalSum({
                twist_by_orientation(t): c
                for t, c in ddr_recursion_expand(psi, eps, chosen)
                .terms.items()})
            assert lhs == rhs
            rounds += 1
    assert rounds > 30


def test_full_character_expansion_consistent():
    rng = random.Random(85)
    rounds = 0
    for _ in range(60):
        psi = random_ddr_parameter(rng, max_blocks=2, max_level=6)
        if sum(int(b.A.twice - b.B.twice) for b in psi.blocks) > 8:
            continue
        for eps in enumerate_characters(psi)[:4]:
            out = packet_expand_fully(psi, eps)
            for term in out.terms:
                assert all(b.A == b.B for b, _ in term.core.entries)
                prod = 1
                for _, sg in term.core.entries:
                    prod *= sg
                assert prod == 1  # characters survive the bookkeeping
            rounds += 1
    assert rounds > 20


def _expand_fingerprint():
    """SHA-256 over both one-block recursions at every block of seeded
    DDR and elementary parameters and at one pair that is no instance:
    each sum as str and as sum_to_json, or the error's class and message
    where the recursion refuses.  The character recursion takes a random
    sign vector, of product one nine times in ten."""
    import hashlib
    from arthurcalc import io_json as js
    from arthurcalc.errors import DomainError
    from arthurcalc.testing import random_elementary
    rng = random.Random(4242)
    digest = hashlib.sha256()
    for n in range(120):
        psi = (random_ddr_parameter(rng, max_blocks=3, max_level=8)
               if n % 4 else random_elementary(rng, max_blocks=3))
        insts = psi.instances()
        signs = [rng.choice((1, -1)) for _ in insts]
        if signs.count(-1) % 2 and rng.random() < 0.9:
            signs[0] = -signs[0]
        eps = SignVector(MULT, tuple(signs))
        rows = [str(psi), str(eps)]
        # the last is no instance: its copy index runs past the multiplicity
        for chosen in insts + ((insts[0][0], insts[0][0].mult),):
            for expand in (lambda: packet_recursion_expand(psi, chosen),
                           lambda: ddr_recursion_expand(psi, eps, chosen)):
                try:
                    total = expand()
                    rows.append((str(total), js.dumps(js.sum_to_json(total))))
                except DomainError as e:
                    rows.append((type(e).__name__, str(e)))
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the instances()-based block lookups
EXPAND_FINGERPRINT = \
    "04bb5d7369e33066cbfcd8cd17a37cfec42bc43fdb242159a1014ff7d7fd9511"


def test_expand_fingerprint():
    assert _expand_fingerprint() == EXPAND_FINGERPRINT


def test_term_hash_shared_across_threads():
    # fresh terms hashed first by racing threads: every thread must read
    # the dataclass hash of the fields, and the sums must agree
    import sys
    import threading
    rng = random.Random(85)
    fresh = []
    for _ in range(40):
        psi = random_ddr_parameter(rng, max_blocks=3, max_level=8)
        for chosen in psi.instances():
            if chosen[0].A != chosen[0].B:
                for t in packet_recursion_expand(psi, chosen).terms:
                    core = CoreLabel(t.core.group, t.core.entries)
                    fresh.append(BasisTerm(t.ops, core))
    expect = [hash((t.ops, (t.core.group, t.core.entries))) for t in fresh]
    results = {}

    def work(k):
        results[k] = ([hash(t) for t in fresh],
                      FormalSum({t: 1 for t in fresh}))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(fresh) > 100
    for k in range(4):
        assert results[k][0] == expect
        assert results[k][1] == results[0][1]
        assert len(results[k][1]) == len(set(fresh))


def test_block_facts_shared_across_threads():
    # parameters on fresh blocks, classified and flipped first by racing
    # threads: every thread must get what one thread alone gets
    import sys
    import threading
    from arthurcalc.signs import aubert_flip, beta_sign, s_ratio
    from arthurcalc.testing import random_elementary
    rng = random.Random(86)
    drawn = [random_elementary(rng, max_blocks=5) for _ in range(30)]

    def fresh(psi):
        return ArthurParameter(psi.group, tuple(
            JordanBlock(b.rho, b.a, b.b, b.mult, b.zeta) for b in psi.blocks))

    def run(psi):
        out = [classify(psi)]
        top = max(max(b.a, b.b) for b in psi.blocks)
        for rho in psi.rho_labels():
            for x0 in range(top + 2):
                for strict in (True, False):
                    flipped = aubert_flip(psi, rho, x0, strict)
                    out.append((flipped, classify(flipped),
                                aubert_flip(flipped, rho, x0, strict)))
                out.append((beta_sign(psi, rho, x0), s_ratio(psi, x0, rho)))
        return out

    expect = [run(fresh(psi)) for psi in drawn]
    shared = [fresh(psi) for psi in drawn]
    results = {}

    def work(k):
        results[k] = [run(psi) for psi in shared]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        assert results[k] == expect


def _k_family(k):
    """(rho,k,k,+) + (rho,2k+2,2,+): segments [0, k-1] and [k, k+1]."""
    return make_parameter([JordanBlock(RHO, k, k, 1, PLUS),
                           JordanBlock(RHO, 2 * k + 2, 2, 1, PLUS)])


def _full_expansion_fingerprint():
    """SHA-256 over full expansions: the stable level on the k family for
    k = 2..7, and both levels on 200 seeded DDR parameters, the character
    level at a random sign vector of product one nine times in ten; each
    sum as str and as sum_to_json, or the error's class and message where
    the expansion refuses."""
    import hashlib
    from arthurcalc import io_json as js

    def row(expand):
        try:
            total = expand()
            return str(total), js.dumps(js.sum_to_json(total))
        except DomainError as e:
            return type(e).__name__, str(e)

    digest = hashlib.sha256()
    for k in range(2, 8):
        psi = _k_family(k)
        digest.update(repr([str(psi),
                            row(lambda: packet_expand_fully(psi))]).encode())
    for psi, eps in _corpus_draws():
        rows = [str(psi), str(eps), row(lambda: packet_expand_fully(psi)),
                row(lambda: packet_expand_fully(psi, eps))]
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the two expansion loops that one driver replaced, with
# the five rows whose elementary draw has a character of product -1 read
# as the DomainError that the input check now raises
FULL_EXPANSION_FINGERPRINT = \
    "a82b9b5f7b9300f6a41c9e8cc695708c1ee8878a8d937389b9de406a613d73d3"


def test_full_expansion_fingerprint():
    assert _full_expansion_fingerprint() == FULL_EXPANSION_FINGERPRINT


# computed from the str-keyed heap the level sweep replaced
LARGE_K_FINGERPRINT = \
    "af84d70a4a30bf80dbbabe71b3a85c568799ffa85af95f253872a05d435e1f9d"


def test_full_expansion_fingerprint_at_large_k():
    # SHA-256 over the stable expansions of the k family at k = 8 and 9
    # (1 528 and 5 240 terms), each as str and as sum_to_json
    import hashlib
    from arthurcalc import io_json as js
    digest = hashlib.sha256()
    for k in (8, 9):
        psi = _k_family(k)
        total = packet_expand_fully(psi)
        digest.update(repr([str(psi), str(total),
                            js.dumps(js.sum_to_json(total))]).encode())
    assert digest.hexdigest() == LARGE_K_FINGERPRINT


def _corpus_draws():
    """The seeded DDR draws of the full-expansion fingerprint, each with
    its sign vector."""
    rng = random.Random(7)
    for _ in range(200):
        psi = random_ddr_parameter(rng, max_blocks=3, max_level=8)
        signs = [rng.choice((1, -1)) for _ in psi.instances()]
        if signs.count(-1) % 2 and rng.random() < 0.9:
            signs[0] = -signs[0]
        yield psi, SignVector(MULT, tuple(signs))


def test_every_step_builds_a_ddr_core(monkeypatch):
    # what the per-step _check_ddr and the parameter rebuild used to
    # guard: every core a step builds is a DDR parameter on a group of
    # the input's kind and eta, its blocks kept apart by their sort keys,
    # and at the character level its signs multiply to one
    built = []
    step = formal._step

    def recording_step(core, i):
        out = step(core, i)
        built.extend(term.core for term in out)
        return out

    monkeypatch.setattr(formal, "_step", recording_step)
    checked = 0
    for psi, eps in _corpus_draws():
        for level in (None, eps):
            if level is not None and eps.product() != 1:
                continue
            built.clear()
            packet_expand_fully(psi, level)
            for core in built:
                blocks = tuple(blk for blk, _ in core.entries)
                param = ArthurParameter(core.group, blocks)
                assert param.blocks == blocks
                assert "discrete_diag_restriction" in classify(param)
                assert core.group.kind == psi.group.kind
                assert core.group.eta == psi.group.eta
                assert len({blk.sort_key for blk in blocks}) == len(blocks)
                signs = [sg for _, sg in core.entries]
                if level is None:
                    assert signs == [None] * len(signs)
                else:
                    assert math.prod(signs) == 1
                checked += 1
    assert checked > 5_000


def test_full_expansion_checks_its_input_once(monkeypatch):
    # the input check runs once, and no parameter is built after it: each
    # step builds its cores from the entries of the last
    psi = _k_family(5)
    counts = {}
    check, post = formal._check_ddr, ArthurParameter.__post_init__

    def counting_check(*args):
        check(*args)
        counts["checks"] += 1

    def counting_post(self):
        counts["built"] += bool(counts["checks"])
        post(self)

    monkeypatch.setattr(formal, "_check_ddr", counting_check)
    monkeypatch.setattr(ArthurParameter, "__post_init__", counting_post)
    for eps in (None, SignVector(MULT, (1, 1))):
        counts.update(checks=0, built=0)
        assert len(packet_expand_fully(psi, eps)) > 1
        assert counts == {"checks": 1, "built": 0}


def _psi_so6():
    """SO(6,1) = (rho,1,1,+) + (rho,5,1,+): elementary, so no step of the
    expansion reaches a one-block recursion."""
    return make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                           JordanBlock(RHO, 5, 1)])


def test_full_expansion_refuses_product_minus_one():
    with pytest.raises(DomainError, match="character product condition"):
        packet_expand_fully(_psi_so6(), SignVector(MULT, (1, -1)))


def test_full_expansion_refuses_class_support():
    with pytest.raises(SupportMismatch):
        packet_expand_fully(_psi_so6(), SignVector(CLASS, (1, 1)))


def test_full_expansion_refuses_non_ddr():
    # Sp(6) = (rho,1,1,+) + (rho,3,1,+) x2: every block has A == B
    psi = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                          JordanBlock(RHO, 3, 1, 2)])
    with pytest.raises(NotDDR):
        packet_expand_fully(psi)


def test_full_expansion_step_limit(monkeypatch):
    # the k = 5 expansion runs 41 steps, one per compound term; its 52
    # elementary terms take none
    psi = _k_family(5)
    monkeypatch.setattr(formal, "MAX_EXPANSION_STEPS", 41)
    assert len(packet_expand_fully(psi)) == 52
    monkeypatch.setattr(formal, "MAX_EXPANSION_STEPS", 40)
    with pytest.raises(TooLarge, match="step limit"):
        packet_expand_fully(psi)


def test_full_expansion_expands_each_term_once(monkeypatch):
    # every contribution to a term comes from a higher level, so a term is
    # expanded once, with its whole coefficient; the term a step expands
    # is read off the caller, since _step sees only its core
    import sys
    expanded = []
    step = formal._step

    def recording_step(core, i):
        expanded.append(sys._getframe(1).f_locals["term"])
        assert expanded[-1].core is core
        return step(core, i)

    monkeypatch.setattr(formal, "_step", recording_step)
    runs = [(_k_family(k), None) for k in range(2, 9)]
    for psi, eps in _corpus_draws():
        runs.append((psi, None))
        if eps.product() == 1:
            runs.append((psi, eps))
    total = 0
    for psi, eps in runs:
        expanded.clear()
        packet_expand_fully(psi, eps)
        assert len(set(expanded)) == len(expanded)
        total += len(expanded)
    assert total > 3_000


def test_full_expansion_refuses_a_huge_block_before_any_work():
    # one DDR block with A - B = 10**6: the first step refuses its Jacquet
    # markers, and nothing is sized by the level 10**6 before that
    import tracemalloc
    psi = make_parameter([JordanBlock(RHO, 1_000_001, 1_000_001, 1, PLUS)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="Jacquet exponents"):
            packet_expand_fully(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_full_expansion_of_a_sum_that_cancels(monkeypatch):
    # a step whose terms all cancel leaves no level-0 bucket; the sum is 0
    monkeypatch.setattr(formal, "_step", lambda core, i: {})
    assert str(packet_expand_fully(_k_family(3))) == "0"
