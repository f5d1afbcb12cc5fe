import pickle
import random
import sys
import threading
from dataclasses import replace

import pytest

from arthurcalc.errors import (DomainError, NotDDR, NotDominating,
                               OddLeftover, OrderViolation, TooLarge)
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import (NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC,
                               QuadCharacter, RhoLabel)
from arthurcalc.params import (MAX_DIAG_SIZE, MINUS, PLUS, ArthurParameter,
                               BlockOrder, GroupForm, JordanBlock, classify,
                               diagonal_restriction, dominate, from_AB,
                               make_parameter, natural_order, number_copies,
                               SP, SO_EVEN, SO_ODD)
from arthurcalc.testing import (COMPACT, FAMILIES, random_elementary,
                                random_pure_parameter, random_p_order)

RHO = RhoLabel("rho", 1, ORTHOGONAL)
RHO2 = RhoLabel("sigma", 2, SYMPLECTIC)


def test_group_dimensions():
    assert GroupForm(SP, 4).N == 9
    assert GroupForm(SO_ODD, 4).N == 8
    assert GroupForm(SO_EVEN, 4).N == 8
    assert GroupForm(SP, 4).dual_parity == ORTHOGONAL
    assert GroupForm(SO_ODD, 4).dual_parity == SYMPLECTIC
    assert GroupForm(SO_EVEN, 4).dual_parity == ORTHOGONAL


def test_only_even_orthogonal_groups_carry_eta():
    w = QuadCharacter.of("w")
    assert GroupForm(SP, 2, w) == GroupForm(SP, 2)
    assert GroupForm(SO_ODD, 2, w) == GroupForm(SO_ODD, 2)
    assert GroupForm(SO_EVEN, 2, w).eta == w
    assert GroupForm(SO_EVEN, 2, w) != GroupForm(SO_EVEN, 2)
    assert GroupForm.of_dim(SP, 5, w) == GroupForm(SP, 2)
    assert GroupForm.of_dim(SO_ODD, 4, w) == GroupForm(SO_ODD, 2)
    assert GroupForm.of_dim(SO_EVEN, 4, w) == GroupForm(SO_EVEN, 2, w)


def test_with_blocks_rebuilds_every_kind():
    rng = random.Random(23)
    seen = set()
    for i in range(60):
        psi = random_pure_parameter(rng, max_blocks=5, max_ab=5,
                                    orthogonal_side=i % 3 != 0)
        seen.add((psi.group.kind, psi.group.eta.is_trivial()))
        assert psi.with_blocks(b for b, _ in psi.instances()) == psi
    assert {(SP, True), (SO_ODD, True), (SO_EVEN, True),
            (SO_EVEN, False)} <= seen


def test_with_blocks_rejects_a_dimension_of_the_wrong_parity():
    psi = make_parameter([JordanBlock(RHO, 3, 1)])
    assert psi.group == GroupForm(SP, 1)
    with pytest.raises(DomainError):
        psi.with_blocks([JordanBlock(RHO, 2, 2, 1, PLUS)])


def test_number_copies_counts_in_order_of_appearance():
    x, y = JordanBlock(RHO, 3, 1), JordanBlock(RHO, 1, 1, 1, PLUS)
    assert number_copies([x, y, x, x, y]) == (
        (x, 0), (y, 0), (x, 1), (x, 2), (y, 1))
    assert number_copies([]) == ()


def test_block_coordinates():
    blk = JordanBlock(RHO, 4, 2)
    assert blk.A == HalfInt(4)   # (4+2)/2 - 1 = 2
    assert blk.B == HalfInt(2)   # |4-2|/2 = 1
    assert blk.zeta == PLUS
    blk2 = JordanBlock(RHO, 2, 4)
    assert blk2.zeta == MINUS
    assert from_AB(RHO, HalfInt(4), HalfInt(2), PLUS).a == 4
    assert from_AB(RHO, HalfInt(4), HalfInt(2), MINUS).a == 2


def _parity(blk):
    """The block's self-dual parity from its definition."""
    if blk.rho.self_dual_type == NOT_SELF_DUAL:
        return None
    even = (blk.a + blk.b) % 2 == 0
    return ORTHOGONAL if even == (blk.rho.self_dual_type == ORTHOGONAL) \
        else SYMPLECTIC


def test_block_parity_spec_examples():
    assert JordanBlock(RHO, 4, 2).parity == ORTHOGONAL
    # a+b even with a symplectic label gives the symplectic type
    assert JordanBlock(RHO2, 3, 1).parity == SYMPLECTIC
    assert JordanBlock(RHO2, 2, 1).parity == ORTHOGONAL
    rho_nsd = RhoLabel("tau", 1, NOT_SELF_DUAL)
    assert JordanBlock(rho_nsd, 3, 2).parity is None


def _block_key(blk):
    """(rho id, rho dim, self-dual type, a, b, zeta), spelled out."""
    zeta = {PLUS: "+", MINUS: "-", None: "?"}[blk.zeta]
    return blk.rho.id, blk.rho.dim, blk.rho.self_dual_type, blk.a, blk.b, zeta


def test_block_facts_are_derived_once_outside_the_fields():
    rng = random.Random(41)
    for _ in range(50):
        for blk in random_pure_parameter(rng).blocks:
            fresh = JordanBlock(blk.rho, blk.a, blk.b, blk.mult, blk.zeta)
            assert fresh.alpha == max(blk.a, blk.b)
            assert fresh.segment == (blk.rho.id, blk.B.twice, blk.A.twice)
            assert fresh.total_dim == blk.mult * blk.dim
            assert fresh.parity == _parity(blk)
            assert fresh.sort_key == _block_key(blk)
            # the reads stored every fact on the block
            assert {"sort_key", "total_dim", "parity", "segment",
                    "alpha"} <= vars(fresh).keys()
            assert fresh.sort_key is fresh.sort_key
            assert fresh == blk and hash(fresh) == hash(blk)
            assert repr(fresh) == repr(blk)
            double = replace(fresh, mult=2 * fresh.mult)
            assert "total_dim" not in vars(double)
            assert double.total_dim == 2 * fresh.total_dim


def test_dual_pair_validation():
    tau = RhoLabel("tau", 1, NOT_SELF_DUAL)
    with pytest.raises(OddLeftover):
        ArthurParameter(GroupForm(SP, 1), (JordanBlock(tau, 3, 1),))
    ok = ArthurParameter(GroupForm(SP, 2),
                         (JordanBlock(tau, 2, 1), JordanBlock(tau.dual(), 2, 1),
                          JordanBlock(RHO, 1, 1, 1, PLUS)))
    assert len(ok.blocks) == 3


def test_diagonal_restriction_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 4, 2)])
    out = diagonal_restriction(psi)
    assert sorted((b.a, b.b, b.mult) for b in out.blocks) == [(3, 1, 1),
                                                              (5, 1, 1)]
    psi2 = make_parameter([JordanBlock(RHO, 5, 1)])
    out2 = diagonal_restriction(psi2)
    assert [(b.a, b.b) for b in out2.blocks] == [(5, 1)]

    psi3 = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    out3 = diagonal_restriction(psi3)
    assert sorted((b.a, b.mult) for b in out3.blocks) == [(1, 2), (3, 1)]


def test_diagonal_restriction_size_bound():
    # one block (rho, m, m) spreads into m blocks (rho, 2j + 1, 1)
    m = MAX_DIAG_SIZE
    edge = make_parameter([JordanBlock(RHO, m, m, 1, PLUS)])
    assert len(diagonal_restriction(edge).blocks) == m
    # the multiplicity of a block does not count
    over = make_parameter([JordanBlock(RHO, m, m, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 3, PLUS)])
    with pytest.raises(TooLarge, match=f"^sizes min\\(a, b\\) sum to "
                       f"{m + 1}, above the diagonal bound {m}$"):
        diagonal_restriction(over)


def test_dimension_conserved_by_diagonal_restriction():
    rng = random.Random(1)
    for _ in range(50):
        psi = random_pure_parameter(rng)
        out = diagonal_restriction(psi)
        assert sum(b.mult * b.dim for b in out.blocks) == psi.group.N


def test_classify_spec_examples():
    psi = make_parameter([JordanBlock(RHO, 4, 2), JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert psi.group == GroupForm(SP, 4)
    assert classify(psi) == frozenset({"discrete_diag_restriction"})

    psi2 = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert "discrete_diag_restriction" not in classify(psi2)

    psi3 = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    assert psi3.group == GroupForm(SP, 4)
    flags = classify(psi3)
    assert "discrete_diag_restriction" in flags and "elementary" in flags

    phi = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                          JordanBlock(RHO, 3, 1), JordanBlock(RHO, 5, 1)])
    assert "discrete" in classify(phi) and "tempered" in classify(phi)
    # a repeated block keeps a parameter tempered but not discrete
    phi2 = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                           JordanBlock(RHO, 3, 1, 2)])
    assert classify(phi2) == frozenset({"tempered"}) == _reference_flags(phi2)


def _reference_flags(psi):
    """classify(psi) from the definitions, recomputed on every call."""
    blocks = psi.blocks
    tempered = all(b.b == 1 for b in blocks)
    mult_free = all(b.mult == 1 for b in blocks)
    pure = all(_parity(b) == psi.group.dual_parity for b in blocks)
    by_rho = {}
    for b in blocks:
        by_rho.setdefault(b.rho.id, []).extend([(b.B.twice, b.A.twice)]
                                               * b.mult)
    disjoint = True
    for segs in by_rho.values():
        segs.sort()
        disjoint &= all(lo2 > hi1
                        for (_, hi1), (lo2, _) in zip(segs, segs[1:]))
    flags = set()
    if tempered:
        flags.add("tempered")
    if pure and mult_free and disjoint:
        flags.add("discrete_diag_restriction")
        if all(b.A == b.B for b in blocks):
            flags.add("elementary")
    if tempered and mult_free and pure:
        flags.add("discrete")
    return frozenset(flags)


def _reference_construct(group, blocks):
    """The constructor's result from its definition: the merged blocks in
    key order, or the (class, message) of the first check that fails;
    merge, total dimension, dual pairs."""
    merged = {}
    for blk in blocks:
        old = merged.get(_block_key(blk))
        if old is None:
            merged[_block_key(blk)] = blk
        elif old.rho != blk.rho:
            return DomainError, f"label id {blk.rho.id!r} used inconsistently"
        else:
            merged[_block_key(blk)] = replace(old,
                                              mult=old.mult + blk.mult)
    out = tuple(blk for _, blk in sorted(merged.items()))
    total = sum(blk.mult * blk.dim for blk in blocks)
    if total != group.N:
        return DomainError, f"blocks sum to {total}, expected N = {group.N}"
    counts = {(blk.rho.id, blk.a, blk.b): blk.mult for blk in out
              if not blk.rho.is_self_dual()}
    for (rid, a, b), mult in counts.items():
        if counts.get((RhoLabel(rid, 1, NOT_SELF_DUAL).dual().id, a, b)) \
                != mult:
            return OddLeftover, (f"non-self-dual block ({rid},{a},{b}) "
                                 "lacks a dual partner")
    return out


# the label id, dim and type of RHO and of RHO2 on other labels
_CLASHES = {RHO: RhoLabel("rho", 1, ORTHOGONAL, QuadCharacter.of("u")),
            RHO2: RhoLabel("sigma", 2, SYMPLECTIC, QuadCharacter.of("u"))}


def _random_block_list(rng):
    """Blocks over self-dual, non-self-dual and clashing labels, with
    duplicates, mostly paired duals, in shuffled order."""
    tau = RhoLabel("tau", 2, NOT_SELF_DUAL)
    pool = [RHO, RHO, RHO2, tau, tau.dual()]
    blocks = []
    for _ in range(rng.randint(0, 5)):
        rho = rng.choice(pool)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        zeta = rng.choice((PLUS, MINUS, None)) if a == b else None
        blk = JordanBlock(rho, a, b, rng.randint(1, 2), zeta)
        blocks.append(blk)
        if not rho.is_self_dual() and rng.random() < 0.8:
            blocks.append(replace(blk, rho=rho.dual()))
        if rng.random() < 0.3:
            blocks.append(replace(blk, mult=rng.randint(1, 2)))
    for rho, clash in _CLASHES.items():
        same_id = [blk for blk in blocks if blk.rho == rho]
        if same_id and rng.random() < 0.1:
            blocks.append(replace(rng.choice(same_id), rho=clash))
    rng.shuffle(blocks)
    return blocks


def test_constructor_matches_reference_on_random_block_lists():
    rng = random.Random(23)
    outcomes = {}
    named = {"'rho'": 0, "'sigma'": 0}
    for _ in range(3000):
        blocks = _random_block_list(rng)
        total = sum(blk.mult * blk.dim for blk in blocks)
        if rng.random() < 0.15:
            total += 2
        kind = SP if total % 2 else rng.choice((SO_ODD, SO_EVEN))
        group = GroupForm.of_dim(kind, total, QuadCharacter.trivial())
        expected = _reference_construct(group, blocks)
        try:
            got = ArthurParameter(group, tuple(blocks)).blocks
        except DomainError as exc:
            got = type(exc), str(exc)
        assert got == expected, (group, blocks)
        if expected and isinstance(expected[0], type):
            key = expected[1].split()[0]
            if set(_CLASHES.values()) <= {blk.rho for blk in blocks}:
                # both labels clash: the first clash in the order given
                # is named, whichever label sorts first
                named[expected[1].split()[2]] += 1
        else:
            assert [blk.mult for blk in got] == \
                [blk.mult for blk in expected]
            key = "merged" if len(got) < len(blocks) else "built"
        outcomes[key] = outcomes.get(key, 0) + 1
    # every branch is taken: plain, merged, inconsistent label, wrong
    # total, missing dual partner
    assert set(outcomes) == {"built", "merged", "label", "blocks",
                             "non-self-dual"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes
    assert min(named.values()) >= 5, named


def test_flags_cache_leaves_the_value_unchanged():
    blocks = [JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
              JordanBlock(RHO, 1, 1, 1, PLUS)]
    psi, fresh = make_parameter(blocks), make_parameter(blocks)
    flags = classify(psi)
    assert classify(psi) is flags  # computed once, then kept
    assert psi == fresh and hash(psi) == hash(fresh)
    assert repr(psi) == repr(fresh)
    assert replace(psi) == replace(fresh) == psi
    # a replaced value is a new value and classifies afresh
    tempered = replace(psi, blocks=(JordanBlock(RHO, 9, 1),))
    assert classify(tempered) == frozenset(
        {"tempered", "discrete", "discrete_diag_restriction", "elementary"})
    back = pickle.loads(pickle.dumps(psi))
    assert back == psi and hash(back) == hash(psi)
    assert classify(back) == flags == _reference_flags(psi)


def test_cached_flags_match_reference_on_compact_draws(monkeypatch):
    # every parameter built while the registry runs at COMPACT size
    seen = []
    post_init = ArthurParameter.__post_init__

    def recording(self):
        post_init(self)
        seen.append(self)

    monkeypatch.setattr(ArthurParameter, "__post_init__", recording)
    rng = random.Random(0)
    for family in FAMILIES.values():
        family(rng, COMPACT)
    monkeypatch.undo()
    # the families classified many of them, so those flags come from the
    # cache
    assert sum("discrete_diag_restriction" in vars(psi).get("_flags", ())
               for psi in seen) > 100
    for psi in seen:
        assert classify(psi) == _reference_flags(psi), psi
        assert classify(ArthurParameter(psi.group, psi.blocks)) == \
            classify(psi)


def test_flags_cache_under_racing_threads():
    rng = random.Random(4)
    params = [random_pure_parameter(rng) for _ in range(200)]
    expected = [_reference_flags(psi) for psi in params]
    start = threading.Barrier(6)
    results = [None] * 6

    def work(k):
        start.wait()
        results[k] = [classify(psi) for psi in params]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got == expected for got in results)
    assert [classify(psi) for psi in params] == expected


def _reference_labels(psi):
    """Per rho id, ascending: its label, the sizes max(a, b) of its
    blocks ascending, and their zetas, read block by block."""
    table = {}
    for rid in sorted({blk.rho.id for blk in psi.blocks}):
        mine = sorted((blk for blk in psi.blocks if blk.rho.id == rid),
                      key=lambda blk: max(blk.a, blk.b))
        table[rid] = (mine[0].rho, tuple(max(b.a, b.b) for b in mine),
                      tuple(b.zeta for b in mine))
    return table


def test_label_table_matches_its_definition():
    rng = random.Random(66)
    labels = sizes = 0
    for k in range(300):
        psi = (random_elementary if k % 2 else random_pure_parameter)(rng)
        want = _reference_labels(psi)
        assert psi._labels == want, psi
        assert psi.rho_labels() == [rho for rho, _, _ in want.values()]
        labels = max(labels, len(want))
        sizes = max(sizes, *(len(alphas) for _, alphas, _ in want.values()))
    assert labels >= 3 and sizes >= 4


def test_natural_order():
    psi = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    order = natural_order(psi)
    alphas = [max(b.a, b.b) for b, _ in order.sequence]
    assert alphas == [1, 3, 5]  # ascending in A

    single = make_parameter([JordanBlock(RHO, 3, 1)])
    assert len(natural_order(single).sequence) == 1

    non_ddr = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                              JordanBlock(RHO, 1, 1, 1, PLUS)])
    with pytest.raises(NotDDR):
        natural_order(non_ddr)


def test_condition_p_validator():
    big = JordanBlock(RHO, 6, 2)    # A=3, B=2
    small = JordanBlock(RHO, 3, 1)  # A=1, B=1
    good = BlockOrder(((small, 0), (big, 0)))
    assert good.sequence == ((small, 0), (big, 0))
    with pytest.raises(OrderViolation):
        BlockOrder(((big, 0), (small, 0)))


def test_block_order_positions():
    psi = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    i0, i1 = psi.instances()
    assert BlockOrder((i1, i0)).positions((i0, i1)) == (1, 0)
    for order in (BlockOrder((i0,)), BlockOrder((i0, i1, i1)),
                  BlockOrder((i0, (JordanBlock(RHO, 3, 1), 0)))):
        with pytest.raises(DomainError,
                           match="enumerate the parameter's blocks"):
            order.positions((i0, i1))


def test_dominate_spec_examples():
    blk = from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)  # (a,b) = (4,2)
    psi = make_parameter([blk])
    order = natural_order(psi)
    psi_gg, order_gg = dominate(psi, order, shifts={0: 2})
    shifted = psi_gg.blocks[0]
    # (A, B) moves from (2, 1) to (4, 3), i.e. (a, b) = (8, 2)
    assert (shifted.A.twice, shifted.B.twice) == (8, 6)
    assert (shifted.a, shifted.b) == (8, 2)

    same, _ = dominate(psi, order, shifts={0: 0})
    assert same == psi

    psi2 = make_parameter([JordanBlock(RHO, 2, 2, 1, PLUS),
                           JordanBlock(RHO, 1, 1, 1, PLUS)])
    insts = psi2.instances()
    order2 = BlockOrder((insts[0], insts[1]))  # (1,1) then (2,2)
    gg, order_gg2 = dominate(psi2, order2, ensure_ddr=True)
    assert "discrete_diag_restriction" in classify(gg)
    segs = sorted((b.B.twice, b.A.twice) for b in gg.blocks)
    assert segs[0][1] < segs[1][0]  # strictly separated supports


def test_dominate_order_violation():
    nested_low = from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)
    nested_high = from_AB(RHO, HalfInt(2), HalfInt(0), PLUS)
    psi = make_parameter([nested_low, nested_high])
    insts = psi.instances()
    by_A = sorted(insts, key=lambda i: i[0].A.twice)
    order = BlockOrder(tuple(by_A))
    with pytest.raises(OrderViolation):
        dominate(psi, order, shifts={0: 5})


def test_dominate_refuses_another_parameters_order():
    psi = make_parameter([JordanBlock(RHO, 3, 1)])
    other = make_parameter([JordanBlock(RHO, 5, 1)])
    with pytest.raises(DomainError, match="enumerate the parameter's blocks"):
        dominate(psi, natural_order(other), {0: 1})


def test_dominate_negative_shift():
    psi = make_parameter([from_AB(RHO, HalfInt(4), HalfInt(2), PLUS)])
    with pytest.raises(NotDominating):
        dominate(psi, natural_order(psi), shifts={0: -1})


def test_dominance_translates_segments():
    rng = random.Random(5)
    for _ in range(30):
        psi = random_pure_parameter(rng, max_blocks=4)
        order = random_p_order(rng, psi)
        t = rng.randint(0, 3)
        gg, _ = dominate(psi, order, shifts={i: t for i in
                                             range(len(order.sequence))})
        before = sorted((b.rho.id, b.B.twice, b.A.twice)
                        for b, _ in psi.instances())
        after = sorted((b.rho.id, b.B.twice, b.A.twice)
                       for b, _ in gg.instances())
        assert all(x[1] + 2 * t == y[1] and x[2] + 2 * t == y[2]
                   for x, y in zip(before, after))


def test_ensure_ddr_always_lands_in_ddr():
    rng = random.Random(6)
    for _ in range(60):
        psi = random_pure_parameter(rng, max_blocks=5)
        order = random_p_order(rng, psi)
        gg, order_gg = dominate(psi, order, ensure_ddr=True)
        assert "discrete_diag_restriction" in classify(gg)
        # (P) holds: building the order again does not raise
        BlockOrder(order_gg.sequence)


def test_classify_stable_under_relabeling():
    rng = random.Random(9)
    for _ in range(30):
        psi = random_pure_parameter(rng, max_blocks=4)
        renamed = ArthurParameter(psi.group, tuple(
            JordanBlock(RhoLabel("x" + b.rho.id, b.rho.dim,
                                 b.rho.self_dual_type, b.rho.det_char),
                        b.a, b.b, b.mult, b.zeta) for b in psi.blocks))
        assert classify(psi) == classify(renamed)


def _generator_fingerprint():
    """SHA-256 over seeded draws of each random generator of
    arthurcalc.testing, each followed by the generator's next float, so
    that how much of the stream a draw consumes is pinned too."""
    import hashlib
    from arthurcalc.testing import (random_ddr_parameter, random_discrete_pair,
                                    random_elementary)
    draws = [
        random_pure_parameter,
        lambda rng: random_pure_parameter(rng, max_blocks=3, max_ab=4,
                                          max_rhos=2, orthogonal_side=False),
        lambda rng: random_pure_parameter(rng, orthogonal_side=True),
        lambda rng: (lambda psi: (psi, random_p_order(rng, psi)))(
            random_pure_parameter(rng, max_blocks=4)),
        random_ddr_parameter,
        lambda rng: random_ddr_parameter(rng, max_blocks=2, max_level=2),
        random_elementary,
        lambda rng: random_elementary(rng, max_blocks=2, max_alpha=4),
        random_discrete_pair,
        lambda rng: random_discrete_pair(rng, max_blocks=2, max_a=3),
    ]
    digest = hashlib.sha256()
    for seed, draw in enumerate(draws):
        rng = random.Random(seed)
        for _ in range(200):
            digest.update(repr(draw(rng)).encode())
            digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


# computed before the generators shared one parity rule
GENERATOR_FINGERPRINT = \
    "71068c7173bde34996002bdc39aa8bc97ba7d9ed72a00f7c80a7ddf9e90cb3d7"


def test_generator_fingerprint():
    assert _generator_fingerprint() == GENERATOR_FINGERPRINT
