import dataclasses
import itertools
import random
import re
import sys
import threading
from collections import Counter
from typing import Tuple

import pytest

from arthurcalc.charspace import (CLASS, MULT, SignVector, constant,
                                  enumerate_characters)
from arthurcalc.errors import DomainError, SupportMismatch, TooLarge
from arthurcalc.halfint import HalfInt
from arthurcalc.labels import ORTHOGONAL, QuadCharacter, RhoLabel
from arthurcalc import packets
from arthurcalc.packets import (GUARANTEED, UNDECIDED, ConstituentClass,
                                eta_constraint_check,
                                packet_constituents, translate_m_w)
from arthurcalc.params import (MINUS, PLUS, ArthurParameter, JordanBlock,
                               _block_classes,
                               _class_count, classify, from_AB,
                               make_parameter)
from arthurcalc.testing import (_ddr_grid, random_ddr_parameter,
                                random_p_order, random_pure_parameter)

RHO = RhoLabel("rho", 1, ORTHOGONAL)


@dataclasses.dataclass(frozen=True)
class LEtaPair:
    """Functions l (segment count) and eta (sign) on the block instances:
    one pair of a constituent class, built with its checks."""

    l: Tuple[int, ...]
    eta: Tuple[int, ...]

    def __post_init__(self):
        if len(self.l) != len(self.eta):
            raise DomainError("l and eta must share a domain")
        eta = self.eta
        if eta.count(1) + eta.count(-1) != len(eta):
            raise DomainError("eta values must be +-1")


def _expanded(cls):
    """A listed class as (representative, pairs, status): its pairs share
    its l and pick one of its eta choices at each block, in product
    order, each built through the checked constructor."""
    pairs = tuple(LEtaPair(cls.l, eta)
                  for eta in itertools.product(*cls.eta))
    return pairs[0], pairs, cls.status


def _single(ta, tb, zeta=PLUS):
    return make_parameter([from_AB(RHO, HalfInt(ta), HalfInt(tb), zeta)])


def _instance_gaps(psi):
    return tuple(int(blk.A - blk.B) + 1 for blk, _ in psi.instances())


def _sigma0_equal(gaps, p, q):
    """Same l everywhere, same eta except where 2l = A - B + 1, at which
    both eta values label the same constituent."""
    return p.l == q.l and all(
        ep == eq or 2 * l == gap
        for gap, l, ep, eq in zip(gaps, p.l, p.eta, q.eta))


def equiv_sigma0(psi, p, q):
    return _sigma0_equal(_instance_gaps(psi), p, q)


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


def test_translate_m_w_multiplicity_free():
    rng = random.Random(35)
    hits = 0
    for _ in range(100):
        psi = random_pure_parameter(rng, max_blocks=4)
        if any(b.mult > 1 for b in psi.blocks):
            continue
        order = random_p_order(rng, psi)
        for eps in enumerate_characters(psi)[:8]:
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
        for eps in enumerate_characters(psi):
            out = translate_m_w(psi, eps, order)
            if out is None:
                continue
            assert out.signs not in seen
            seen[out.signs] = eps


def _above_the_bounds():
    """Eight blocks with four classes each at every sign, 4**8 classes in
    all, and fifteen instances of a block with one class."""
    return (make_parameter([from_AB(RHO, HalfInt(2 * k + 12), HalfInt(2 * k),
                                    PLUS) for k in range(8)]),
            make_parameter([from_AB(RHO, HalfInt(0), HalfInt(0), PLUS,
                                    mult=15)]))


def test_enumeration_bound():
    # fourteen instances with two classes each: both bounds exactly met
    edge = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS,
                                   mult=14)])
    assert len(packet_constituents(edge, constant(edge, -1))) == 2 ** 14
    classes, instances = _above_the_bounds()
    for big, message in ((classes, "65536 constituent classes"),
                         (instances, "15 blocks")):
        with pytest.raises(TooLarge, match=f"^{message} exceeds bound"):
            packet_constituents(big, constant(big))


def _filtered_block_classes(gap, sign):
    """Every (l, eta) with 0 <= l <= [gap/2] kept when
    eta**gap * (-1)**([gap/2] + l) is sign, grouped by l alone where
    2l = gap and by (l, eta) elsewhere, in first-seen order."""
    classes = {}
    for l in range(gap // 2 + 1):
        for eta in (1, -1):
            if eta ** gap * (-1) ** (gap // 2 + l) == sign:
                classes.setdefault(l if 2 * l == gap else (l, eta),
                                   []).append((l, eta))
    return list(classes.values())


def test_block_classes_closed_form_matches_the_filter():
    for gap in range(1, 41):
        for sign in (1, -1):
            classes = [[(l, eta) for eta in etas]
                       for l, etas in zip(*_block_classes(gap, sign))]
            assert classes == _filtered_block_classes(gap, sign), (gap, sign)
            assert _class_count(gap, sign) == len(classes) > 0


def test_class_counts_of_both_signs_sum_to_gap_plus_one():
    """The 2([gap/2] + 1) pairs (l, eta) at a block fall into gap + 1
    classes, the two pairs with 2l = gap making one, split between the
    two signs; so the counts of the two signs sum to gap + 1."""
    for gap in range(1, 41):
        assert _class_count(gap, 1) + _class_count(gap, -1) == gap + 1, gap


def test_class_rows_are_built_at_most_twice_per_gap(monkeypatch):
    """Over every sign vector of one parameter, the class rows of each
    distinct gap are built once per sign at most, not once per block and
    call."""
    real, built = packets._block_classes, []
    monkeypatch.setattr(packets, "_block_classes",
                        lambda gap, sign: built.append(gap) or
                        real(gap, sign))
    psi = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
                          from_AB(RHO, HalfInt(6), HalfInt(4), MINUS),
                          from_AB(RHO, HalfInt(12), HalfInt(8), PLUS)])
    assert psi._gaps == (2, 2, 3)
    listed = sum(len(packet_constituents(psi, SignVector(MULT, signs)))
                 for signs in itertools.product((1, -1), repeat=3))
    assert listed == 3 * 3 * 4  # gap + 1 classes a block, both signs
    assert set(built) == {2, 3} and max(Counter(built).values()) <= 2


def test_class_rows_under_racing_threads():
    """Threads that list the constituents of the same parameters at once
    fill each parameter's class rows together; each gets the listing
    that a fresh copy of the parameter gives on its own."""
    rng = random.Random(68)
    params = [random_pure_parameter(rng, max_blocks=3, max_ab=5)
              for _ in range(80)]
    vectors = [[SignVector(MULT, signs) for signs in itertools.product(
        (1, -1), repeat=psi.instance_count())] for psi in params]
    expected = [[packet_constituents(ArthurParameter(psi.group, psi.blocks),
                                     v) for v in vs]
                for psi, vs in zip(params, vectors)]
    start = threading.Barrier(6)
    results = [None] * 6

    def work(k):
        start.wait()
        results[k] = [[packet_constituents(psi, v) for v in vs]
                      for psi, vs in zip(params, vectors)]

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
    assert sum(map(len, vectors)) > 250


@pytest.mark.parametrize("l,eta,error", [
    ((0, 1), (1,), "l and eta must share a domain"),
    ((0,), (1, 0), "l and eta must share a domain"),
    ((0, 1), (1, 0), "eta values must be +-1"),
    ((0, 1), (-1, 2), "eta values must be +-1"),
    ((0,), (True,), None),
    ((0, 1), (1, -1.0), None),
    ((), (), None),
], ids=["short-eta", "long-eta", "zero", "two", "true", "float", "empty"])
def test_l_eta_pair_checks(l, eta, error):
    if error is None:
        assert LEtaPair(l, eta).eta == eta
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
            LEtaPair(l, eta)


@pytest.mark.parametrize("support,signs,message", [
    (MULT, (1, 1), "2 signs given for 3 block instances"),
    (MULT, (1, 1, 1, 1), "4 signs given for 3 block instances"),
    (CLASS, (1, 1, 1), "eps has class support where mult is needed"),
], ids=["short", "long", "class"])
def test_eps_off_the_instances_is_refused(support, signs, message):
    psi = make_parameter([JordanBlock(RHO, 5, 1), JordanBlock(RHO, 1, 3),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    eps = SignVector(support, signs)
    with pytest.raises(SupportMismatch, match=f"^{message}$"):
        packet_constituents(psi, eps)
    # refused before either bound is looked at
    for big in _above_the_bounds():
        with pytest.raises(SupportMismatch):
            packet_constituents(big, SignVector(support, signs))


def test_translate_m_w_compatible_with_products():
    rng = random.Random(55)
    rounds = 0
    for _ in range(60):
        psi = random_pure_parameter(rng, max_blocks=4)
        if any(b.mult > 1 for b in psi.blocks):
            continue
        order = random_p_order(rng, psi)
        chars = enumerate_characters(psi)
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
    """Brute force: every l in 0..[(A-B+1)/2] and eta = +-1 at each
    instance, kept when eta**(A-B+1) * (-1)**([(A-B+1)/2] + l) is the sign
    of eps at every instance, then grouped under _sigma0_equal in
    first-seen order, with their status."""
    status = GUARANTEED if "discrete_diag_restriction" in classify(psi) \
        else UNDECIDED
    gaps = _instance_gaps(psi)
    classes = []
    for combo in itertools.product(*([(l, eta) for l in range(gap // 2 + 1)
                                      for eta in (1, -1)] for gap in gaps)):
        if any(eta ** gap * (-1) ** (gap // 2 + l) != sign
               for gap, (l, eta), sign in zip(gaps, combo, eps.signs)):
            continue
        pair = LEtaPair(tuple(l for l, _ in combo),
                        tuple(eta for _, eta in combo))
        for cls in classes:
            if _sigma0_equal(gaps, cls[0], pair):
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
        got = [_expanded(c) for c in packet_constituents(psi, eps)]
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


def test_constituents_equal_their_checked_rebuilds():
    """packet_constituents builds its classes without their constructor;
    each equals, field for field, the value that the constructor builds
    from its fields, its eta choices expand into pairs that the checked
    pair constructor accepts, and its size counts those pairs."""
    rng = random.Random(24)
    ddr = set()
    classes = 0
    for _ in range(150):
        psi = random_pure_parameter(rng, max_blocks=4, max_ab=4)
        n = len(psi.instances())
        if n > 6:
            continue
        ddr.add("discrete_diag_restriction" in classify(psi))
        for signs in itertools.product((1, -1), repeat=n):
            for got in packet_constituents(psi, SignVector(MULT, signs)):
                want = ConstituentClass(got.l, got.eta, got.status, got.size)
                assert vars(got) == vars(want)
                _, pairs, _ = _expanded(got)
                assert got.size == len(pairs)
                classes += 1
    assert ddr == {True, False} and classes > 1000


def test_listing_builds_no_pair_object():
    """A class is listed by its l, eta choices, status and size, which are
    plain ints, strs and tuples of them: the module defines no pair type,
    and no row holds an object of one."""
    def plain(value):
        if isinstance(value, tuple):
            return all(map(plain, value))
        return type(value) in (int, str)

    assert [name for name, value in vars(packets).items()
            if dataclasses.is_dataclass(value)
            and value.__module__ == packets.__name__] == ["ConstituentClass"]
    psi = make_parameter([from_AB(RHO, HalfInt(2), HalfInt(0), PLUS),
                          JordanBlock(RHO, 2, 2, 2, PLUS)])
    rows = [c for signs in itertools.product((1, -1), repeat=3)
            for c in packet_constituents(psi, SignVector(MULT, signs))]
    assert any(c.size > 1 for c in rows)
    assert all(plain(tuple(vars(c).values())) for c in rows)


def test_gaps_are_a_minus_b_plus_one_on_instances():
    rng = random.Random(21)
    repeated = 0
    for _ in range(200):
        psi = random_pure_parameter(rng, max_blocks=6, max_ab=4)
        assert psi._gaps == tuple(int(blk.A - blk.B) + 1
                                  for blk, _ in psi.instances()), psi
        repeated += any(b.mult > 1 for b in psi.blocks)
    assert repeated > 10


def _census_fingerprint():
    """SHA-256 over packet_constituents on seeded DDR and off-DDR
    parameters, multiplicities among them, and on two parameters at or
    above the class bound, at every sign vector; each row holds every
    class's representative, pairs and status as repr, or the error's
    class and message."""
    import hashlib
    rng = random.Random(2929)
    params = []
    while len(params) < 120:
        psi = random_ddr_parameter(rng, max_blocks=3) if len(params) % 3 \
            else random_pure_parameter(rng, max_blocks=5, max_ab=5)
        if psi.instance_count() <= 6:
            params.append(psi)
    # gap 256 has 129 classes at + and 128 at -: only (-, -) is listed
    params += [_above_the_bounds()[0],
               make_parameter([from_AB(RHO, HalfInt(2 * k + 510),
                                       HalfInt(2 * k), PLUS)
                               for k in (0, 258)])]
    assert {"discrete_diag_restriction" in classify(psi)
            for psi in params} == {True, False}
    assert any(blk.mult > 1 for psi in params for blk in psi.blocks)
    digest = hashlib.sha256()
    for psi in params:
        rows = [repr(psi)]
        for signs in itertools.product((1, -1),
                                       repeat=psi.instance_count()):
            try:
                rows.append([_expanded(c) for c in
                             packet_constituents(psi, SignVector(MULT, signs))])
            except DomainError as e:
                rows.append((type(e).__name__, str(e)))
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed before the classes were built per block class
CENSUS_FINGERPRINT = \
    "b9846ddeab5e9020e6ce38e37fbe5a7f22f93d83623aa8d88dfcb38ce5f9d023"


def test_census_fingerprint():
    assert _census_fingerprint() == CENSUS_FINGERPRINT
