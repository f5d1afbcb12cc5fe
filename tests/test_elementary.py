import random

import pytest

from arthurcalc.charspace import CLASS, MULT, SignVector
from arthurcalc.elementary import (CASE2_SHIFT, CASE3A, CASE3B, CASE3C_I,
                                   CASE3C_II, SUPERCUSPIDAL_BASE,
                                   _check_elementary, _cuspidal_bound,
                                   construction_trace)
from arthurcalc.errors import (AmbiguousChoice, NotACharacter,
                               NotElementary, UnresolvedZeta)
from arthurcalc.labels import ORTHOGONAL, SYMPLECTIC, RhoLabel
from arthurcalc.params import (MINUS, PLUS, ArthurParameter, JordanBlock,
                               diagonal_restriction, elementary_alpha,
                               elementary_block, is_elementary,
                               make_parameter)
from arthurcalc.segments import (EpsMap, check_character, cuspidal_support,
                                 supercuspidal_test)
from arthurcalc.signs import aubert_flip
from arthurcalc.testing import random_elementary
from reduction import parabolic_reduce_step

RHO = RhoLabel("rho", 1, ORTHOGONAL)


def _elem(pairs, rho=RHO):
    return make_parameter([elementary_block(rho, a, d) for a, d in pairs])


def _eps(values, rho=RHO):
    return EpsMap({(rho.id, a): v for a, v in values.items()})


def rho_cuspidal_bound(psi, eps, rho):
    """The cuspidal bound (b, a, delta) of one rho, as construction_trace
    reads it off the per-label table of an elementary parameter."""
    _check_elementary(psi)
    _, sizes, deltas = psi._labels.get(rho.id, (rho, (), ()))
    return _cuspidal_bound(rho.id, sizes, deltas, eps)


def leaves(node):
    """The leaves of a construction tree, left to right."""
    if not node.children:
        return [node]
    return [leaf for child in node.children for leaf in leaves(child)]


def tree_size(node):
    return 1 + sum(tree_size(c) for c in node.children)


def aubert_chain(psi):
    """Flip instructions whose composition rebuilds psi from its all-plus
    form: for each block with delta -1, first the non-strict then the
    strict flip at its size."""
    _check_elementary(psi)
    out = []
    for blk in sorted(psi.blocks, key=lambda b: (b.rho.id,
                                                 elementary_alpha(b))):
        if blk.zeta_resolved() == MINUS:
            alpha = elementary_alpha(blk)
            out.append((blk.rho, alpha, False))
            out.append((blk.rho, alpha, True))
    return out


def all_plus_form(psi):
    """The elementary parameter with every delta raised to +1."""
    _check_elementary(psi)
    return ArthurParameter(psi.group, tuple(
        elementary_block(b.rho, elementary_alpha(b), PLUS)
        for b in psi.blocks))


def test_rho_cuspidal_bound_full_chain():
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    b, a, delta = rho_cuspidal_bound(psi, _eps({1: -1, 3: 1, 5: -1}), RHO)
    assert (b, a, delta) == (5, None, None)


def test_rho_cuspidal_bound_gap():
    psi = _elem([(1, PLUS), (5, MINUS)])
    b, a, delta = rho_cuspidal_bound(psi, _eps({1: 1, 5: 1}), RHO)
    assert b == 1 and a == 5 and delta == MINUS


def test_rho_cuspidal_bound_empty():
    psi = _elem([(1, PLUS)])
    other = RhoLabel("other", 1, ORTHOGONAL)
    b, a, delta = rho_cuspidal_bound(psi, _eps({1: 1}), other)
    assert (b, a, delta) == (0, None, None)


def test_rho_cuspidal_bound_broken_alternation():
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    # equal signs at 3 and 1 break the chain above 1
    b, a, _ = rho_cuspidal_bound(psi, _eps({1: 1, 3: 1, 5: -1}), RHO)
    assert b == 1 and a == 3


def test_trace_supercuspidal_base():
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    node = construction_trace(psi, _eps({1: -1, 3: 1, 5: -1}))
    assert node.case_tag == SUPERCUSPIDAL_BASE
    assert tree_size(node) == 1


def test_trace_case2_spec_example():
    psi = _elem([(1, PLUS), (5, PLUS)])
    node = construction_trace(psi, _eps({1: -1, 5: -1}))
    assert node.case_tag == CASE2_SHIFT
    seg = node.inducing[0]
    assert seg.x.twice == 4 and seg.y.twice == 4  # exponent delta * 2
    child = node.children[0]
    assert sorted(elementary_alpha(b) for b in child.psi.blocks) == [1, 3]


def test_trace_case3c():
    psi = _elem([(1, PLUS), (3, PLUS)])
    node = construction_trace(psi, _eps({1: -1, 3: -1}))
    assert node.case_tag == CASE3C_I
    assert ("choice", "+") in node.annotations
    node2 = construction_trace(psi, _eps({1: -1, 3: -1}), case3ci_branch=MINUS)
    assert ("choice", "-") in node2.annotations

    bigger = _elem([(1, PLUS), (3, PLUS), (5, MINUS)])
    node3 = construction_trace(bigger, _eps({1: -1, 3: -1, 5: 1}))
    assert node3.case_tag == CASE3C_II
    assert ("a_next", "5") in node3.annotations


def test_trace_case3a_even_sizes():
    rho2 = RhoLabel("sig", 2, SYMPLECTIC)
    psi = _elem([(2, PLUS), (4, PLUS)], rho=rho2)
    node = construction_trace(psi, _eps({2: -1, 4: -1}, rho=rho2))
    assert node.case_tag == CASE3A
    assert len(node.children) == 2
    # primary child flips the chain below b
    child = node.children[0]
    assert {elementary_alpha(b): b.zeta for b in child.psi.blocks} == \
        {2: MINUS}
    assert child.eps[("sig", 2)] == 1


def test_trace_case3b_odd_sizes():
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    # cuspidal through 3 (eps alternates 1,3), fails at 5
    node = construction_trace(psi, _eps({1: 1, 3: -1, 5: -1}))
    assert node.case_tag == CASE3B
    assert len(node.children) == 2
    segs = node.inducing
    assert segs[0].y.twice == 0    # first embedding ends at 0
    assert segs[1].y.twice == -2   # companion ends at -delta(b-1)/2


def test_all_leaves_supercuspidal():
    rng = random.Random(10)
    done = 0
    for _ in range(300):
        psi = random_elementary(rng, max_blocks=4, max_alpha=7)
        classes = psi.blocks
        signs = [rng.choice((1, -1)) for _ in classes]
        if len(signs) and signs.count(-1) % 2:
            signs[0] = -signs[0]  # land in the character space
        prod = 1
        for s in signs:
            prod *= s
        if prod != 1:
            continue
        eps = EpsMap({(b.rho.id, elementary_alpha(b)): s
                      for b, s in zip(classes, signs)})
        node = construction_trace(psi, eps)
        for leaf in leaves(node):
            assert leaf.case_tag == SUPERCUSPIDAL_BASE
            phi = diagonal_restriction(leaf.psi)
            assert supercuspidal_test(phi, leaf.eps)
        done += 1
    assert done > 100


def test_trace_children_shrink():
    rng = random.Random(20)
    for _ in range(100):
        psi = random_elementary(rng, max_blocks=3, max_alpha=7)
        classes = psi.blocks
        signs = [rng.choice((1, -1)) for _ in classes]
        prod = 1
        for s in signs:
            prod *= s
        if prod != 1:
            signs[0] = -signs[0]
        eps = EpsMap({(b.rho.id, elementary_alpha(b)): s
                      for b, s in zip(classes, signs)})
        node = construction_trace(psi, eps)

        def walk(n):
            total = sum(elementary_alpha(b) for b in n.psi.blocks)
            for c in n.children:
                child_total = sum(elementary_alpha(b) for b in c.psi.blocks)
                assert child_total < total
                walk(c)
        walk(node)


def test_aubert_chain_spec_examples():
    psi = _elem([(3, PLUS)])
    assert aubert_chain(psi) == []

    psi2 = _elem([(3, MINUS)])
    chain = aubert_chain(psi2)
    assert [(r.id, a, s) for r, a, s in chain] == \
        [("rho", 3, False), ("rho", 3, True)]


def test_aubert_chain_rebuilds_parameter():
    rng = random.Random(30)
    for _ in range(200):
        psi = random_elementary(rng)
        current = all_plus_form(psi)
        for rho, x0, strict in aubert_chain(psi):
            current = aubert_flip(current, rho, x0, strict)
        assert current == psi


def test_aubert_chain_reversal_involution():
    rng = random.Random(40)
    for _ in range(100):
        psi = random_elementary(rng)
        chain = aubert_chain(psi)
        current = psi
        for rho, x0, strict in reversed(chain):
            current = aubert_flip(current, rho, x0, strict)
        assert current == all_plus_form(psi)


def test_not_elementary_rejected():
    psi = make_parameter([JordanBlock(RHO, 4, 2),
                          JordanBlock(RHO, 1, 1, 1, PLUS)])
    with pytest.raises(NotElementary):
        aubert_chain(psi)
    with pytest.raises(NotElementary):
        rho_cuspidal_bound(psi, _eps({}), RHO)


def _leaf_pairs(node):
    out = []
    for leaf in leaves(node):
        phi = diagonal_restriction(leaf.psi)
        key = (tuple(sorted((b.rho.id, b.a) for b in phi.blocks)),
               tuple(sorted(leaf.eps.values.items())))
        out.append(key)
    return out


def test_all_leaves_share_one_supercuspidal_pair():
    # every embedding chain lands on the same cuspidal core
    rng = random.Random(77)
    rounds = 0
    for _ in range(300):
        psi = random_elementary(rng, max_blocks=4, max_alpha=7)
        classes = psi.blocks
        signs = [rng.choice((1, -1)) for _ in classes]
        prod = 1
        for s in signs:
            prod *= s
        if prod != 1:
            signs[0] = -signs[0]
        eps = EpsMap({(b.rho.id, elementary_alpha(b)): s
                      for b, s in zip(classes, signs)})
        node = construction_trace(psi, eps)
        keys = set(_leaf_pairs(node))
        assert len(keys) == 1
        rounds += 1
    assert rounds == 300


def test_tempered_trace_matches_cuspidal_support():
    # a tempered pair reduces to the same terminal through either the
    # construction recursion or the step-by-step reduction chain
    from arthurcalc.testing import random_discrete_pair
    rng = random.Random(88)
    rounds = 0
    for _ in range(300):
        phi, eps = random_discrete_pair(rng, max_blocks=4, max_a=7)
        elem = phi.resolve_zeta(PLUS)
        node = construction_trace(elem, eps)
        cusp, eps_c, _ = cuspidal_support(phi, eps)
        expect = (tuple(sorted((b.rho.id, b.a) for b in cusp.blocks)),
                  tuple(sorted(eps_c.values.items())))
        assert set(_leaf_pairs(node)) == {expect}
        rounds += 1
    assert rounds == 300


def test_case3ci_ambiguity_surfaced():
    from arthurcalc.errors import AmbiguousChoice
    psi = _elem([(1, PLUS), (3, PLUS)])
    with pytest.raises(AmbiguousChoice):
        construction_trace(psi, _eps({1: -1, 3: -1}), case3ci_branch=None)
    # an unambiguous pair is unaffected by the sentinel
    sc = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    node = construction_trace(sc, _eps({1: -1, 3: 1, 5: -1}),
                              case3ci_branch=None)
    assert node.case_tag == SUPERCUSPIDAL_BASE


def test_character_checked_before_zeta():
    # an unresolved zeta surfaces only once the character has passed
    psi = make_parameter([JordanBlock(RHO, 1, 1), JordanBlock(RHO, 3, 1)])
    with pytest.raises(NotACharacter):
        construction_trace(psi, _eps({1: 1, 3: -1}))
    with pytest.raises(NotACharacter):
        construction_trace(psi, _eps({1: 1}))
    with pytest.raises(UnresolvedZeta):
        construction_trace(psi, _eps({1: -1, 3: -1}))


def _rho_row(rho):
    return rho.id, rho.dim, rho.self_dual_type


def _psi_row(psi):
    return (str(psi.group),
            tuple((_rho_row(b.rho), b.a, b.b, b.mult, b.zeta)
                  for b in psi.blocks))


def _node_row(node):
    return (node.case_tag, node.rho_id,
            tuple((_rho_row(s.rho), s.x.twice, s.y.twice)
                  for s in node.inducing),
            node.annotations, _psi_row(node.psi),
            tuple(sorted(node.eps.values.items())),
            tuple(_node_row(c) for c in node.children))


def _fingerprint_pairs():
    """The seeded elementary pairs that the trace fingerprint covers."""
    rng = random.Random(2024)
    for _ in range(150):
        psi = random_elementary(rng, max_blocks=4, max_alpha=9)
        signs = [rng.choice((1, -1)) for _ in psi.blocks]
        if signs.count(-1) % 2:
            signs[0] = -signs[0]
        yield psi, EpsMap({(b.rho.id, elementary_alpha(b)): s
                           for b, s in zip(psi.blocks, signs)})


def _trace_fingerprint():
    """SHA-256 over seeded construction trees: every node's case tag,
    rho, inducing segments, notes, parameter and character, for both
    labelling branches and the unlabelled one (or its error), plus the
    cuspidal bound of every rho at the root."""
    import hashlib
    digest = hashlib.sha256()
    for psi, eps in _fingerprint_pairs():
        rows = [_psi_row(psi),
                tuple(rho_cuspidal_bound(psi, eps, rho)
                      for rho in psi.rho_labels())]
        for branch in (PLUS, MINUS, None):
            try:
                rows.append(_node_row(construction_trace(psi, eps, branch)))
            except AmbiguousChoice as e:
                rows.append((type(e).__name__, str(e)))
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the quadratic per-candidate scan of rho_cuspidal_bound
TRACE_FINGERPRINT = \
    "09b06cadbd54d6e745d2f34cd70239805fed3ffd7ef4253e239b680465b0fb44"


def test_trace_fingerprint():
    assert _trace_fingerprint() == TRACE_FINGERPRINT


def test_trace_children_keep_the_invariants_checked_at_the_root():
    """construction_trace checks elementarity and the character only at
    its root; every child the recursion builds is again elementary, has
    a character that passes the one check, and is no larger."""
    nodes = 0

    def walk(node):
        nonlocal nodes
        nodes += 1
        total = sum(elementary_alpha(b) for b in node.psi.blocks)
        for child in node.children:
            assert is_elementary(child.psi)
            check_character(child.psi, child.eps)
            assert sum(elementary_alpha(b) for b in child.psi.blocks) <= total
            walk(child)

    for psi, eps in _fingerprint_pairs():
        for branch in (PLUS, MINUS):
            walk(construction_trace(psi, eps, branch))
    assert nodes > 1000


def test_trace_checks_its_pair_once(monkeypatch):
    import arthurcalc.elementary as elementary
    import arthurcalc.segments as segments
    calls = []
    for module, name in ((elementary, "is_elementary"),
                         (elementary, "check_character"),
                         (segments, "check_character")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    node = construction_trace(psi, _eps({1: 1, 3: -1, 5: -1}))
    assert tree_size(node) > 3
    assert sorted(calls) == ["check_character", "is_elementary"]


def test_equal_traces_compare_equal():
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    first = construction_trace(psi, _eps({1: -1, 3: 1, 5: -1}))
    second = construction_trace(psi, _eps({1: -1, 3: 1, 5: -1}))
    assert first == second and hash(first) == hash(second)
    with pytest.raises(TypeError):
        first.eps.values[("rho", 1)] = 1
    assert first.eps[("rho", 1)] == -1


def _chain24():
    """One rho with the 24 sizes 1, 3, ..., 47 and a character whose trace
    reaches many pairs again."""
    sizes = range(1, 48, 2)
    psi = _elem([(a, PLUS) for a in sizes])
    return psi, _eps({a: 1 if c == "+" else -1
                      for a, c in zip(sizes, "-+-+-++-----+---++----+-")})


def _distinct_nodes(root):
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


def test_trace_builds_each_distinct_pair_once():
    """On one rho with the 24 sizes 1, 3, ..., 47 the tree has 109 296
    nodes but only 520 distinct pairs (psi, eps); each pair gets one node
    object, which every parent that reaches the pair shares."""
    import tracemalloc
    psi, eps = _chain24()
    tracemalloc.start()
    try:
        root = construction_trace(psi, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    below, pairs = {}, set()

    def walk(node):
        # the size of the tree under node, each node object walked once
        if id(node) not in below:
            pairs.add((node.psi, node.eps))
            below[id(node)] = 1 + sum(walk(c) for c in node.children)
        return below[id(node)]

    assert walk(root) == 109_296
    assert len(below) == len(pairs) == 520
    assert peak < 4 * 2 ** 20


def test_trace_equality_and_hash_read_each_node_once(monkeypatch):
    # the 24-size chain prints 109 296 nodes from 520 distinct ones; ==
    # against a rebuilt trace compares the parameters of each pair of
    # distinct nodes once, and a node's hash reads its own pair alone
    root, rebuilt = (construction_trace(*_chain24()) for _ in range(2))
    nodes = _distinct_nodes(root)
    assert len(nodes) == len(_distinct_nodes(rebuilt)) == 520
    calls = {"eq": 0, "hash": 0}
    eq, hash_of = ArthurParameter.__eq__, ArthurParameter.__hash__

    def counting_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    def counting_hash(self):
        calls["hash"] += 1
        return hash_of(self)

    monkeypatch.setattr(ArthurParameter, "__eq__", counting_eq)
    monkeypatch.setattr(ArthurParameter, "__hash__", counting_hash)
    assert root == rebuilt
    assert calls["eq"] <= len(nodes)
    assert hash(root) == hash(rebuilt)
    assert calls["hash"] == 2
    for node in nodes:
        hash(node)
    assert calls["hash"] == 2 + len(nodes)


# each function that takes a character refuses a map that is not one
TAKES_A_CHARACTER = {
    "cuspidal_support": cuspidal_support,
    "supercuspidal_test": supercuspidal_test,
    "parabolic_reduce_step": parabolic_reduce_step,
    "construction_trace": construction_trace,
}
WRONG_MAPS = {"missing": {1: -1, 3: -1}, "extra": {1: -1, 3: 1, 5: -1, 7: 1},
              "product": {1: -1, 3: 1, 5: 1}}


@pytest.mark.parametrize("wrong", sorted(WRONG_MAPS))
@pytest.mark.parametrize("name", sorted(TAKES_A_CHARACTER))
def test_every_character_is_checked_against_its_parameter(name, wrong):
    # Sp(8) = (rho,1,1,+) + (rho,3,1,+) + (rho,5,1,+): discrete and
    # elementary, so alpha = a on every block
    psi = _elem([(1, PLUS), (3, PLUS), (5, PLUS)])
    call = TAKES_A_CHARACTER[name]
    call(psi, _eps({1: -1, 3: 1, 5: -1}))
    with pytest.raises(NotACharacter):
        call(psi, _eps(WRONG_MAPS[wrong]))


@pytest.mark.parametrize("support,signs", [(CLASS, (1, 1, 1, 1)),
                                           (MULT, (1, 1, 1))],
                         ids=["four-signs", "mult-support"])
def test_trace_refuses_what_cuspidal_support_refuses(support, signs):
    # Sp(8) = (rho,1,1,+) + (rho,1,5,-) + (rho,3,1,+): three block classes;
    # both commands turn their signs into a character by the one
    # conversion, which refuses a vector off the block classes
    psi = make_parameter([JordanBlock(RHO, 1, 1, 1, PLUS),
                          JordanBlock(RHO, 1, 5), JordanBlock(RHO, 3, 1)])
    with pytest.raises(NotACharacter):
        EpsMap.from_vector(psi, SignVector(support, signs))
