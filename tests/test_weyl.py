import hashlib
import itertools
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

import arthurcalc.weyl as W
from arthurcalc.errors import DomainError


def test_restricted_roots_b2_identity_theta():
    datum = W.RootDatum(W.TYPE_B, 2)
    res = W.restricted_roots(datum)
    assert len(res.roots) == 8  # full system survives
    assert len(res.simples) == 2
    assert len(res.weyl) == 8


def test_restricted_roots_a3_folding():
    datum = W.RootDatum(W.TYPE_A, 3, twisted=True)
    res = W.restricted_roots(datum)
    # folding of the rank-three simply laced system is of type C2
    assert sorted(res.positives) == sorted(
        [(1, -1), (1, 1), (2, 0), (0, 2)])
    assert len(res.weyl) == 8


def test_restricted_roots_a2_folding():
    datum = W.RootDatum(W.TYPE_A, 2, twisted=True)
    res = W.restricted_roots(datum)
    # rank-two odd case folds to the non-reduced rank-one system
    assert sorted(res.positives) == [(1,), (2,)]
    assert len(res.weyl) == 2


def test_restricted_roots_d3_folding():
    datum = W.RootDatum(W.TYPE_D, 3, twisted=True)
    res = W.restricted_roots(datum)
    assert sorted(res.positives) == sorted(
        [(1, -1), (1, 1), (1, 0), (0, 1)])
    assert len(res.weyl) == 8  # hyperoctahedral of rank two


def test_gl_flip_is_pinned():
    # the flip with trivial torus part fixes every simple root vector
    for rank in (2, 3):
        datum = W.RootDatum(W.TYPE_A, rank, twisted=True)
        n = datum.matrix_size
        gamma = W._gamma_matrices(datum, (1,) * n)
        for i in range(n - 1):
            e = W._basis_matrix(n, {(i, i + 1): 1})
            img = gamma(e)
            tgt = W._basis_matrix(n, {(n - 2 - i, n - 1 - i): 1})
            assert img == tgt


def test_so_flip_is_pinned():
    datum = W.RootDatum(W.TYPE_D, 3, twisted=True)
    gamma = W._gamma_matrices(datum, (1, 1, 1))
    basis = W._algebra_basis(datum)
    images = set()
    for weight, mat in basis:
        img = gamma(mat)
        neg = tuple(tuple(-c for c in r) for r in img)
        assert img in {m for _, m in basis} or neg in {m for _, m in basis}


def test_coset_counts_b2():
    datum = W.RootDatum(W.TYPE_B, 2)
    res = W.restricted_roots(datum)
    full = W.build_split_data(datum, res, W.EndoscopicSplit((1, 1)))
    assert len(full.d_h) == 1
    so4 = W.build_split_data(datum, res, W.EndoscopicSplit((-1, -1)))
    assert len(so4.w_h) == 4 and len(so4.d_h) == 2
    # the trivial Levi has the whole group as representatives
    assert len(W._min_reps(res, ())) == len(res.weyl)


def test_levi_counts_divide():
    datum = W.RootDatum(W.TYPE_B, 3)
    res = W.restricted_roots(datum)
    for levi in W.levi_g_all(res):
        wm = W._reflection_group(res, levi.simples)
        dm = W._min_reps(res, levi.simples)
        assert len(wm) * len(dm) == len(res.weyl)


def test_a_count_identity_cases():
    datum = W.RootDatum(W.TYPE_B, 2)
    res = W.restricted_roots(datum)
    data = W.build_split_data(datum, res, W.EndoscopicSplit((1, 1)))
    # H = G and M' = M: exactly the identity double coset
    for levi in W.levi_g_all(res):
        assert W.a_count(data, levi, levi.simples) == 1
    # a Levi that never arises
    assert W.a_count(data, W.LeviG((res.simples[0],)),
                     (res.simples[1],)) == 0


def test_identities_on_catalog_subset():
    for datum in [W.RootDatum(W.TYPE_B, 2), W.RootDatum(W.TYPE_C, 2),
                  W.RootDatum(W.TYPE_A, 3, twisted=True),
                  W.RootDatum(W.TYPE_D, 3, twisted=True)]:
        res = W.restricted_roots(datum)
        for data in W.catalog_split_data(datum, res):
            assert W.verify_identity_A(data)
            assert W.verify_identity_B(data)
            assert W.verify_alternating_sum(data).all_pass()
            assert W.verify_coset_representatives(data)


def test_intersection_and_algebraic_props_small_catalog():
    for datum in [W.RootDatum(W.TYPE_B, 2), W.RootDatum(W.TYPE_C, 2),
                  W.RootDatum(W.TYPE_A, 3, twisted=True),
                  W.RootDatum(W.TYPE_D, 3, twisted=True)]:
        res = W.restricted_roots(datum)
        for data in W.catalog_split_data(datum, res):
            for levi in W.levi_g_all(res):
                assert W.verify_intersection_prop(data, levi)
                assert W.verify_algebraic_identity(data, levi)


def test_tilde_characterization_via_levi_of_invariants():
    # on Galois-fixed elements the tilde condition matches the sandwich
    # of positive systems through the invariant Levi
    datum = W.RootDatum(W.TYPE_B, 2)
    res = W.restricted_roots(datum)
    index = W._group(res).index
    for data in W.catalog_split_data(datum, res):
        g = data.split.galois
        fixed = [w for w in res.weyl
                 if g is None or g * w == w * g]
        mh_pos = [b for b in W._root_span(res, data.mh_simples)
                  if b in set(res.positives)]
        for levi in W.levi_g_all(res):
            tilde = W._d_m_tilde(res, levi, data)
            levi_pos = [b for b in W._root_span(res, levi.simples)
                        if b in set(res.positives)]
            for w in fixed:
                in_tilde = index[w] in tilde
                sandwich = all(
                    tuple(w.apply(b)) in set(levi_pos) for b in mh_pos) and \
                    all(W._positive_in(res, w.inv().apply(b))
                        for b in levi_pos)
                assert in_tilde == sandwich


def test_signed_perm_algebra():
    a = W.SignedPerm((1, 0), (1, -1))
    b = W.SignedPerm((0, 1), (-1, 1))
    assert (a * b).apply((1, 0)) == tuple(a.apply(b.apply((1, 0))))
    assert (a * a.inv()).is_identity()
    refl = W._reflection((1, -1))
    assert refl.apply((1, 0)) == (0, 1)
    assert refl.apply((1, 1)) == (1, 1)


def test_subspace_exact():
    s = W.Subspace.of([(1, 0, 1), (0, 1, 0)], 3)
    assert s.contains((1, 1, 1))
    assert not s.contains((1, 0, 0))
    t = W.Subspace.of([(2, 0, 2), (0, 3, 0)], 3)
    assert s == t  # canonical reduced form
    # equal subspaces hash alike; different ambient spaces are not equal
    assert W.Subspace.of([], 2) != W.Subspace.of([], 3)
    assert len({W.Subspace.of([], 2), W.Subspace.of([], 3), s, t}) == 3


def test_catalog_shapes():
    catalog = W.datum_catalog()
    assert len(catalog) == 8
    counts = {}
    for datum in catalog:
        tag = f"{datum.gtype}{datum.rank}"
        counts[tag] = len(W.catalog_split_data(datum))
    assert counts["B2"] == 5 and counts["C2"] == 3
    assert counts["B3"] == 7 and counts["C3"] == 4
    assert counts["D3"] == 6 and counts["D4"] == 8


def test_coset_reps_tuple():
    datum = W.RootDatum(W.TYPE_B, 2)
    res = W.restricted_roots(datum)
    data = W.build_split_data(datum, res, W.EndoscopicSplit((-1, -1)))
    for levi in W.levi_g_all(res):
        d_h, d_m, d_m_t, d_hm, d_hm_t = W.coset_reps(data, levi)
        assert len(d_h) * len(data.w_h) == len(res.weyl)
        assert len(d_m) * len(W._reflection_group(res, levi.simples)) == \
            len(res.weyl)
        assert d_m_t <= d_m
        assert d_hm_t <= d_hm
        assert d_hm <= d_h


def _rank_q(rows):
    """Rank over the rationals, by Fraction elimination."""
    work = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_subspace_canonical_and_contains_exact():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        s = W.Subspace.of(rows, n)
        variants = [
            [tuple(k * c for c in r)
             for r, k in zip(rows, rng.choices((-3, -2, -1, 1, 2, 5),
                                               k=len(rows)))],
            [tuple(-c for c in r) for r in rows],
            rng.sample(rows, len(rows)),
            rows + [tuple(a + b for a, b in zip(rows[0], rows[-1]))]
            if rows else rows,
        ]
        for other in variants:
            t = W.Subspace.of(other, n)
            assert t == s and hash(t) == hash(s)
            assert t.basis == s.basis
        assert len(s.basis) == _rank_q(rows)
        leads = [next(i for i, c in enumerate(row) if c) for row in s.basis]
        assert leads == sorted(set(leads))
        for row in s.basis:
            # reduced: zero in the pivot column of every other row
            assert [row[i] != 0 for i in leads].count(True) == 1
            assert next(c for c in row if c) > 0
            assert math.gcd(*row) == 1
        for _ in range(10):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            expect = _rank_q(list(rows) + [v]) == _rank_q(rows)
            assert s.contains(v) == expect
        if rows:
            coeffs = [rng.randint(-2, 2) for _ in rows]
            combo = tuple(sum(k * r[j] for k, r in zip(coeffs, rows))
                          for j in range(n))
            assert s.contains(combo)


def test_rank_below_minimum_raises():
    from arthurcalc.errors import RankTooSmall
    for gtype, rank, twisted in [(W.TYPE_B, 0, False), (W.TYPE_C, -1, False),
                                 (W.TYPE_A, 0, True), (W.TYPE_D, 1, True)]:
        with pytest.raises(RankTooSmall):
            W.RootDatum(gtype, rank, twisted=twisted)
    assert W.RootDatum(W.TYPE_D, 2, twisted=True).restricted_dim() == 1


def _verify_all(data, order):
    out = {}
    for name in order:
        result = getattr(W, name)(data)
        if isinstance(result, W.AlternatingReport):
            result = result.entries
        out[name] = result
    return out


def test_memo_does_not_leak_between_calls():
    names = ["verify_identity_A", "verify_identity_B",
             "verify_alternating_sum", "verify_coset_representatives"]
    for datum in W.datum_catalog():
        first = [_verify_all(data, names)
                 for data in W.catalog_split_data(datum)]
        second = [_verify_all(data, names[::-1])
                  for data in reversed(W.catalog_split_data(datum))]
        assert first == second[::-1]
        assert all(r["verify_identity_A"] and r["verify_identity_B"]
                   and r["verify_coset_representatives"] for r in first)


def test_a_count_matches_direct_count():
    for datum in [W.RootDatum(W.TYPE_B, 3),
                  W.RootDatum(W.TYPE_D, 4, twisted=True)]:
        res = W.restricted_roots(datum)
        for data in W.catalog_split_data(datum, res):
            subsets = [tuple(sorted(c))
                       for r in range(len(data.h_simples) + 1)
                       for c in itertools.combinations(data.h_simples, r)]
            for levi in W.levi_g_all(res):
                reps = W._d_h_m(res, levi, data, tilde=True)
                for m_prime in subsets:
                    direct = sum(1 for w in reps
                                 if W._m_prime_of(data, levi, w) == m_prime)
                    assert W.a_count(data, levi, m_prime) == direct


def test_shared_splits_across_threads():
    datum = W.RootDatum(W.TYPE_B, 3)
    names = ["verify_alternating_sum", "verify_identity_A",
             "verify_identity_B", "verify_coset_representatives"]
    expect = [_verify_all(data, names)
              for data in W.catalog_split_data(datum)]
    shared = W.catalog_split_data(datum)
    results = {}

    def work(k):
        order = names[k % 4:] + names[:k % 4]
        results[k] = [_verify_all(data, order) for data in shared]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert [results[k] for k in range(4)] == [expect] * 4


def _sorted_elements(group):
    return sorted(group, key=lambda w: (w.perm, w.signs))


def test_coset_representatives_reject_tampered_d_h():
    for datum in [W.RootDatum(W.TYPE_B, 3),
                  W.RootDatum(W.TYPE_A, 3, twisted=True)]:
        res = W.restricted_roots(datum)
        caught = 0
        for data in W.catalog_split_data(datum, res):
            assert W.verify_coset_representatives(data)
            d_h = data.d_h
            dropped = replace(data, d_h=d_h - {_sorted_elements(d_h)[-1]})
            assert not W.verify_coset_representatives(dropped)
            # the algebraic identity is truncated to the stabilizer of A_H,
            # so only some splits see the dropped element
            caught += sum(not W.verify_algebraic_identity(dropped, levi)
                          for levi in W.levi_g_all(res))
            if not data.h_simples:
                continue  # D_H is the whole group
            extra = _sorted_elements(res.weyl - d_h)[0]
            added = replace(data, d_h=d_h | {extra})
            assert not W.verify_coset_representatives(added)
            # the same coset, so W = W_H * D_H still factors uniquely, but
            # the whole group is no longer met by the full Levi's D_{H,M}
            s = W._reflection(data.h_simples[0])
            one = W.SignedPerm.identity(datum.restricted_dim())
            swapped = replace(data, d_h=(d_h - {one}) | {s})
            assert W._one_per_double_coset(
                res, {W._group(res).index[w] for w in swapped.d_h},
                swapped.h_simples, ())
            assert not W.verify_coset_representatives(swapped)
        assert caught


def _double_cosets_by_products(group, left, right):
    """The (W_left, W_right) double cosets by a SignedPerm-product search."""
    lgens = [W._reflection(b) for b in left]
    rgens = [W._reflection(b) for b in right]
    unvisited = set(group)
    out = set()
    while unvisited:
        orbit = {unvisited.pop()}
        frontier = list(orbit)
        while frontier:
            x = frontier.pop()
            for y in [g * x for g in lgens] + [x * g for g in rgens]:
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        unvisited -= orbit
        out.add(frozenset(orbit))
    return out


def test_double_cosets_match_product_search():
    for datum in W.datum_catalog():
        res = W.restricted_roots(datum)
        elts = W._group(res).elements
        for data in W.catalog_split_data(datum, res):
            for levi in W.levi_g_all(res):
                label = W._double_cosets(res, data.h_simples, levi.simples)
                parts = {}
                for w, k in zip(elts, label):
                    parts.setdefault(k, set()).add(w)
                assert sorted(parts) == list(range(len(parts)))
                assert {frozenset(p) for p in parts.values()} == \
                    _double_cosets_by_products(res.weyl, data.h_simples,
                                               levi.simples)


def _frontier_data():
    """The catalog plus the rank-four frontier."""
    return W.datum_catalog() + [W.RootDatum(W.TYPE_B, 4),
                                W.RootDatum(W.TYPE_C, 4),
                                W.RootDatum(W.TYPE_D, 5, twisted=True)]


def test_min_reps_from_inversion_sets_match_positivity_filter():
    for datum in _frontier_data():
        res = W.restricted_roots(datum)
        elts = W._group(res).elements
        bases = [levi.simples for levi in W.levi_g_all(res)] + \
            [data.h_simples for data in W.catalog_split_data(datum, res)]
        for simples in bases:
            direct = frozenset(
                w for w in res.weyl
                if all(W._positive_in(res, w.inv().apply(b))
                       for b in simples))
            assert frozenset(elts[x] for x in W._min_reps(res, simples)) \
                == direct


def test_min_reps_need_positive_roots():
    datum = W.RootDatum(W.TYPE_B, 3)
    res = W.restricted_roots(datum)
    a, b = res.simples[:2]
    for bad in [(W._neg(a),), (a, W._neg(b)), (W._add(a, a),)]:
        with pytest.raises(DomainError):
            W._min_reps(res, bad)


def test_memoized_reflections_and_inverses():
    for datum in W.datum_catalog():
        res = W.restricted_roots(datum)
        elts = W._group(res).elements
        inv = W._inverses(res)
        assert len(inv) == len(elts) and set(elts) == set(res.weyl)
        for x, w in enumerate(elts):
            assert (w * elts[inv[x]]).is_identity()
        for b in res.roots:
            assert W._reflection_in(res, b) == W._reflection(b)


def _dense_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _dense_gamma(datum, t, x):
    """g x g^-1 by dense products, g the signed permutation matrix of
    the flip twisted by t (x replaced by -x^T in type A)."""
    n = datum.matrix_size
    g = [[0] * n for _ in range(n)]
    if datum.gtype == W.TYPE_A:
        for i in range(n):
            g[i][n - 1 - i] = t[i] * (1 if (n - i) % 2 else -1)
        x = tuple(tuple(-x[j][i] for j in range(n)) for i in range(n))
    else:
        half = n // 2
        swap = {half - 1: half, half: half - 1}
        for i in range(n):
            g[swap.get(i, i)][i] = t[i] if i < half else t[n - 1 - i]
    g = tuple(tuple(r) for r in g)
    g_inv = tuple(tuple(g[j][i] for j in range(n)) for i in range(n))
    assert _dense_mul(g, g_inv) == W._basis_matrix(
        n, {(i, i): 1 for i in range(n)})
    return _dense_mul(_dense_mul(g, x), g_inv)


def test_monomial_conjugation_matches_dense_product():
    data = [W.RootDatum(W.TYPE_A, r, twisted=True) for r in (2, 3, 4, 5)] + \
        [W.RootDatum(W.TYPE_D, r, twisted=True) for r in (3, 4, 5)]
    for datum in data:
        basis = W._algebra_basis(datum)
        for t in itertools.product((1, -1), repeat=datum.ambient_dim):
            gamma = W._gamma_matrices(datum, t)
            for _, mat in basis:
                assert gamma(mat) == _dense_gamma(datum, t, mat)


def test_intersection_prop_rejects_added_d_h_element():
    for datum in [W.RootDatum(W.TYPE_B, 3),
                  W.RootDatum(W.TYPE_A, 3, twisted=True)]:
        res = W.restricted_roots(datum)
        for data in W.catalog_split_data(datum, res):
            if not data.h_simples:
                continue  # D_H is the whole group
            extra = _sorted_elements(res.weyl - data.d_h)[0]
            added = replace(data, d_h=data.d_h | {extra})
            assert not all(W.verify_intersection_prop(added, levi)
                           for levi in W.levi_g_all(res))


def test_one_per_double_coset_rejects_a_coset_met_twice():
    datum = W.RootDatum(W.TYPE_B, 3)
    res = W.restricted_roots(datum)
    one = W.SignedPerm.identity(datum.restricted_dim())
    checked = 0
    for data in W.catalog_split_data(datum, res):
        if not data.h_simples or len(data.d_h) < 2:
            continue
        s = W._reflection(data.h_simples[0])
        other = _sorted_elements(data.d_h - {one})[0]
        # as many elements as cosets, but W_H * other is met twice and
        # W_H itself not at all
        moved = (data.d_h - {one}) | {s * other}
        assert len(moved) == len(data.d_h)
        index = W._group(res).index
        assert not W._one_per_double_coset(res, {index[w] for w in moved},
                                           data.h_simples, ())
        checked += 1
    assert checked

def _longest_in(group, positives):
    """The element sending every given positive root to a negative one."""
    pos = set(positives)
    return next(w for w in group
                if all(W._neg(w.apply(a)) in pos for a in positives))


def _theta_fixed_reference(datum):
    """W^theta on the fixed space by the ambient scan: every signed
    permutation of the ambient Weyl group that commutes with theta,
    restricted to the fixed space, and the restriction of the ambient
    longest element."""
    n, m = datum.ambient_dim, datum.restricted_dim()
    if datum.gtype == W.TYPE_A:
        ambient = [W.SignedPerm(p, (1,) * n)
                   for p in itertools.permutations(range(n))]
    else:
        ambient = [W.SignedPerm(p, s)
                   for p in itertools.permutations(range(n))
                   for s in itertools.product((1, -1), repeat=n)
                   if datum.gtype != W.TYPE_D or s.count(-1) % 2 == 0]
    if not datum.twisted:
        theta = W.SignedPerm.identity(n)
    elif datum.gtype == W.TYPE_A:
        theta = W.SignedPerm(tuple(range(n))[::-1], (-1,) * n)  # -e_{n-1-i}
    else:
        theta = W.SignedPerm(tuple(range(n)), (1,) * (n - 1) + (-1,))

    def lift(i):
        v = [0] * n
        v[i] = 1
        if datum.twisted and datum.gtype == W.TYPE_A:
            v[n - 1 - i] = -1
        return tuple(v)

    def restrict(w):
        images = []
        for i in range(m):
            img = datum.restrict(w.apply(lift(i)))
            if datum.twisted and datum.gtype == W.TYPE_A and \
                    all(c % 2 == 0 for c in img):
                img = tuple(c // 2 for c in img)
            images.append(img)
        return W._from_images(images)

    fixed = [w for w in ambient if w * theta == theta * w]
    pos, _ = W._ambient_roots(datum.gtype, datum.rank)
    return fixed, [restrict(w) for w in fixed], \
        restrict(_longest_in(ambient, pos))


def test_weyl_group_matches_theta_fixed_ambient_scan():
    extra = [W.RootDatum(W.TYPE_B, 4), W.RootDatum(W.TYPE_C, 4),
             W.RootDatum(W.TYPE_A, 4, twisted=True),
             W.RootDatum(W.TYPE_A, 5, twisted=True),
             W.RootDatum(W.TYPE_D, 5, twisted=True)]
    for datum in W.datum_catalog() + extra:
        res = W.restricted_roots(datum)
        fixed, weyl, w_long = _theta_fixed_reference(datum)
        assert len(set(weyl)) == len(weyl)  # restriction is injective
        assert res.weyl == frozenset(weyl)
        assert res.w_long_g == w_long
        if datum.twisted and datum.gtype == W.TYPE_D:
            n = datum.ambient_dim
            reps = set()
            for t in itertools.product((1, -1), repeat=n):
                reps.add(min(tuple(t[w.perm.index(i)] for i in range(n))
                             for w in fixed))
            assert W._dedup_twisted_t(datum) == sorted(reps)


def _weyl_fingerprint(data):
    """SHA-256 over each datum's group and longest element and, for every
    catalogued split, D_H, the four identity flags, the alternating-sum
    rows and the five coset sets of each Levi; elements are sorted by
    (perm, signs)."""
    def elts(group):
        return tuple((w.perm, w.signs) for w in _sorted_elements(group))

    digest = hashlib.sha256()
    for datum in data:
        res = W.restricted_roots(datum)
        rows = [(datum.gtype, datum.rank, datum.twisted), elts(res.weyl),
                elts([res.w_long_g])]
        for split in W.catalog_split_data(datum, res):
            report = W.verify_alternating_sum(split)
            rows.append((split.split.name, elts(split.d_h),
                         W.verify_identity_A(split),
                         W.verify_identity_B(split),
                         W.verify_coset_representatives(split),
                         report.all_pass(), report.entries))
            rows.extend(tuple(elts(s) for s in W.coset_reps(split, levi))
                        for levi in W.levi_g_all(res))
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# computed from the ambient-scan construction of the twisted Weyl group
CATALOG_FINGERPRINT = \
    "63562b6d27ccdf1ccf69c4ece508be0a9c293baadb3a09a13e39fa2879a024b0"


def test_exactness_fingerprint_over_catalog():
    assert _weyl_fingerprint(W.datum_catalog()) == CATALOG_FINGERPRINT


# the same digest over the catalog plus B4, C4 and twisted D5
FRONTIER_FINGERPRINT = \
    "1e042386a9d6e510423c2002e71385698dfd1a702f8db2eb4e47a332a31e5c8f"


def test_exactness_fingerprint_over_rank_four_frontier():
    assert _weyl_fingerprint(_frontier_data()) == FRONTIER_FINGERPRINT


def test_signed_perm_products_only_build_tables(monkeypatch):
    # every verification works on element indices: SignedPerm products
    # may only build the group and its tables, |W| per generator or twist
    count = 0
    mul = W.SignedPerm.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    monkeypatch.setattr(W.SignedPerm, "__mul__", counted)
    names = ["verify_identity_A", "verify_identity_B",
             "verify_coset_representatives"]
    bound = 0
    for datum in [W.RootDatum(W.TYPE_B, 3),
                  W.RootDatum(W.TYPE_D, 4, twisted=True)]:
        res = W.restricted_roots(datum)
        gens, twists = set(res.simples), set()
        for data in W.catalog_split_data(datum, res):
            assert all(getattr(W, name)(data) for name in names)
            assert W.verify_alternating_sum(data).all_pass()
            for levi in W.levi_g_all(res):
                assert W.verify_intersection_prop(data, levi)
                assert W.verify_algebraic_identity(data, levi)
                gens.update(levi.simples)
            gens.update(data.h_simples)
            twists.add(data.split.galois)
        twists.discard(None)
        bound += len(res.weyl) * (len(gens) + len(twists))
    assert 0 < count <= bound


def _kernel_q(rows, n):
    """A basis of the vectors orthogonal to every row, by Fraction
    elimination to reduced row echelon form."""
    work, pivots = [[Fraction(c) for c in r] for r in rows], []
    for col in range(n):
        pivot = next((i for i in range(len(pivots), len(work))
                      if work[i][col]), None)
        if pivot is None:
            continue
        k = len(pivots)
        work[k], work[pivot] = work[pivot], work[k]
        work[k] = [c / work[k][col] for c in work[k]]
        for i in range(len(work)):
            if i != k and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -work[k][free]
        basis.append(v)
    assert len(basis) == n - _rank_q(rows)
    return basis


def _apply_q(w, v):
    out = [Fraction(0)] * len(v)
    for i, c in enumerate(v):
        out[w.perm[i]] += c * w.signs[i]
    return out


def test_invariant_torus_matches_fixed_subspace_reference():
    # a_H = Fix(g) and S_M as Fraction nullspaces, compared by rank
    extra = [W.RootDatum(W.TYPE_B, 4), W.RootDatum(W.TYPE_C, 4),
             W.RootDatum(W.TYPE_A, 4, twisted=True),
             W.RootDatum(W.TYPE_A, 5, twisted=True),
             W.RootDatum(W.TYPE_D, 5, twisted=True)]
    checked = 0
    for datum in W.datum_catalog() + extra:
        res = W.restricted_roots(datum)
        m = datum.restricted_dim()
        for data in W.catalog_split_data(datum, res):
            g = data.split.galois
            if g is None:
                continue
            minus_one = [[(g.signs[j] if g.perm[j] == i else 0)
                          - (i == j) for j in range(m)] for i in range(m)]
            a_h = _kernel_q(minus_one, m)
            dim = _rank_q(a_h)

            def inside(vecs):
                return _rank_q(a_h + vecs) == dim

            assert dim == len(a_h) and all(_apply_q(g, v) == v for v in a_h)
            elts = W._group(res).elements
            assert data._a_h_stabilizer == frozenset(
                x for x, w in enumerate(elts)
                if inside([_apply_q(w, v) for v in a_h]))
            orthogonal = {b for b in res.roots
                          if all(sum(x * y for x, y in zip(b, v)) == 0
                                 for v in a_h)}
            assert data.mh_simples == tuple(sorted(
                orthogonal.intersection(res.simples)))
            assert orthogonal == set(W._root_span(res, data.mh_simples))
            inv = W._inverses(res)
            for levi in W.levi_g_all(res):
                s_m = _kernel_q(levi.simples, m)
                assert W._d_m_tilde(res, levi, data) == frozenset(
                    w for w in W._min_reps(res, levi.simples)
                    if inside([_apply_q(elts[inv[w]], v) for v in s_m]))
            checked += 1
    assert checked
