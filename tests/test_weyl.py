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
    assert len(W._d_m_theta(res, W.LeviG(()))) == len(res.weyl)


def test_levi_counts_divide():
    datum = W.RootDatum(W.TYPE_B, 3)
    res = W.restricted_roots(datum)
    for levi in W.levi_g_all(res):
        wm = W._w_m_theta(res, levi)
        dm = W._d_m_theta(res, levi)
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
    for data in W.catalog_split_data(datum, res):
        g = data.galois_h()
        fixed = [w for w in res.weyl
                 if g is None or g * w == w * g]
        mh_pos = [b for b in W._root_span(res, data.mh_simples)
                  if b in set(res.positives)]
        for levi in W.levi_g_all(res):
            tilde = W._d_m_tilde(res, levi, data)
            levi_pos = [b for b in W._levi_g_roots(res, levi)
                        if b in set(res.positives)]
            for w in fixed:
                in_tilde = w in tilde
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
        assert len(d_m) * len(W._w_m_theta(res, levi)) == len(res.weyl)
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
            for levi in W.levi_g_all(res):
                reps = W._d_h_m(res, levi, data, tilde=True)
                for m_prime in W.levi_h_all(data, galois_stable=False):
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
        for data in W.catalog_split_data(datum, res):
            assert W.verify_coset_representatives(data)
            d_h = data.d_h
            dropped = replace(data, d_h=d_h - {_sorted_elements(d_h)[-1]})
            assert not W.verify_coset_representatives(dropped)
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
            assert W._unique_factorization(swapped.w_h, swapped.d_h,
                                           len(res.weyl))
            assert not W.verify_coset_representatives(swapped)


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
        elts, _ = W._elements(res)
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
        bases = [levi.simples for levi in W.levi_g_all(res)] + \
            [data.h_simples for data in W.catalog_split_data(datum, res)]
        for simples in bases:
            direct = frozenset(
                w for w in res.weyl
                if all(W._positive_in(res, w.inv().apply(b))
                       for b in simples))
            assert W._min_reps(res, simples) == direct


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
        inv = W._inverses(res)
        assert set(inv) == set(res.weyl)
        for w in res.weyl:
            assert (w * inv[w]).is_identity()
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
