"""Twisted Weyl-group combinatorics for the coset-sum identities.

Everything is exact and finite: classical root systems realized in
integer coordinates, a pinned diagram involution, restricted roots on
the fixed subspace, centralizer subgroups computed from monomial
fixed-point algebra in the ambient Lie algebra, and exhaustive
verification of the coset-representative statements, the two group-ring
identities and the alternating double-coset sum.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Optional, Sequence, Tuple, TypeVar)

from .errors import DomainError, RankTooSmall

Vec = Tuple[int, ...]


def _dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


T = TypeVar("T")


def _memo(cache: Dict[Hashable, T], key: Hashable,
          build: Callable[[], T]) -> T:
    """The value stored under key, built on first use.

    Each cache belongs to one value, and each entry is a pure function of
    that value and an immutable key, so a race between threads only
    stores an equal value twice.
    """
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation of coordinates: z_i -> sign_i * z_{perm_i}."""

    perm: Tuple[int, ...]
    signs: Tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        # (self * other)(x) = self(other(x))
        n = len(self.perm)
        perm = tuple(self.perm[other.perm[i]] for i in range(n))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]]
                      for i in range(n))
        return SignedPerm(perm, signs)

    def inv(self) -> "SignedPerm":
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))

    def apply(self, v: Vec) -> Vec:
        out = [0] * len(v)
        for i, c in enumerate(v):
            out[self.perm[i]] += c * self.signs[i]
        return tuple(out)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm))) and \
            all(s == 1 for s in self.signs)


def _from_images(images: Sequence[Vec]) -> SignedPerm:
    """Build a signed permutation from basis images (must be monomial)."""
    perm, signs = [], []
    for img in images:
        nz = [(j, c) for j, c in enumerate(img) if c]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise DomainError(f"image {img} is not a signed basis vector")
        perm.append(nz[0][0])
        signs.append(nz[0][1])
    return SignedPerm(tuple(perm), tuple(signs))


def _reflection(beta: Vec) -> SignedPerm:
    n = len(beta)
    bb = _dot(beta, beta)
    images = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        num = 2 * beta[i]
        img = tuple(e[j] * bb - num * beta[j] for j in range(n))
        g = bb
        if any(c % g for c in img):
            raise DomainError("reflection is not integral")  # pragma: no cover
        images.append(tuple(c // g for c in img))
    return _from_images(images)


def _closure(gens: Sequence[SignedPerm], n: int) -> FrozenSet[SignedPerm]:
    seen = {SignedPerm.identity(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return frozenset(seen)


# -- exact subspaces ----------------------------------------------------------

def _lead(row: Vec) -> int:
    return next(i for i, c in enumerate(row) if c)


def _eliminate(r: Vec, o: Vec, p: int) -> Vec:
    """r with column p cleared by o, fraction-free; o[p] > 0 keeps the
    orientation of r."""
    f, g = o[p], r[p]
    return tuple(f * a - g * b for a, b in zip(r, o))


def _primitive(row: Vec) -> Vec:
    """The row divided by the gcd of its entries, with a positive pivot."""
    g = gcd(*row)
    if row[_lead(row)] < 0:
        g = -g
    return tuple(c // g for c in row)


def _echelon(rows: Iterable[Sequence[int]]) -> Tuple[Vec, ...]:
    """Canonical integer basis of the row space.

    Fraction-free Gauss-Jordan elimination.  Row k of the result is the
    primitive integer multiple, with positive pivot, of row k of the
    reduced row echelon form, so equal row spaces give equal tuples.
    """
    out: List[Tuple[int, Vec]] = []  # (pivot column, row)
    for r in rows:
        r = tuple(r)
        for p, o in out:
            if r[p]:
                r = _eliminate(r, o, p)
        if not any(r):
            continue
        r = _primitive(r)
        q = _lead(r)
        out = [(p, _primitive(_eliminate(o, r, q)) if o[q] else o)
               for p, o in out]
        out.append((q, r))
    out.sort()
    return tuple(o for _, o in out)


@dataclass(frozen=True)
class Subspace:
    dim_ambient: int
    basis: Tuple[Vec, ...]  # canonical integer rows, see _echelon

    @staticmethod
    def of(vectors: Iterable[Sequence[int]], n: int) -> "Subspace":
        return Subspace(n, _echelon(vectors))

    def contains(self, v: Sequence[int]) -> bool:
        if len(self.basis) == self.dim_ambient:
            return True
        r = tuple(v)
        for o in self.basis:
            p = _lead(o)
            if r[p]:
                r = _eliminate(r, o, p)
        return not any(r)



# -- ambient root data --------------------------------------------------------

TYPE_A = "A"
TYPE_B = "B"
TYPE_C = "C"
TYPE_D = "D"


def _ambient_roots(gtype: str, rank: int) -> Tuple[List[Vec], List[Vec]]:
    """(positive roots, simple roots) in the standard coordinates."""
    pos, simple = [], []
    if gtype == TYPE_A:
        n = rank + 1
        for i in range(n):
            for j in range(i + 1, n):
                v = [0] * n
                v[i], v[j] = 1, -1
                pos.append(tuple(v))
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simple.append(tuple(v))
        return pos, simple
    n = rank
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                v = [0] * n
                v[i], v[j] = 1, sj
                pos.append(tuple(v))
    if gtype == TYPE_B:
        for i in range(n):
            v = [0] * n
            v[i] = 1
            pos.append(tuple(v))
    if gtype == TYPE_C:
        for i in range(n):
            v = [0] * n
            v[i] = 2
            pos.append(tuple(v))
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simple.append(tuple(v))
    if gtype == TYPE_B:
        v = [0] * n
        v[n - 1] = 1
        simple.append(tuple(v))
    elif gtype == TYPE_C:
        v = [0] * n
        v[n - 1] = 2
        simple.append(tuple(v))
    else:
        v = [0] * n
        v[n - 2], v[n - 1] = 1, 1
        simple.append(tuple(v))
    return pos, simple


def _longest_in(group: Iterable[SignedPerm],
                positives: Sequence[Vec]) -> SignedPerm:
    """The element sending every given positive root to a negative one."""
    pos = set(positives)
    for w in group:
        if all(_neg(w.apply(a)) in pos for a in positives):
            return w
    raise DomainError("no longest element found")  # pragma: no cover


@dataclass(frozen=True)
class RootDatum:
    """Ambient classical root system with a pinned involution."""

    gtype: str
    rank: int
    twisted: bool = False

    def __post_init__(self):
        if self.gtype not in (TYPE_A, TYPE_B, TYPE_C, TYPE_D):
            raise DomainError(f"bad type {self.gtype}")
        least = 2 if self.gtype == TYPE_D else 1
        if self.rank < least:
            raise RankTooSmall(
                f"type {self.gtype} needs rank at least {least}")
        if self.twisted and self.gtype in (TYPE_B, TYPE_C):
            raise DomainError("types B and C have no diagram flip")
        if not self.twisted and self.gtype in (TYPE_A, TYPE_D):
            raise DomainError("catalog uses A and D only with the flip")

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.gtype == TYPE_A else self.rank

    @property
    def matrix_size(self) -> int:
        """Size of the standard matrix realization."""
        if self.gtype == TYPE_A:
            return self.rank + 1
        if self.gtype == TYPE_D:
            return 2 * self.rank
        raise DomainError("matrix realization only needed for A and D")

    def restricted_dim(self) -> int:
        if not self.twisted:
            return self.ambient_dim
        if self.gtype == TYPE_A:
            return (self.rank + 1) // 2
        return self.rank - 1

    def restrict(self, v: Vec) -> Vec:
        """Restriction of an ambient character to the fixed torus."""
        if not self.twisted:
            return v
        m = self.restricted_dim()
        if self.gtype == TYPE_A:
            n = self.rank + 1
            out = [0] * m
            for i, c in enumerate(v):
                if i < m:
                    out[i] += c
                elif i >= n - m:
                    out[n - 1 - i] -= c
            return tuple(out)
        return tuple(v[:m])


@dataclass
class RestrictedData:
    """Restricted roots and the twisted Weyl group on the fixed space."""

    datum: RootDatum
    positives: Tuple[Vec, ...]
    simples: Tuple[Vec, ...]
    # derived sets per Levi, built on first use
    _cache: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def weyl(self) -> FrozenSet[SignedPerm]:
        """W^theta on the fixed space: the Weyl group of the restricted
        roots, generated by the restricted simple reflections
        (Steinberg, Endomorphisms of linear algebraic groups, 1.32)."""
        return _reflection_group(self, self.simples)

    @cached_property
    def w_long_g(self) -> SignedPerm:
        """The longest element, the restriction of the ambient one."""
        return _levi_longest(self, self.simples)

    @cached_property
    def roots(self) -> Tuple[Vec, ...]:
        return self.positives + tuple(_neg(v) for v in self.positives)

    @cached_property
    def _positive_set(self) -> FrozenSet[Vec]:
        return frozenset(self.positives)


def restricted_roots(datum: RootDatum) -> RestrictedData:
    """Restricted root data plus the theta-fixed Weyl group."""
    pos, simple = _ambient_roots(datum.gtype, datum.rank)
    rpos, seen = [], set()
    for a in pos:
        r = datum.restrict(a)
        if any(r) and r not in seen:
            seen.add(r)
            rpos.append(r)
    rsimple, seen_s = [], set()
    for a in simple:
        r = datum.restrict(a)
        if not any(r):
            raise DomainError("flip kills a simple root")  # pragma: no cover
        if r not in seen_s:
            seen_s.add(r)
            rsimple.append(r)
    if set(rpos) & {_neg(v) for v in rpos}:
        raise DomainError("restricted positivity broken")  # pragma: no cover
    return RestrictedData(datum, tuple(rpos), tuple(rsimple))


# -- centralizer root data ----------------------------------------------------

Mat = Tuple[Tuple[int, ...], ...]


def _basis_matrix(n: int, entries: Dict[Tuple[int, int], int]) -> Mat:
    m = [[0] * n for _ in range(n)]
    for (i, j), c in entries.items():
        m[i][j] = c
    return tuple(tuple(r) for r in m)


def _weight_fn(datum: RootDatum):
    """The restricted weight of each coordinate of the matrix realization:
    e_i for the first m coordinates, -e_i for their mirrors n - 1 - i."""
    n = datum.matrix_size
    m = datum.restricted_dim()

    def w(i: int) -> Vec:
        out = [0] * m
        if i < m:
            out[i] = 1
        elif n - 1 - i < m:
            out[n - 1 - i] = -1
        return tuple(out)
    return w


def _algebra_basis(datum: RootDatum) -> List[Tuple[Vec, Mat]]:
    """Weight vectors of the ambient Lie algebra off the Cartan.

    For the twisted general linear case these are the elementary
    matrices; for the twisted even orthogonal case the mirror-antisymmetric
    combinations with respect to the split symmetric form.
    """
    n = datum.matrix_size
    out: List[Tuple[Vec, Mat]] = []
    wfn = _weight_fn(datum)
    if datum.gtype == TYPE_A:
        for i in range(n):
            for j in range(n):
                if i != j:
                    out.append((tuple(a - b for a, b in zip(wfn(i), wfn(j))),
                                _basis_matrix(n, {(i, j): 1})))
        return out
    seen = set()
    for i in range(n):
        for j in range(n):
            if i == j or (i, j) in seen:
                continue
            mi, mj = n - 1 - j, n - 1 - i  # mirror position
            if (mi, mj) == (i, j):
                continue  # antidiagonal entries vanish in the algebra
            seen.add((i, j))
            seen.add((mi, mj))
            weight = tuple(a - b for a, b in zip(wfn(i), wfn(j)))
            out.append((weight, _basis_matrix(n, {(i, j): 1, (mi, mj): -1})))
    return out


def _monomial_conjugation(sigma: Sequence[int], signs: Sequence[int]
                          ) -> Callable[[Mat], Mat]:
    """x -> g x g^-1 for the signed permutation matrix g with
    g[i][sigma(i)] = s_i: entry (i, j) is s_i s_j x[sigma(i)][sigma(j)]."""
    if any(c not in (1, -1) for c in signs):
        raise DomainError("not monomial")  # pragma: no cover
    n = len(sigma)

    def conj(x: Mat) -> Mat:
        return tuple(tuple(signs[i] * signs[j] * x[sigma[i]][sigma[j]]
                           for j in range(n)) for i in range(n))
    return conj


def _gamma_matrices(datum: RootDatum, t: Tuple[int, ...]):
    """The conjugation data for the centralizer of t * theta."""
    n = datum.matrix_size
    if datum.gtype == TYPE_A:
        # g is antidiagonal; its columns carry the alternating pinning
        # signs of the flip
        conj = _monomial_conjugation(
            [n - 1 - i for i in range(n)],
            [t[i] * (1 if (n - i) % 2 else -1) for i in range(n)])

        def gamma(x: Mat) -> Mat:
            return conj(tuple(tuple(-x[j][i] for j in range(n))
                              for i in range(n)))
        return gamma
    # twisted even orthogonal: swap the two middle coordinates
    half = n // 2
    sigma = list(range(n))
    sigma[half - 1], sigma[half] = half, half - 1
    return _monomial_conjugation(
        sigma, [t[k] if k < half else t[n - 1 - k] for k in sigma])


def _centralizer_roots(datum: RootDatum, t: Tuple[int, ...],
                       res: "RestrictedData") -> Tuple[Vec, ...]:
    """Restricted weights of the fixed subalgebra of Ad(t) after theta."""
    basis = _algebra_basis(datum)
    gamma = _gamma_matrices(datum, t)
    index = {b[1]: k for k, b in enumerate(basis)}
    image: List[Tuple[int, int]] = []
    for weight, mat in basis:
        img = gamma(mat)
        flat = [c for row in img for c in row]
        nz = sorted({abs(c) for c in flat if c})
        if nz != [1]:
            raise DomainError("gamma not monomial")  # pragma: no cover
        neg = tuple(tuple(-c for c in r) for r in img)
        if img in index:
            image.append((index[img], 1))
        elif neg in index:
            image.append((index[neg], -1))
        else:
            raise DomainError(
                "gamma does not permute the basis")  # pragma: no cover
    mult: Dict[Vec, int] = {}
    n_basis = len(basis)
    visited = [False] * n_basis
    for start in range(n_basis):
        if visited[start]:
            continue
        sign = 1
        visited[start] = True
        cur, s = image[start]
        while cur != start:
            visited[cur] = True
            sign *= s
            cur, s = image[cur]
        sign *= s
        if sign == 1:
            weight = basis[start][0]
            if any(weight):
                mult[weight] = mult.get(weight, 0) + 1
    if any(v > 1 for v in mult.values()):
        raise DomainError(
            "centralizer weight space of dimension > 1")  # pragma: no cover
    roots = set(mult)
    for beta in roots:
        if beta not in res.roots:
            raise DomainError(
                f"centralizer weight {beta} escapes the restricted system"
            )  # pragma: no cover
    return tuple(sorted(roots))


def _simples_of(positives: Sequence[Vec]) -> Tuple[Vec, ...]:
    """The positive roots that are not a sum of two others."""
    pos = set(positives)
    out = []
    for a in positives:
        if not any(_add(a, _neg(b)) in pos for b in pos):
            out.append(a)
    return tuple(sorted(out))


@dataclass(frozen=True)
class EndoscopicSplit:
    """A +-1 torus element (possibly in the flipped coset) plus optional
    quasisplit twist acting on the centralizer's root data."""

    t: Tuple[int, ...]
    galois: Optional[SignedPerm] = None
    name: str = ""


@dataclass
class SplitData:
    """Root data of the centralizer and everything derived from it."""

    res: RestrictedData
    split: EndoscopicSplit
    h_positives: Tuple[Vec, ...]
    h_simples: Tuple[Vec, ...]
    w_h: FrozenSet[SignedPerm]
    d_h: FrozenSet[SignedPerm]
    mh_simples: Tuple[Vec, ...]   # ambient-standard Levi cut out by a_H
    w_long_mh: SignedPerm
    # derived sets per Levi, built on first use
    _cache: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _h_roots(self) -> Tuple[Vec, ...]:
        return self.h_positives + tuple(_neg(b) for b in self.h_positives)

    @cached_property
    def _a_h_stabilizer(self) -> FrozenSet[SignedPerm]:
        """The elements w with w(a_H) = a_H, where the invariant central
        subtorus a_H is Fix(g) for the Galois twist g (everything when
        there is none).  An orthogonal involution is determined by its
        fixed space, and w(Fix(g)) = Fix(w g w^-1), so these are the w
        that commute with g."""
        g = self.split.galois
        if g is None:
            return self.res.weyl
        return frozenset(w for w in self.res.weyl if w * g == g * w)


def _roots_of_split(datum: RootDatum, res: RestrictedData,
                    split: EndoscopicSplit) -> Tuple[Vec, ...]:
    if datum.twisted:
        return _centralizer_roots(datum, split.t, res)
    roots = []
    for beta in res.roots:
        val = 1
        for c, ti in zip(beta, split.t):
            if c % 2:
                val *= ti
        if val == 1:
            roots.append(beta)
    return tuple(sorted(roots))


def build_split_data(datum: RootDatum, res: RestrictedData,
                     split: EndoscopicSplit) -> SplitData:
    m = datum.restricted_dim()
    h_roots = _roots_of_split(datum, res, split)
    h_pos = tuple(sorted(b for b in h_roots if _positive_in(res, b)))
    if len(h_pos) * 2 != len(h_roots):
        raise DomainError("centralizer roots unbalanced")  # pragma: no cover
    h_simples = _simples_of(h_pos)

    w_h = _reflection_group(res, h_simples)
    if not w_h <= res.weyl:
        raise DomainError(
            "centralizer Weyl group escapes the twisted group")

    g = split.galois
    if g is not None:
        if not set(g.apply(b) for b in h_simples) == set(h_simples):
            raise DomainError("galois twist must preserve the base")
        if g * g != SignedPerm.identity(m):
            raise DomainError("galois twist must be an involution")

    d_h = _min_reps(res, h_simples)

    # the roots orthogonal to a_H = Fix(g) are the roots that g negates
    span_roots = {b for b in res.roots
                  if g is not None and g.apply(b) == _neg(b)}
    mh_simples = tuple(sorted(span_roots.intersection(res.simples)))
    if span_roots != set(_root_span(res, mh_simples)):
        raise DomainError(
            "invariant torus does not cut a standard Levi; "
            "rearrange the split")
    w_long_mh = _levi_longest(res, mh_simples)
    return SplitData(res, split, h_pos, h_simples, w_h, d_h, mh_simples,
                     w_long_mh)


def _positive_in(res: RestrictedData, v: Vec) -> bool:
    return v in res._positive_set


def _span_of(roots: Sequence[Vec], simples: Sequence[Vec],
             n: int) -> Tuple[Vec, ...]:
    """The given roots that lie in the rational span of the simples."""
    sub = Subspace.of(simples, n)
    return tuple(b for b in roots if sub.contains(b))


def _root_span(res: RestrictedData,
               simples: Sequence[Vec]) -> Tuple[Vec, ...]:
    """Roots lying in the rational span of the given simple roots."""
    simples = tuple(simples)
    return _memo(res._cache, ("span", simples), lambda: _span_of(
        res.roots, simples, res.datum.restricted_dim()))


def _inverses(res: RestrictedData) -> Dict[SignedPerm, SignedPerm]:
    """The inverse of each element of the twisted Weyl group."""
    return _memo(res._cache, "inv", lambda: {w: w.inv() for w in res.weyl})


def _reflection_in(res: RestrictedData, beta: Vec) -> SignedPerm:
    """The reflection in a restricted root, built once per datum."""
    return _memo(res._cache, ("refl", beta), lambda: _reflection(beta))


def _inversions(res: RestrictedData) -> Dict[SignedPerm, int]:
    """The inversion set N(w^-1) = {b > 0 : w^-1(b) < 0} of each element,
    as a bit mask over the indices of res.positives."""
    def build():
        inv = _inverses(res)
        return {w: sum(1 << k for k, b in enumerate(res.positives)
                       if not _positive_in(res, inv[w].apply(b)))
                for w in res.weyl}
    return _memo(res._cache, "inversions", build)


def _min_reps(res: RestrictedData,
              simples: Tuple[Vec, ...]) -> FrozenSet[SignedPerm]:
    """The elements w with w^-1 positive on each given root: when the
    roots are a base of W_S, the minimal representatives of the cosets
    W_S w, so that W = W_S * D_S (Bjorner-Brenti, 2.4).  These are the w
    whose inversion set N(w^-1) misses the given roots, which must
    therefore be positive."""
    def build():
        index = {b: k for k, b in enumerate(res.positives)}
        if not all(b in index for b in simples):
            raise DomainError("coset representatives need positive roots")
        mask = sum(1 << index[b] for b in set(simples))
        return frozenset(w for w, n in _inversions(res).items()
                         if not n & mask)
    return _memo(res._cache, ("reps", simples), build)


def _reflection_group(res: RestrictedData,
                      roots: Tuple[Vec, ...]) -> FrozenSet[SignedPerm]:
    """The subgroup generated by the reflections in the given roots."""
    return _memo(res._cache, ("group", roots), lambda: _closure(
        [_reflection_in(res, b) for b in roots], res.datum.restricted_dim()))


def _levi_longest(res: RestrictedData, simples: Tuple[Vec, ...]
                  ) -> SignedPerm:
    return _memo(res._cache, ("longest", simples), lambda: _longest_in(
        _reflection_group(res, simples),
        [b for b in _root_span(res, simples) if _positive_in(res, b)]))


# -- Levi subgroups of the ambient group --------------------------------------

@dataclass(frozen=True)
class LeviG:
    """A theta-stable standard Levi, given by a subset of the restricted
    simple roots."""

    simples: Tuple[Vec, ...]


def levi_g_all(res: RestrictedData) -> List[LeviG]:
    out = []
    for r in range(len(res.simples) + 1):
        for combo in itertools.combinations(res.simples, r):
            out.append(LeviG(tuple(sorted(combo))))
    return out


def _d_m_tilde(res: RestrictedData, levi: LeviG,
               data: SplitData) -> FrozenSet[SignedPerm]:
    """The w in D_M with w^-1(S_M) inside a_H = Fix(g).  That is, w g w^-1
    fixes the centre S_M of M pointwise.  W^theta is the full group of
    signed permutations for every datum here, so it holds g, and the
    pointwise stabilizer of S_M in it is W_M (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12(c)): the condition is w g w^-1 in W_M."""
    def build():
        g, d_m = data.split.galois, _min_reps(res, levi.simples)
        if g is None:
            return d_m
        w_m, inv = _reflection_group(res, levi.simples), _inverses(res)
        return frozenset(w for w in d_m if w * g * inv[w] in w_m)
    return _memo(data._cache, ("tilde", levi.simples), build)


def _d_h_m(res: RestrictedData, levi: LeviG,
           data: SplitData, tilde: bool) -> FrozenSet[SignedPerm]:
    def build():
        dm = _d_m_tilde(res, levi, data) if tilde else \
            _min_reps(res, levi.simples)
        inv = _inverses(res)
        return frozenset(inv[w] for w in dm) & data.d_h
    return _memo(data._cache, ("d_h_m", levi.simples, tilde), build)


def levi_h_all(data: SplitData) -> List[Tuple[Vec, ...]]:
    """The Galois-stable subsets of the centralizer base."""
    g = data.split.galois
    out = []
    for r in range(len(data.h_simples) + 1):
        for combo in itertools.combinations(data.h_simples, r):
            s = tuple(sorted(combo))
            if g is None or set(g.apply(b) for b in s) == set(s):
                out.append(s)
    return out


def _h_orbit_count(data: SplitData, simples: Sequence[Vec]) -> int:
    g = data.split.galois
    if g is None:
        return len(simples)
    seen, count = set(), 0
    for b in simples:
        if b in seen:
            continue
        seen.add(b)
        seen.add(g.apply(b))
        count += 1
    return count


def _m_prime_of(data: SplitData, levi: LeviG, w: SignedPerm
                ) -> Tuple[Vec, ...]:
    """Base of the standard Levi of the centralizer attached to a double
    coset representative: the centralizer roots inside w of the Levi's
    restricted roots."""
    moved = {w.apply(b) for b in _root_span(data.res, levi.simples)}
    inter = [b for b in data.h_positives if b in moved]
    simples = _simples_of(tuple(inter))
    if not set(simples) <= set(data.h_simples):
        raise DomainError("double-coset Levi is not standard")
    full = {b for b in data._h_roots if b in moved}
    if full != set(_root_span_h(data, simples)):
        raise DomainError(
            "double-coset Levi is not spanned by base roots")
    return simples


def _root_span_h(data: SplitData, simples: Tuple[Vec, ...]
                 ) -> Tuple[Vec, ...]:
    return _memo(data._cache, ("span_h", simples), lambda: _span_of(
        data._h_roots, simples, data.res.datum.restricted_dim()))


def _m_prime_tally(data: SplitData, levi: LeviG) -> Counter:
    """How many admissible double cosets attach each centralizer Levi."""
    return _memo(data._cache, ("tally", levi.simples), lambda: Counter(
        _m_prime_of(data, levi, w)
        for w in _d_h_m(data.res, levi, data, tilde=True)))


def a_count(data: SplitData, levi: LeviG,
            m_prime: Tuple[Vec, ...]) -> int:
    """Number of admissible double cosets whose attached Levi is m_prime."""
    return _m_prime_tally(data, levi)[tuple(sorted(m_prime))]


# -- group ring and the identities --------------------------------------------

Ring = Counter  # group-ring element: SignedPerm -> integer coefficient


def _ring_mul(a: Ring, b: Ring) -> Ring:
    out: Ring = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[x * y] += cx * cy
    return out


def _truncate_h(a: Ring, data: SplitData) -> Ring:
    stable = data._a_h_stabilizer
    return Counter({w: c for w, c in a.items() if w in stable})


# Counter equality treats a missing key as zero, so the sums below keep
# zero coefficients without changing any comparison.

def verify_identity_A(data: SplitData) -> bool:
    """Alternating sum of tilde coset sums against the long double flip."""
    res = data.res
    total: Ring = Counter()
    for levi in levi_g_all(res):
        sign = -1 if len(levi.simples) % 2 else 1
        total.update(dict.fromkeys(_d_m_tilde(res, levi, data), sign))
    target = res.w_long_g * data.w_long_mh
    sign = -1 if len(data.mh_simples) % 2 else 1
    return total == Counter({target: sign})


def verify_identity_B(data: SplitData) -> bool:
    """Alternating sum of truncated centralizer coset sums."""
    res = data.res
    total: Ring = Counter()
    for simples in levi_h_all(data):
        sign = -1 if _h_orbit_count(data, simples) % 2 else 1
        total.update(_truncate_h(
            dict.fromkeys(_min_reps(res, simples), sign), data))
    target = _truncate_h(_ring_mul(
        Counter(data.d_h), {res.w_long_g * data.w_long_mh: 1}), data)
    return total == target


def verify_algebraic_identity(data: SplitData, levi: LeviG) -> bool:
    """Truncated product of coset sums against the double-coset counts."""
    res = data.res
    lhs = _truncate_h(_ring_mul(
        Counter(data.d_h), Counter(_d_m_tilde(res, levi, data))), data)
    rhs: Ring = Counter()
    for simples in levi_h_all(data):
        count = a_count(data, levi, simples)
        if count:
            rhs.update(_truncate_h(
                dict.fromkeys(_min_reps(res, simples), count), data))
    return lhs == rhs


@dataclass
class AlternatingReport:
    entries: List[Tuple[Tuple[Vec, ...], int, int]]  # (base of M', lhs, rhs)

    def all_pass(self) -> bool:
        return all(l == r for _, l, r in self.entries)


def verify_alternating_sum(data: SplitData) -> AlternatingReport:
    """The alternating double-coset count identity, one row per standard
    Levi of the centralizer defined over the base field."""
    res = data.res
    levis = levi_g_all(res)
    rows = []
    for m_prime in levi_h_all(data):
        lhs = 0
        for levi in levis:
            sign = -1 if len(levi.simples) % 2 else 1
            lhs += sign * a_count(data, levi, m_prime)
        rhs_exp = len(data.mh_simples) + _h_orbit_count(data, m_prime)
        rhs = -1 if rhs_exp % 2 else 1
        rows.append((m_prime, lhs, rhs))
    # every admissible double coset must land on a Galois-stable Levi
    g = data.split.galois
    for levi in levis:
        for mp in _m_prime_tally(data, levi):
            if g is not None and set(g.apply(b) for b in mp) != set(mp):
                raise DomainError(
                    "admissible coset lands on an unstable Levi"
                )  # pragma: no cover
    return AlternatingReport(rows)


def _elements(res: RestrictedData
              ) -> Tuple[Tuple[SignedPerm, ...], Dict[SignedPerm, int]]:
    """The twisted Weyl group in a fixed order, and each element's index."""
    def build():
        elts = tuple(sorted(res.weyl, key=lambda w: (w.perm, w.signs)))
        return elts, {w: i for i, w in enumerate(elts)}
    return _memo(res._cache, "elements", build)


def _mult_table(res: RestrictedData, g: SignedPerm,
                left: bool) -> Tuple[int, ...]:
    """Index of g * x (left) or x * g (right) for each element x."""
    def build():
        elts, index = _elements(res)
        return tuple(index[g * x] if left else index[x * g] for x in elts)
    return _memo(res._cache, ("mult", g, left), build)


def _double_cosets(res: RestrictedData, left: Sequence[Vec],
                   right: Sequence[Vec]) -> List[int]:
    """Label of each element's (W_left, W_right) double coset, where the
    subgroups are generated by the reflections in the given roots; labels
    run 0, 1, ... in order of first appearance."""
    tables = [_mult_table(res, _reflection_in(res, b), True)
              for b in left] + \
        [_mult_table(res, _reflection_in(res, b), False) for b in right]
    label = [-1] * len(res.weyl)
    count = 0
    for seed in range(len(label)):
        if label[seed] >= 0:
            continue
        label[seed] = count
        stack = [seed]
        while stack:
            x = stack.pop()
            for t in tables:
                y = t[x]
                if label[y] < 0:
                    label[y] = count
                    stack.append(y)
        count += 1
    return label


def _one_per_double_coset(res: RestrictedData, reps: Iterable[SignedPerm],
                          left: Sequence[Vec], right: Sequence[Vec]) -> bool:
    """Whether reps meets every (W_left, W_right) double coset exactly
    once.  With right empty these are the cosets W_left w, and the answer
    says whether W = W_left * reps with unique factorization."""
    label = _double_cosets(res, left, right)
    _, index = _elements(res)
    hits = sorted(label[index[w]] for w in reps)
    return hits == list(range(max(label) + 1))


def verify_coset_representatives(data: SplitData) -> bool:
    """Unique factorization through the minimal representative sets."""
    res = data.res
    if not _one_per_double_coset(res, data.d_h, data.h_simples, ()):
        return False
    for levi in levi_g_all(res):
        if not _memo(res._cache, ("factor", levi.simples),
                     lambda: _one_per_double_coset(
                         res, _min_reps(res, levi.simples), levi.simples, ())):
            return False
        if not _one_per_double_coset(res, _d_h_m(res, levi, data, tilde=False),
                                     data.h_simples, levi.simples):
            return False
    return True


def verify_intersection_prop(data: SplitData, levi: LeviG) -> bool:
    """The one-point intersection description of translated coset sets."""
    res = data.res
    _, index = _elements(res)
    inv = _inverses(res)
    # x D_M^-1 for every x, as element indices, shared by every w
    translates = [[index[x * inv[d]] for d in _min_reps(res, levi.simples)]
                  for x in res.weyl]
    d_h = {index[w] for w in data.d_h}
    # y lies in w W_M, or in W_H w W_M, when it carries the label of w
    coset = _double_cosets(res, (), levi.simples)
    double = _double_cosets(res, data.h_simples, levi.simples)
    for w in _d_h_m(res, levi, data, tilde=False):
        k = index[w]
        for ys in translates:
            # w^-1 x = w_m(x,w) * d_m(x,w) exactly when x d_m(x,w)^-1 is
            # in w W_M
            candidate = next((y for y in ys if coset[y] == coset[k]), None)
            if candidate is None:
                return False
            # (x D_M^-1 cap D_H) cap W_H w W_M, computed directly
            actual = {y for y in ys if y in d_h and double[y] == double[k]}
            expect = {candidate} if candidate in d_h else set()
            if actual != expect:
                return False
    return True


# -- catalog -------------------------------------------------------------------

def datum_catalog() -> List[RootDatum]:
    return [
        RootDatum(TYPE_B, 2), RootDatum(TYPE_C, 2),
        RootDatum(TYPE_B, 3), RootDatum(TYPE_C, 3),
        RootDatum(TYPE_A, 2, twisted=True), RootDatum(TYPE_A, 3, twisted=True),
        RootDatum(TYPE_D, 3, twisted=True), RootDatum(TYPE_D, 4, twisted=True),
    ]


def _dedup_twisted_t(datum: RootDatum) -> List[Tuple[int, ...]]:
    """Orbit representatives of the flipped coset under conjugation and
    cocycle twisting by two-torsion."""
    n = datum.ambient_dim
    perms = []
    if datum.gtype == TYPE_A:
        for p in itertools.permutations(range(n)):
            if all(p[n - 1 - i] == n - 1 - p[i] for i in range(n)):
                perms.append(p)
        twists = []
        for g in itertools.product((1, -1), repeat=n):
            twists.append(tuple(g[i] * g[n - 1 - i] for i in range(n)))
        twists = sorted(set(twists))
    else:
        # conjugation by the theta-fixed elements permutes the first n - 1
        # coordinates and fixes the last
        perms = [p + (n - 1,) for p in itertools.permutations(range(n - 1))]
        twists = [(1,) * n]
    reps = {}
    for t in itertools.product((1, -1), repeat=n):
        orbit = set()
        for p in perms:
            moved = tuple(t[p.index(i)] for i in range(n))
            for tw in twists:
                orbit.add(tuple(a * b for a, b in zip(moved, tw)))
        key = min(orbit)
        reps.setdefault(key, key)
    return sorted(reps)


def _coordinate_flip(m: int, j: int) -> SignedPerm:
    return SignedPerm(tuple(range(m)),
                      tuple(-1 if i == j else 1 for i in range(m)))


def _galois_candidates(base: SplitData) -> List[SignedPerm]:
    """Coordinate flips that can act as the quasisplit twist on the
    centralizer of a split without twist: they must preserve its base and
    fix the defining torus element."""
    datum, split = base.res.datum, base.split
    m = datum.restricted_dim()
    out = []
    for j in range(m):
        flip = _coordinate_flip(m, j)
        if set(flip.apply(b) for b in base.h_simples) != set(base.h_simples):
            continue
        if datum.gtype == TYPE_A and datum.twisted:
            n = datum.ambient_dim
            if split.t[j] != split.t[n - 1 - j]:
                continue
        out.append(flip)
    return out


def catalog_split_data(datum: RootDatum,
                       res: Optional[RestrictedData] = None
                       ) -> List[SplitData]:
    """Every catalogued split of a datum, with quasisplit variants where
    the alignment assumptions can be met."""
    res = res or restricted_roots(datum)
    out: List[SplitData] = []
    if datum.twisted:
        ts = _dedup_twisted_t(datum)
    else:
        n = datum.ambient_dim
        ts = [tuple([1] * (n - k) + [-1] * k) for k in range(n + 1)]
    for t in ts:
        name = "".join("+" if x == 1 else "-" for x in t)
        base = build_split_data(datum, res, EndoscopicSplit(t, None, name))
        out.append(base)
        for flip in _galois_candidates(base):
            j = flip.signs.index(-1)
            gsplit = EndoscopicSplit(t, flip, f"{name}|flip{j}")
            try:
                out.append(build_split_data(datum, res, gsplit))
            except DomainError:
                continue  # arrangement does not meet the alignment bases
    return out


def coset_reps(data: SplitData, levi: LeviG
               ) -> Tuple[FrozenSet[SignedPerm], FrozenSet[SignedPerm],
                          FrozenSet[SignedPerm], FrozenSet[SignedPerm],
                          FrozenSet[SignedPerm]]:
    """The five minimal representative sets attached to (split, Levi).

    Returns (D_H, D_M, tilde-D_M, D_{H,M}, tilde-D_{H,M}); products of
    cardinalities with the corresponding subgroup orders recover the
    twisted Weyl group.
    """
    res = data.res
    d_m = _min_reps(res, levi.simples)
    d_m_tilde = _d_m_tilde(res, levi, data)
    return (data.d_h, d_m, d_m_tilde,
            _d_h_m(res, levi, data, tilde=False),
            _d_h_m(res, levi, data, tilde=True))
