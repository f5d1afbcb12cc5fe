"""Twisted Weyl-group combinatorics for the coset-sum identities.

Everything is exact and finite: classical root systems realized in
integer coordinates, a pinned diagram involution, restricted roots on
the fixed subspace, centralizer roots read off the signed permutation
that the twisted torus element induces on the index pairs labelling the
ambient root vectors, root spans from simple-root supports, and
exhaustive verification of the coset-representative statements, the two
group-ring identities and the alternating double-coset sum.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Optional, Sequence, Tuple, TypeVar)

from .errors import DomainError, RankTooSmall, TooLarge
from .params import _Derived

Vec = Tuple[int, ...]


def _dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


T = TypeVar("T")


def _memo(derive: Callable[..., T]) -> Callable[..., T]:
    """derive(owner, *key), stored in owner._cache under (derive, *key)
    on first read: what _Derived is for a value derived with a key.  No
    lock is taken, so a race between threads only stores an equal value
    twice."""
    @functools.wraps(derive)
    def read(owner, *key):
        cache, entry = owner._cache, (derive, *key)
        value = cache.get(entry)
        if value is None:
            value = cache[entry] = derive(owner, *key)
        return value
    return read


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
    n, bb = len(beta), _dot(beta, beta)
    images = []
    for i in range(n):
        img = tuple(bb * (i == j) - 2 * beta[i] * beta[j] for j in range(n))
        if any(c % bb for c in img):
            raise DomainError("reflection is not integral")  # pragma: no cover
        images.append(tuple(c // bb for c in img))
    return _from_images(images)


# -- ambient root data --------------------------------------------------------

TYPE_A = "A"
TYPE_B = "B"
TYPE_C = "C"
TYPE_D = "D"


def _ambient_roots(gtype: str, rank: int) -> Tuple[List[Vec], List[Vec]]:
    """(positive roots, simple roots) in the standard coordinates."""
    n = rank + 1 if gtype == TYPE_A else rank

    def vec(*entries: Tuple[int, int]) -> Vec:
        v = [0] * n
        for i, c in entries:
            v[i] = c
        return tuple(v)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    simple = [vec((i, 1), (i + 1, -1)) for i in range(n - 1)]
    if gtype == TYPE_A:
        return [vec((i, 1), (j, -1)) for i, j in pairs], simple
    pos = [vec((i, 1), (j, s)) for i, j in pairs for s in (1, -1)]
    if gtype == TYPE_D:
        return pos, simple + [vec((n - 2, 1), (n - 1, 1))]
    short = 1 if gtype == TYPE_B else 2
    return pos + [vec((i, short)) for i in range(n)], \
        simple + [vec((n - 1, short))]


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
        """Size n of the standard matrix realization, whose index pairs
        (i, j), i != j, label the ambient root vectors."""
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
    # the values of the @_memo functions of a root, element or Levi
    _cache: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @_Derived
    def weyl(self) -> FrozenSet[SignedPerm]:
        """W^theta on the fixed space: the Weyl group of the restricted
        roots, generated by the restricted simple reflections
        (Steinberg, Endomorphisms of linear algebraic groups, 1.32)."""
        return frozenset(self._group.elements)

    @_Derived
    def roots(self) -> Tuple[Vec, ...]:
        return self.positives + tuple(_neg(v) for v in self.positives)

    @_Derived
    def _group(self) -> _Group:
        """W^theta on the indices of roots."""
        return _generate(self)

    @_Derived
    def _where(self) -> Dict[Vec, int]:
        """The position of each root in roots."""
        return {b: k for k, b in enumerate(self.roots)}

    @_Derived
    def _inverses(self) -> Tuple[int, ...]:
        """The index of the inverse of each element: x^-1 sends a simple
        root a to the root that x sends to a."""
        group = self._group
        simple = group.images[group.one]
        return tuple(group.by_images[tuple([p.index(a) for a in simple])]
                     for p in group.perms)

    @_Derived
    def _inversions(self) -> Tuple[int, ...]:
        """The inversion set N(w^-1) = {b > 0 : w^-1(b) < 0} of each
        element, as a bit mask over the indices of positives: the positive
        roots w(c) with c < 0."""
        n = len(self.positives)
        return tuple(sum(1 << j for j in p[n:] if j < n)
                     for p in self._group.perms)

    @_Derived
    def _supports(self) -> Tuple[int, ...]:
        """The support of each positive root on the simple roots."""
        return _supports(self.positives, self.simples)

    @_Derived
    def _levis(self) -> Dict[Tuple[Vec, ...], int]:
        """Each standard Levi, as its sorted tuple S of simple roots, with
        its sign (-1)^|S|; read only."""
        return {tuple(sorted(combo)): -1 if r % 2 else 1
                for r in range(len(self.simples) + 1)
                for combo in itertools.combinations(self.simples, r)}


# The largest data whose roots are built: restricted rank 6 (B6, C6 and
# twisted D7, |W^theta| = 46 080), and twisted A up to rank 8, as
# _dedup_twisted_t walks all (rank + 1)! permutations.  B7 alone would
# have 645 120 elements, and B9 185 794 560.
MAX_RESTRICTED_RANK = 6
MAX_TWISTED_A_RANK = 8


def restricted_roots(datum: RootDatum) -> RestrictedData:
    """Restricted root data plus the theta-fixed Weyl group, refused
    before anything is built past the size ceiling."""
    rank = datum.restricted_dim()
    if rank > MAX_RESTRICTED_RANK:
        raise TooLarge(f"restricted rank {rank} exceeds bound "
                       f"{MAX_RESTRICTED_RANK}")
    if datum.gtype == TYPE_A and datum.rank > MAX_TWISTED_A_RANK:
        raise TooLarge(f"type A rank {datum.rank} exceeds bound "
                       f"{MAX_TWISTED_A_RANK}")
    pos, simple = _ambient_roots(datum.gtype, datum.rank)
    rpos = tuple(dict.fromkeys(r for r in map(datum.restrict, pos) if any(r)))
    rsimple = tuple(dict.fromkeys(map(datum.restrict, simple)))
    if not all(map(any, rsimple)):
        raise DomainError("flip kills a simple root")  # pragma: no cover
    if set(rpos) & {_neg(v) for v in rpos}:
        raise DomainError("restricted positivity broken")  # pragma: no cover
    return RestrictedData(datum, rpos, rsimple)


# -- centralizer root data ----------------------------------------------------

def _centralizer_roots(datum: RootDatum, t: Tuple[int, ...],
                       res: "RestrictedData") -> Tuple[Vec, ...]:
    """Restricted weights of the fixed subalgebra of gamma = Ad(t) after
    theta.

    The weight vectors off the Cartan are labelled by the index pairs
    (i, j), i != j, of the n x n matrix realization: E_ij in type A, and
    E_ij - E_{j'i'} in type D, k' = n - 1 - k, so that a pair and its
    mirror label one vector with opposite orientations and antidiagonal
    pairs label none.  gamma is conjugation by the signed permutation
    matrix with entries g[i][sigma(i)] = s_i, sigma an involution, after
    x -> -x^T in type A: it sends the vector of (i, j) to s_a s_b times
    that of (a, b) = (sigma(i), sigma(j)), in type A to -s_a s_b times
    that of (a, b) = (sigma(j), sigma(i)).
    """
    n, m = datum.matrix_size, datum.restricted_dim()
    transpose = datum.gtype == TYPE_A
    if transpose:
        # g is antidiagonal; its columns carry the alternating pinning
        # signs of the flip
        sigma = [n - 1 - i for i in range(n)]
        signs = [t[i] * (1 if (n - i) % 2 else -1) for i in range(n)]
    else:
        # twisted even orthogonal: swap the two middle coordinates
        half = n // 2
        sigma = list(range(n))
        sigma[half - 1], sigma[half] = half, half - 1
        signs = [t[k] if k < half else t[n - 1 - k] for k in sigma]
    # type D keeps one pair of each mirror pair, the one with i + j < n - 1;
    # sigma moves only the middle coordinates half - 1 and half and never
    # carries a sum i + j across n - 1, so it sends a kept pair to a kept
    # pair and every image vector keeps its orientation
    pairs = [(i, j) for i, j in itertools.permutations(range(n), 2)
             if transpose or i + j < n - 1]
    where = {pair: k for k, pair in enumerate(pairs)}
    image: List[Tuple[int, int]] = []
    for i, j in pairs:
        a, b = (sigma[j], sigma[i]) if transpose else (sigma[i], sigma[j])
        image.append((where[a, b],
                      signs[a] * signs[b] * (-1 if transpose else 1)))
    # coordinate i has weight e_i for i < m, -e_{n-1-i} for n - 1 - i < m
    coord = [[(k == i) - (k == n - 1 - i) for k in range(m)] for i in range(n)]
    weights = [tuple(x - y for x, y in zip(coord[i], coord[j]))
               for i, j in pairs]
    mult: Counter = Counter()
    visited = [False] * len(pairs)
    for start in range(len(pairs)):
        sign, cur = 1, start
        if visited[start]:
            continue
        while not visited[cur]:  # once around the cycle of start
            visited[cur] = True
            cur, s = image[cur]
            sign *= s
        if sign == 1 and any(weights[start]):
            mult[weights[start]] += 1
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
    return tuple(sorted(a for a in pos
                        if not any(_add(a, _neg(b)) in pos for b in pos)))


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
    d_h: FrozenSet[SignedPerm]
    mh_simples: Tuple[Vec, ...]   # ambient-standard Levi cut out by a_H
    # the values of the @_memo functions of a Levi or a bit mask
    _cache: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @_Derived
    def _d_h_ix(self) -> FrozenSet[int]:
        index = self.res._group.index
        return frozenset(index[w] for w in self.d_h)

    @_Derived
    def _h_supports(self) -> Tuple[int, ...]:
        return _supports(self.h_positives, self.h_simples)

    @_Derived
    def _h_bits(self) -> Tuple[Tuple[int, ...], int]:
        """The bit of +-res.roots[k] in a mask over h_positives (0 off the
        centralizer) for each k, and the mask of the centralizer base."""
        bit = {b: 1 << k for k, b in enumerate(self.h_positives)}
        return tuple(bit.get(b, 0) for b in self.res.positives) * 2, \
            sum(bit[a] for a in self.h_simples)

    @_Derived
    def _a_h_stabilizer(self) -> FrozenSet[int]:
        """The elements w with w(a_H) = a_H, where the invariant central
        subtorus a_H is Fix(g) for the Galois twist g (everything when
        there is none).  An orthogonal involution is determined by its
        fixed space, and w(Fix(g)) = Fix(w g w^-1), so these are the w
        that commute with g."""
        g = self.split.galois
        if g is None:
            return frozenset(range(len(self.res._group.elements)))
        k = self.res._group.index[g]
        return frozenset(x for x, (a, b) in enumerate(zip(
            _mult_table(self.res, k, True), _mult_table(self.res, k, False)))
            if a == b)

    @_Derived
    def _h_levis(self) -> Dict[Tuple[Vec, ...], int]:
        """The Galois-stable subsets of the centralizer base, each with its
        sign (-1)^k, k the number of Galois orbits on it; read only."""
        g, out = self.split.galois, {}
        for r in range(len(self.h_simples) + 1):
            for combo in itertools.combinations(self.h_simples, r):
                images = combo if g is None else tuple(map(g.apply, combo))
                if set(images) == set(combo):
                    orbits = len({frozenset(p) for p in zip(combo, images)})
                    out[tuple(sorted(combo))] = -1 if orbits % 2 else 1
        return out

    @_Derived
    def _long_double_flip(self) -> int:
        """w_0(G) * w_0(M_H), M_H the Levi cut out by a_H."""
        res = self.res
        return _product(res._group, _levi_longest(res, res.simples),
                        _levi_longest(res, self.mh_simples))


def build_split_data(datum: RootDatum, res: RestrictedData,
                     split: EndoscopicSplit) -> SplitData:
    # untwisted, the roots on which t is trivial
    h_roots = _centralizer_roots(datum, split.t, res) if datum.twisted else \
        [b for b in res.roots
         if prod(ti for c, ti in zip(b, split.t) if c % 2) == 1]
    h_pos = tuple(sorted(b for b in h_roots if _positive_in(res, b)))
    if len(h_pos) * 2 != len(h_roots):
        raise DomainError("centralizer roots unbalanced")  # pragma: no cover
    h_simples = _simples_of(h_pos)

    g = split.galois
    if g is not None:
        if not set(g.apply(b) for b in h_simples) == set(h_simples):
            raise DomainError("galois twist must preserve the base")
        if g.inv() != g:
            raise DomainError("galois twist must be an involution")
        if g not in res._group.index:
            raise DomainError("galois twist must lie in the twisted group")

    elts = res._group.elements
    d_h = frozenset(elts[x] for x in _min_reps(res, h_simples))

    # the roots orthogonal to a_H = Fix(g) are the roots that g negates
    span_roots = {b for b in res.roots
                  if g is not None and g.apply(b) == _neg(b)}
    mh_simples = tuple(sorted(span_roots.intersection(res.simples)))
    if span_roots != set(_root_span(res, mh_simples)):
        raise DomainError(
            "invariant torus does not cut a standard Levi; "
            "rearrange the split")
    return SplitData(res, split, h_pos, h_simples, d_h, mh_simples)


def _positive_in(res: RestrictedData, v: Vec) -> bool:
    n = len(res.positives)
    return res._where.get(v, n) < n


def _supports(positives: Sequence[Vec],
              base: Sequence[Vec]) -> Tuple[int, ...]:
    """The support of each positive root on the base, as a bit mask over
    the positions of the simple roots.  A positive root that is not simple
    stays positive when some simple root is taken off (Bourbaki, Lie VI
    1.6, non-reduced systems included), so each root walks down to a simple
    one."""
    pos, bit = set(positives), {a: 1 << k for k, a in enumerate(base)}
    out = []
    for b in positives:
        mask = 0
        while b not in bit:
            a = next((a for a in base if _add(b, _neg(a)) in pos), None)
            if a is None:
                raise DomainError(
                    f"{b} is not a sum of simple roots")  # pragma: no cover
            mask |= bit[a]
            b = _add(b, _neg(a))
        out.append(mask | bit[b])
    return tuple(out)


def _supported_on(roots: Sequence[Vec], supports: Sequence[int],
                  base: Sequence[Vec], simples: Sequence[Vec]
                  ) -> Tuple[Vec, ...]:
    """The roots whose support lies inside the given part of the base:
    exactly the roots in the span of those simple roots (Bourbaki, Lie VI
    1.7)."""
    bit = {a: 1 << k for k, a in enumerate(base)}
    if not set(simples) <= bit.keys():
        raise DomainError("a root span needs simple roots of the base")
    mask = sum(bit[a] for a in set(simples))
    return tuple(b for b, s in zip(roots, supports) if not s & ~mask)


@_memo
def _span_positions(res: RestrictedData,
                    simples: Tuple[Vec, ...]) -> Tuple[int, ...]:
    """The indices in res.positives of the roots in the span of the given
    restricted simple roots."""
    return _supported_on(range(len(res.positives)), res._supports,
                         res.simples, simples)


def _root_span(res: RestrictedData,
               simples: Tuple[Vec, ...]) -> Tuple[Vec, ...]:
    """Roots lying in the span of the given restricted simple roots, in
    the order of res.roots."""
    pos, n = _span_positions(res, simples), len(res.positives)
    return tuple(res.roots[k] for k in pos) + \
        tuple(res.roots[k + n] for k in pos)


@_memo
def _reflection_in(res: RestrictedData, beta: Vec) -> SignedPerm:
    """The reflection in a restricted root, built once per datum."""
    return _reflection(beta)


@dataclass(frozen=True)
class _Group:
    """The twisted Weyl group on integer indices.  Element x is
    elements[x], and perms[x][k] is the index of x(res.roots[k]) in
    res.roots.  The simple roots are a basis of the fixed space, so an
    element is determined by their images, images[x], and by_images
    gives the index back."""

    elements: Tuple[SignedPerm, ...]  # sorted by (perm, signs)
    index: Dict[SignedPerm, int]
    one: int  # the identity
    perms: Tuple[Tuple[int, ...], ...]
    images: Tuple[Tuple[int, ...], ...]
    by_images: Dict[Tuple[int, ...], int]


def _generate(res: RestrictedData) -> _Group:
    """W^theta as the closure of the restricted simple reflections,
    acting on the indices of res.roots; each new element s * w costs one
    SignedPerm product."""
    where = res._where
    simple = [where[b] for b in res.simples]
    gens = [(s, tuple(where[s.apply(b)] for b in res.roots))
            for s in (_reflection_in(res, b) for b in res.simples)]
    found = {tuple(simple): (SignedPerm.identity(len(simple)),
                             tuple(range(len(res.roots))))}
    queue = list(found.values())
    for w, p in queue:  # breadth first; the queue grows as it is read
        for s, q in gens:
            key = tuple([q[p[a]] for a in simple])
            if key not in found:
                found[key] = x = (s * w, tuple([q[j] for j in p]))
                queue.append(x)
    order = sorted(found.values(), key=lambda e: (e[0].perm, e[0].signs))
    images = tuple(tuple([p[a] for a in simple]) for _, p in order)
    elements = tuple(w for w, _ in order)
    by_images = {key: x for x, key in enumerate(images)}
    return _Group(elements, {w: x for x, w in enumerate(elements)},
                  by_images[tuple(simple)], tuple(p for _, p in order),
                  images, by_images)


def _product(group: _Group, x: int, y: int) -> int:
    """The index of x * y: the element sending each simple root a to
    x(y(a))."""
    p = group.perms[x]
    return group.by_images[tuple([p[k] for k in group.images[y]])]


@_memo
def _mult_table(res: RestrictedData, g: int, left: bool) -> Tuple[int, ...]:
    """Index of g * x (left) or x * g (right) for each element x: the
    images of the simple roots are read off a column at a time."""
    group = res._group
    if left:  # g(x(a)) for each simple root a
        columns = [map(group.perms[g].__getitem__, map(
            itemgetter(i), group.images)) for i in range(len(res.simples))]
    else:  # x(g(a))
        columns = [map(itemgetter(k), group.perms) for k in group.images[g]]
    return tuple(map(group.by_images.__getitem__, zip(*columns)))


def _reflection_table(res: RestrictedData, beta: Vec,
                      left: bool) -> Tuple[int, ...]:
    """_mult_table of the reflection in a restricted root, which W^theta
    holds as the Weyl group of the restricted roots."""
    return _mult_table(res, res._group.index[_reflection_in(res, beta)],
                       left)


@_memo
def _min_reps(res: RestrictedData,
              simples: Tuple[Vec, ...]) -> FrozenSet[int]:
    """The elements w with w^-1 positive on each given root: when the
    roots are a base of W_S, the minimal representatives of the cosets
    W_S w, so that W = W_S * D_S (Bjorner-Brenti, 2.4).  These are the w
    whose inversion set N(w^-1) misses the given roots, which must
    therefore be positive."""
    if not all(_positive_in(res, b) for b in simples):
        raise DomainError("coset representatives need positive roots")
    mask = sum(1 << res._where[b] for b in set(simples))
    return frozenset([x for x, inv in enumerate(res._inversions)
                      if not inv & mask])


@_memo
def _reflection_group(res: RestrictedData,
                      roots: Tuple[Vec, ...]) -> FrozenSet[int]:
    """The subgroup generated by the reflections in the given roots: the
    coset of the identity."""
    label, _ = _cosets(res, roots)
    one = label[res._group.one]
    return frozenset(x for x, k in enumerate(label) if k == one)


@_memo
def _levi_longest(res: RestrictedData, simples: Tuple[Vec, ...]) -> int:
    """The element of W_S sending every positive root of S to a negative
    one."""
    n, perms = len(res.positives), res._group.perms
    return next(x for x in _reflection_group(res, simples)
                if all(perms[x][k] >= n
                       for k in _span_positions(res, simples)))


# -- Levi subgroups of the ambient group --------------------------------------
# A theta-stable standard Levi is given by its sorted tuple of restricted
# simple roots.

def levi_g_all(res: RestrictedData) -> List[Tuple[Vec, ...]]:
    return list(res._levis)


@_memo
def _d_m_tilde(data: SplitData, simples: Tuple[Vec, ...]) -> FrozenSet[int]:
    """The w in D_M with w^-1(S_M) inside a_H = Fix(g).  That is, w g w^-1
    fixes the centre S_M of M pointwise.  W^theta is the full group of
    signed permutations for every datum here, so it holds g, and the
    pointwise stabilizer of S_M in it is W_M (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12(c)): the condition is w g w^-1 in W_M."""
    res, g = data.res, data.split.galois
    d_m = _min_reps(res, simples)
    if g is None:
        return d_m
    label, _ = _cosets(res, simples)
    wg = _mult_table(res, res._group.index[g], False)
    # w g w^-1 lies in W_M exactly when w g lies in the coset W_M w
    return frozenset([w for w in d_m if label[wg[w]] == label[w]])


@_memo
def _d_h_m(data: SplitData, simples: Tuple[Vec, ...],
           tilde: bool) -> FrozenSet[int]:
    dm = _d_m_tilde(data, simples) if tilde else _min_reps(data.res, simples)
    inv = data.res._inverses  # D_H is the smaller set
    return frozenset([w for w in data._d_h_ix if inv[w] in dm])


def levi_h_all(data: SplitData) -> List[Tuple[Vec, ...]]:
    """The Galois-stable subsets of the centralizer base."""
    return list(data._h_levis)


@_memo
def _base_and_span(data: SplitData, s: int) -> Tuple[Tuple[Vec, ...], int]:
    """The centralizer simple roots in the bit mask s over
    data.h_positives, and the mask of their span."""
    pos = data.h_positives
    base = tuple(b for k, b in enumerate(pos) if s >> k & 1)
    return base, sum(1 << k for k in _supported_on(
        range(len(pos)), data._h_supports, data.h_simples, base))


@_memo
def _m_prime_tally(data: SplitData, simples: Tuple[Vec, ...]) -> Counter:
    """How many admissible double cosets attach each centralizer Levi.

    The Levi attached to w has the centralizer roots F inside w of the
    Levi's restricted roots, a bit mask over data.h_positives.  It is
    standard exactly when F is the span of the centralizer simple roots S
    it holds, which are then its base."""
    res = data.res
    (bits, simple), perms = data._h_bits, res._group.perms
    span = _span_positions(res, simples)
    # distinct positive roots have distinct images up to sign, so the sum
    # of their bits is the union
    masks = Counter(sum([bits[perms[w][k]] for k in span])
                    for w in _d_h_m(data, simples, True))
    tally: Counter = Counter()
    for mask, count in masks.items():
        base, spanned = _base_and_span(data, mask & simple)
        if mask != spanned:
            raise DomainError("double-coset Levi is not standard")
        tally[base] += count
    return tally


def a_count(data: SplitData, simples: Tuple[Vec, ...],
            m_prime: Tuple[Vec, ...]) -> int:
    """Number of admissible double cosets whose attached Levi is m_prime."""
    return _m_prime_tally(data, simples)[tuple(sorted(m_prime))]


# -- group ring and the identities --------------------------------------------

Ring = Counter  # group-ring element: element index -> integer coefficient


def _ring_mul(res: RestrictedData, a: Ring, b: Ring) -> Ring:
    group = res._group
    out: Ring = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[_product(group, x, y)] += cx * cy
    return out


def _truncate_h(a: Ring, data: SplitData) -> Ring:
    stable = data._a_h_stabilizer
    return Counter({w: c for w, c in a.items() if w in stable})


# Counter equality treats a missing key as zero, so the sums below keep
# zero coefficients without changing any comparison.

def _signed_sum(terms: Iterable[Tuple[int, Iterable[int]]]) -> Ring:
    """The sum of sign * (sum of the set) over (sign, set) terms, counted
    in C by Counter.update."""
    plus, minus = Counter(), Counter()
    for sign, elements in terms:
        (plus if sign > 0 else minus).update(elements)
    plus.subtract(minus)
    return plus


def verify_identity_A(data: SplitData) -> bool:
    """Alternating sum of tilde coset sums against the long double flip."""
    total = _signed_sum((sign, _d_m_tilde(data, simples))
                        for simples, sign in data.res._levis.items())
    sign = -1 if len(data.mh_simples) % 2 else 1
    return total == Counter({data._long_double_flip: sign})


def verify_identity_B(data: SplitData) -> bool:
    """Alternating sum of truncated centralizer coset sums."""
    res, stable = data.res, data._a_h_stabilizer
    total = _signed_sum((sign, _min_reps(res, simples) & stable)
                        for simples, sign in data._h_levis.items())
    target = _truncate_h(_ring_mul(
        res, Counter(data._d_h_ix), {data._long_double_flip: 1}), data)
    return total == target


def verify_algebraic_identity(data: SplitData,
                              simples: Tuple[Vec, ...]) -> bool:
    """Truncated product of coset sums against the double-coset counts."""
    res = data.res
    lhs = _truncate_h(_ring_mul(
        res, Counter(data._d_h_ix), Counter(_d_m_tilde(data, simples))),
        data)
    rhs: Ring = Counter()
    for m_prime in levi_h_all(data):
        count = a_count(data, simples, m_prime)
        if count:
            rhs.update(_truncate_h(
                dict.fromkeys(_min_reps(res, m_prime), count), data))
    return lhs == rhs


@dataclass
class AlternatingReport:
    entries: List[Tuple[Tuple[Vec, ...], int, int]]  # (base of M', lhs, rhs)

    def all_pass(self) -> bool:
        return all(l == r for _, l, r in self.entries)


def verify_alternating_sum(data: SplitData) -> AlternatingReport:
    """The alternating double-coset count identity, one row per standard
    Levi M' of the centralizer defined over the base field: the sum over
    the standard Levis M of (-1)^|S_M| a_count(M, M'), read off one signed
    sum of the tallies."""
    total: Counter = Counter()
    for simples, sign in data.res._levis.items():
        (total.update if sign > 0 else total.subtract)(
            _m_prime_tally(data, simples))
    # every admissible double coset must land on a Galois-stable Levi
    if not total.keys() <= data._h_levis.keys():
        raise DomainError("admissible coset lands on an unstable Levi")
    mh_sign = -1 if len(data.mh_simples) % 2 else 1
    return AlternatingReport([(m_prime, total[m_prime], mh_sign * sign)
                              for m_prime, sign in data._h_levis.items()])


def _orbits(size: int, step: Callable[[int], Iterable[int]]
            ) -> Tuple[List[int], List[int]]:
    """The label of each of range(size) under the moves step, labels
    running 0, 1, ... in order of first appearance, and the first member
    of each orbit."""
    label, first = [-1] * size, []
    for seed in range(size):
        if label[seed] >= 0:
            continue
        label[seed] = k = len(first)  # one int object per orbit
        stack = [seed]
        while stack:
            for y in step(stack.pop()):
                if label[y] < 0:
                    label[y] = k
                    stack.append(y)
        first.append(seed)
    return label, first


@_memo
def _cosets(res: RestrictedData, left: Tuple[Vec, ...]
            ) -> Tuple[List[int], List[int]]:
    """The label of each element's coset W_left x, and the first element
    of each coset."""
    tables = [_reflection_table(res, b, True) for b in left]
    return _orbits(len(res._group.elements),
                   lambda x: [t[x] for t in tables])


def _double_cosets(res: RestrictedData, left: Sequence[Vec],
                   right: Sequence[Vec]) -> Tuple[List[int], Sequence[int]]:
    """The label of each element's coset W_left x and of each coset's
    (W_left, W_right) double coset, the orbits of W_right on the cosets;
    the subgroups are generated by the reflections in the given roots, and
    labels run 0, 1, ... in order of first appearance."""
    label, first = _cosets(res, tuple(left))
    tables = [_reflection_table(res, b, False) for b in right]
    orbit, _ = _orbits(len(first),
                       lambda c: [label[t[first[c]]] for t in tables])
    return label, orbit


def _one_per_double_coset(res: RestrictedData, reps: Iterable[int],
                          left: Sequence[Vec], right: Sequence[Vec]) -> bool:
    """Whether reps meets every (W_left, W_right) double coset exactly
    once.  With right empty these are the cosets W_left w, and the answer
    says whether W = W_left * reps with unique factorization."""
    label, orbit = _double_cosets(res, left, right)
    hits = sorted(orbit[label[x]] for x in reps)
    return hits == list(range(max(orbit) + 1))


@_memo
def _factorizes(res: RestrictedData, simples: Tuple[Vec, ...]) -> bool:
    """Whether W = W_S * D_S with unique factorization."""
    return _one_per_double_coset(res, _min_reps(res, simples), simples, ())


def verify_coset_representatives(data: SplitData) -> bool:
    """Unique factorization through the minimal representative sets."""
    res = data.res
    if not _one_per_double_coset(res, data._d_h_ix, data.h_simples, ()):
        return False
    for simples in res._levis:
        if not _factorizes(res, simples):
            return False
        if not _one_per_double_coset(res, _d_h_m(data, simples, False),
                                     data.h_simples, simples):
            return False
    return True


def verify_intersection_prop(data: SplitData,
                             simples: Tuple[Vec, ...]) -> bool:
    """The one-point intersection description of translated coset sets."""
    res = data.res
    group, inv, d_h = res._group, res._inverses, data._d_h_ix
    d_m_inv = [inv[d] for d in _min_reps(res, simples)]
    d_h_m = _d_h_m(data, simples, False)
    # y lies in w W_M, or in W_H w W_M, when it carries the label of w;
    # with left empty, each element is its own coset
    coset = _double_cosets(res, (), simples)[1]
    label, double = _double_cosets(res, data.h_simples, simples)
    for x in range(len(group.elements)):
        ys = [_product(group, x, d) for d in d_m_inv]  # x D_M^-1
        for k in d_h_m:
            # w^-1 x = w_m(x,w) * d_m(x,w) exactly when x d_m(x,w)^-1 is
            # in w W_M
            candidate = next((y for y in ys if coset[y] == coset[k]), None)
            if candidate is None:
                return False
            # (x D_M^-1 cap D_H) cap W_H w W_M, computed directly
            actual = {y for y in ys if y in d_h
                      and double[label[y]] == double[label[k]]}
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
    signs = list(itertools.product((1, -1), repeat=n))
    if datum.gtype == TYPE_A:
        perms = [p for p in itertools.permutations(range(n))
                 if all(p[n - 1 - i] == n - 1 - p[i] for i in range(n))]
        twists = {tuple(g[i] * g[n - 1 - i] for i in range(n)) for g in signs}
    else:
        # conjugation by the theta-fixed elements permutes the first n - 1
        # coordinates and fixes the last
        perms = [p + (n - 1,) for p in itertools.permutations(range(n - 1))]
        twists = {(1,) * n}
    # the permutations normalize the twists, so together they form a group
    # and each orbit is swept once, from its first sign vector
    inverses = [tuple(p.index(i) for i in range(n)) for p in perms]
    seen = set()
    reps = []
    for t in signs:
        if t not in seen:
            orbit = {tuple(t[q[i]] * tw[i] for i in range(n))
                     for q in inverses for tw in twists}
            seen |= orbit
            reps.append(min(orbit))
    return sorted(reps)


def _galois_candidates(base: SplitData) -> List[SignedPerm]:
    """Coordinate flips that can act as the quasisplit twist on the
    centralizer of a split without twist: they must preserve its base and
    fix the defining torus element."""
    datum, split = base.res.datum, base.split
    m = datum.restricted_dim()
    out = []
    for j in range(m):
        flip = SignedPerm(tuple(range(m)),
                          tuple(-1 if i == j else 1 for i in range(m)))
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

