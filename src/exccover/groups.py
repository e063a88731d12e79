"""Permutation-group machinery for the orbit and fixed-point criteria.

A permutation is its image tuple: ``Perm`` subclasses ``tuple``, so it
hashes and compares as the tuple, and the closures below build Perms
straight from the tuples C code returns.  Every group holds its explicit
element set: the degrees in play are tiny, so element sets are simplest
and keep every computation deterministic.  A group given by generators
is built by Dimino's coset closure, one ``itemgetter`` map per coset.
The subgroup catalog of S_n instead indexes the n! elements once,
multiplies through one table and holds each subgroup as an int bitmask
of element indices.  It extends one subgroup per conjugacy class by
cyclic subgroups, adds the conjugates through S_n's two generators and
hands its groups out as ordinary ``PermGroup``s.  The composition
convention is fixed once: (sigma * tau)(s) = sigma(tau(s)), right factor
first.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import itemgetter

from .config import ENUMERATION_CAP, GROUP_CAP
from .errors import CapExceeded, NotSubgroup, NotTransitive


class Perm(tuple):
    """A permutation of {0, .., n-1} as its image tuple; it hashes and
    compares as that tuple."""

    __slots__ = ()

    def __new__(cls, images):
        perm = tuple.__new__(cls, images)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("images do not form a permutation")
        return perm

    @classmethod
    def identity(cls, deg):
        return cls(range(deg))

    @classmethod
    def from_cycles(cls, deg, cycles):
        """Build from disjoint cycles, e.g. [(0, 1, 2), (3, 4)]."""
        images = list(range(deg))
        seen = set()
        for cycle in cycles:
            for s in cycle:
                if not 0 <= s < deg:
                    raise ValueError(f"point {s} outside degree {deg}")
                if s in seen:
                    raise ValueError("cycles are not disjoint")
                seen.add(s)
            for i, s in enumerate(cycle):
                images[s] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    __call__ = tuple.__getitem__

    def __mul__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("degrees differ")
        # apply the right factor first; a composition of two permutations
        # is one, so the result skips the check in __new__
        return _perm(map(self.__getitem__, other))

    __rmul__ = None  # an int times a Perm is no tuple repetition

    def inverse(self):
        out = [0] * len(self)
        for s, t in enumerate(self):
            out[t] = s
        return _perm(out)

    def is_identity(self):
        return all(s == t for s, t in enumerate(self))

    def fixed_points(self):
        return [s for s, t in enumerate(self) if s == t]

    def cycle_type(self):
        """Sorted (ascending) partition of the degree by cycle lengths; it
        also reads a plain image tuple."""
        seen = [False] * len(self)
        lengths = []
        for s in range(len(self)):
            if seen[s]:
                continue
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = self[t]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def cycles(self):
        """Nontrivial cycles in canonical order."""
        seen = [False] * len(self)
        out = []
        for s in range(len(self)):
            if seen[s]:
                continue
            cyc = []
            t = s
            while not seen[t]:
                seen[t] = True
                cyc.append(t)
                t = self[t]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


# a Perm from images already known to form a permutation, built in C
_perm = partial(tuple.__new__, Perm)


class PermGroup:
    """A permutation group materialized as its full element set."""

    __slots__ = ("deg", "generators", "elements", "_orbits")

    def __init__(self, deg, generators):
        gens = tuple(generators)
        for g in gens:
            if len(g) != deg:
                raise ValueError("generator degree mismatch")
        # Dimino, largest-order generator first: the group H so far grows
        # by right cosets H t = {h * t}, one itemgetter map each (t is never
        # the identity, so deg >= 2 and maps give tuples)
        ranked = sorted(gens, key=lambda g: math.lcm(*g.cycle_type()),
                        reverse=True)
        identity = _perm(range(deg))
        elements = {identity}
        for i, g in enumerate(ranked):
            if g in elements:
                continue
            H, reps = list(elements), [identity]
            for r in reps:
                for s in ranked[:i + 1]:
                    t = tuple(map(r.__getitem__, s))
                    if t not in elements:
                        elements.update(map(_perm, map(itemgetter(*t), H)))
                        reps.append(t)
                        if len(elements) > GROUP_CAP:
                            raise CapExceeded("group closure exceeds the cap")
        self.deg = deg
        self.generators = gens
        self.elements = frozenset(elements)
        self._orbits = {}

    @classmethod
    def _closed(cls, deg, generators, elements):
        """A group whose element set is already known to be closed."""
        G = object.__new__(cls)
        G.deg = deg
        G.generators = tuple(generators)
        G.elements = frozenset(elements)
        G._orbits = {}
        return G

    @classmethod
    def symmetric(cls, deg):
        if deg == 1:
            return cls(1, ())
        gens = [Perm.from_cycles(deg, [(0, 1)]),
                Perm.from_cycles(deg, [tuple(range(deg))])]
        return cls(deg, gens)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, perm):
        return perm in self.elements

    def __le__(self, other):
        return self.deg == other.deg and self.elements <= other.elements

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.deg == other.deg
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.deg, self.elements))

    def __repr__(self):
        return f"PermGroup(deg {self.deg}, order {self.order})"

    def is_normal_in(self, other):
        if not self <= other:
            return False
        return all(a * h * a.inverse() in self.elements
                   for a in other.generators or other.elements
                   for h in self.generators or self.elements)

    def orbits(self, action="points"):
        """Orbit partition of the point set or of ordered pairs, computed
        once per action; each call returns a fresh list."""
        if action in self._orbits:
            return list(self._orbits[action])
        if action == "points":
            points = list(range(self.deg))
            act = lambda g, s: g[s]
        elif action == "ordered_pairs":
            if self.deg ** 2 > ENUMERATION_CAP:
                raise CapExceeded(f"the {self.deg}^2 ordered pairs exceed "
                                  f"the enumeration cap {ENUMERATION_CAP}")
            points = [(s, t) for s in range(self.deg) for t in range(self.deg)]
            act = lambda g, st: (g[st[0]], g[st[1]])
        else:
            raise ValueError(f"unknown action {action!r}")
        gens = self.generators or [Perm.identity(self.deg)]
        seen = set()
        out = []
        for start in points:
            if start in seen:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for s in frontier:
                    for g in gens:
                        t = act(g, s)
                        if t not in orbit:
                            orbit.add(t)
                            nxt.append(t)
                frontier = nxt
            seen |= orbit
            out.append(frozenset(orbit))
        self._orbits[action] = out
        return list(out)

    def is_transitive(self):
        return len(self.orbits("points")) == 1


@dataclass(frozen=True)
class CosetSpec:
    """A group A with normal subgroup G and a coset rep a generating the
    cyclic quotient A/G."""

    ambient: PermGroup
    normal: PermGroup
    rep: Perm

    def __post_init__(self):
        A, G, a = self.ambient, self.normal, self.rep
        if not G.is_normal_in(A):
            raise NotSubgroup("G must be a normal subgroup of A")
        if a not in A:
            raise NotSubgroup("the coset representative must lie in A")
        if coset_order(A, G, a) != A.order // G.order:
            raise ValueError("the coset does not generate the quotient")

    @cached_property
    def _coset(self):
        """The generating coset as plain image tuples: G * rep, which is
        rep * G since G is normal in A."""
        if len(self.rep) < 2:  # itemgetter of one index returns no tuple
            return list(self.normal.elements)
        return list(map(itemgetter(*self.rep), self.normal.elements))

    @cached_property
    def _cycle_types(self):
        """How many elements of the generating coset have each cycle type."""
        return Counter(map(Perm.cycle_type, self._coset))

    def qualifying_reps(self):
        """All a' in A whose coset generates A/G: the cosets rep^j G with
        j prime to the index, since rep generates the cyclic quotient."""
        index = self.ambient.order // self.normal.order
        coset = self._coset
        out = list(coset)
        for j in range(2, index + 1):
            coset = list(map(itemgetter(*self.rep), coset))
            if math.gcd(j, index) == 1:
                out += coset
        return list(map(_perm, out))


def coset_order(A, G, a):
    """Order of the coset aG in the quotient A/G."""
    power = a
    order = 1
    while power not in G.elements:
        power = power * a
        order += 1
    return order


def _common_orbits(A, G, action):
    """The A-orbits, in A's order, that are single G-orbits."""
    g_orbits = set(G.orbits(action))
    return [orb for orb in A.orbits(action) if orb in g_orbits]


def fixed_point_identity(spec, action="points"):
    """(lhs, rhs): the number of ambient orbits that are single
    normal-subgroup orbits, and the average fixed-point count over the
    generating coset.  The two agree exactly; rhs is an exact rational.
    """
    A, G = spec.ambient, spec.normal
    lhs = len(_common_orbits(A, G, action))
    power = 1 if action == "points" else 2  # orbits() refused the rest
    total = sum(count * ct.count(1) ** power
                for ct, count in spec._cycle_types.items())
    rhs = Fraction(total, G.order)
    return lhs, rhs


@dataclass(frozen=True)
class ExceptionalityConditions:
    """The four equivalent orbit/fixed-point conditions, plus agreement."""

    diagonal_only_common_orbit: bool
    all_unique_fixed_point: bool
    all_at_most_one: bool
    all_at_least_one: bool

    @property
    def agree(self):
        return (self.diagonal_only_common_orbit == self.all_unique_fixed_point
                == self.all_at_most_one == self.all_at_least_one)


def exceptionality_conditions(spec):
    """Evaluate the four orbit/fixed-point conditions by enumeration.

    Requires the normal subgroup to act transitively on points."""
    A, G = spec.ambient, spec.normal
    if not G.is_transitive():
        raise NotTransitive("the normal subgroup must be transitive on points")
    diagonal = frozenset((s, s) for s in range(A.deg))
    cond1 = _common_orbits(A, G, "ordered_pairs") == [diagonal]
    if A.order <= 2 * G.order:  # only the generating coset qualifies
        fixes = [ct.count(1) for ct in spec._cycle_types]
    else:
        fixes = [len(x.fixed_points()) for x in spec.qualifying_reps()]
    cond2 = all(c == 1 for c in fixes)
    cond3 = all(c <= 1 for c in fixes)
    cond4 = all(c >= 1 for c in fixes)
    return ExceptionalityConditions(cond1, cond2, cond3, cond4)


def cycle_type_histogram(spec):
    """Exact cycle-type frequencies over the generating coset."""
    total = spec.normal.order
    return {ct: Fraction(c, total)
            for ct, c in sorted(spec._cycle_types.items())}


# ---------------------------------------------------------------------------
# Exhaustive subgroup catalog for the lemma sweeps.  The n! elements of S_n
# are indexed in sorted image order (identity first), products go through
# one multiplication table, and a subgroup is the int bitmask of its
# element indices.


def _symmetric_table(n):
    """(perms, index, mul): the elements of S_n in sorted image order,
    the index of each, and mul[i][j], the index of perms[i] * perms[j]."""
    perms = list(map(_perm, itertools.permutations(range(n))))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple([a[s] for s in b])] for b in perms] for a in perms]
    return perms, index, mul


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _join(H, gens, mul):
    """Mask of the group generated by ``gens``, which include generators
    of the subgroup with mask ``H`` (Dimino): the join is a union of
    right cosets H r, grown until right multiplication by every
    generator stays inside it."""
    elems = _bits(H)
    K = H
    reps = [0]
    for r in reps:
        for s in gens:
            t = mul[r][s]
            if not K >> t & 1:
                for h in elems:
                    K |= 1 << mul[h][t]
                reps.append(t)
    return K


@lru_cache(maxsize=None)
def all_subgroups_symmetric(n):
    """Every subgroup of the symmetric group on n points (not just up to
    conjugacy), sorted by order and then by sorted element images.

    Neubüser's cyclic-extension method up to conjugacy: from the trivial
    group on, the first subgroup found in each conjugacy class is joined
    with one generator of every cyclic subgroup it does not contain; a
    new join brings its class, conjugated by (0 1) and (0 1 .. n-1).  If
    H = x H_0 x^-1, then x^-1 <H, C> x = <H_0, x^-1 C x>, so no class is
    missed.  The (n!)^2 table must fit the enumeration cap: n <= 6."""
    size = math.factorial(n)
    if size * size > ENUMERATION_CAP:
        raise CapExceeded(
            f"the multiplication table of S_{n} has {size}^2 entries, "
            f"over the enumeration cap {ENUMERATION_CAP}")
    perms, index, mul = _symmetric_table(n)
    cyclic = {}  # mask of <g> -> the first g generating it
    for g in range(size):
        mask, power = 1, g
        while power:
            mask |= 1 << power
            power = mul[power][g]
        cyclic.setdefault(mask, g)
    # g -> x^-1 g x on element indices, for x = (0 1) and x = (0 1 .. n-1)
    xs = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    conjugations = [[mul[xi][mul[g][x]] for g in range(size)]
                    for x in map(index.get, xs) for xi in [mul[x].index(0)]]
    known = {1: ()}  # subgroup mask -> indices of its generators
    frontier = [1]
    while frontier:
        new = []
        for H in frontier:
            for C, g in cyclic.items():
                if C & ~H == 0:
                    continue
                gens = known[H] + (g,)
                K = _join(H, gens, mul)
                if K not in known:
                    known[K] = gens
                    new.append(K)
                    conjugates = [K]
                    for L in conjugates:
                        for conj in conjugations:
                            M = sum(1 << conj[h] for h in _bits(L))
                            if M not in known:
                                known[M] = tuple(conj[h] for h in known[L])
                                conjugates.append(M)
        frontier = new
    order = sorted(known, key=lambda K: (K.bit_count(), _bits(K)))
    return tuple(PermGroup._closed(n, [perms[i] for i in known[K]],
                                   [perms[i] for i in _bits(K)])
                 for K in order)


def cyclic_quotient_chains(n):
    """All (A, G, generating coset reps) with G normal in A inside the
    symmetric group on n points and A/G cyclic.

    One representative per generating coset is returned, the first of
    its coset in sorted image order."""
    subgroups = all_subgroups_symmetric(n)
    perms, index, mul = _symmetric_table(n)
    inv = [row.index(0) for row in mul]
    masks = [sum(1 << index[p] for p in G.elements) for G in subgroups]
    gens = [[index[p] for p in G.generators] for G in subgroups]
    chains = []
    for A, A_mask, A_gens in zip(subgroups, masks, gens):
        for G, G_mask, G_gens in zip(subgroups, masks, gens):
            if G_mask & ~A_mask:
                continue
            # normal: conjugating G's generators by A's stays in G
            if not all(G_mask >> mul[mul[a][h]][inv[a]] & 1
                       for a in A_gens for h in G_gens):
                continue
            quotient = A.order // G.order
            G_elems = _bits(G_mask)
            reps = []
            covered = 0  # union of the cosets aG walked so far
            for a in _bits(A_mask):
                if covered >> a & 1:
                    continue
                row = mul[a]
                for g in G_elems:
                    covered |= 1 << row[g]
                power, order = a, 1
                while not G_mask >> power & 1:
                    power = mul[power][a]
                    order += 1
                if order == quotient:
                    reps.append(perms[a])
            if reps:
                chains.append((A, G, reps))
    return chains
