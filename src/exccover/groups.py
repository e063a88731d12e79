"""Permutation-group machinery for the orbit and fixed-point criteria.

Every group holds its explicit element set: the degrees in play are
tiny, so element sets are simplest and keep every computation
deterministic.  A group given by generators is built by breadth-first
closure over the generators' image tuples.  The subgroup catalog of S_n
instead indexes the n! elements once, multiplies through one table and
holds each subgroup as an int bitmask of element indices; it hands its
groups out as ordinary ``PermGroup``s.  The composition convention is
fixed once: (sigma * tau)(s) = sigma(tau(s)), right factor first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .config import DEFAULT_CONFIG
from .errors import CapExceeded, NotSubgroup, NotTransitive


class Perm:
    """A permutation of {0, .., deg-1} given by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a permutation")
        self.images = images

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

    @property
    def deg(self):
        return len(self.images)

    def __call__(self, s):
        return self.images[s]

    def __mul__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degrees differ")
        # apply the right factor first; a composition of two permutations
        # is one, so the result skips the check in __init__
        return _perm(tuple([a[s] for s in b]))

    def inverse(self):
        out = [0] * self.deg
        for s, t in enumerate(self.images):
            out[t] = s
        return _perm(tuple(out))

    def is_identity(self):
        return all(s == t for s, t in enumerate(self.images))

    def fixed_points(self):
        return [s for s, t in enumerate(self.images) if s == t]

    def cycle_type(self):
        """Sorted (ascending) partition of the degree by cycle lengths."""
        seen = [False] * self.deg
        lengths = []
        for s in range(self.deg):
            if seen[s]:
                continue
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = self.images[t]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def cycles(self):
        """Nontrivial cycles in canonical order."""
        seen = [False] * self.deg
        out = []
        for s in range(self.deg):
            if seen[s]:
                continue
            cyc = []
            t = s
            while not seen[t]:
                seen[t] = True
                cyc.append(t)
                t = self.images[t]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def _perm(images):
    """A Perm from an image tuple already known to be a permutation."""
    p = object.__new__(Perm)
    p.images = images
    return p


class PermGroup:
    """A permutation group materialized as its full element set."""

    __slots__ = ("deg", "generators", "elements")

    def __init__(self, deg, generators, config=DEFAULT_CONFIG):
        gens = tuple(generators)
        for g in gens:
            if g.deg != deg:
                raise ValueError("generator degree mismatch")
        # the closure runs on image tuples: c = g * a is c[s] = g[a[s]]
        images = [g.images for g in gens]
        elements = {tuple(range(deg))}
        frontier = [g for g in images if g not in elements]
        elements.update(frontier)
        while frontier:
            new = []
            for a in frontier:
                for g in images:
                    c = tuple([g[s] for s in a])
                    if c not in elements:
                        elements.add(c)
                        new.append(c)
                        if len(elements) > config.group_cap:
                            raise CapExceeded("group closure exceeds the cap")
            frontier = new
        self.deg = deg
        self.generators = gens
        self.elements = frozenset(map(_perm, elements))

    @classmethod
    def _closed(cls, deg, generators, elements):
        """A group whose element set is already known to be closed."""
        G = object.__new__(cls)
        G.deg = deg
        G.generators = tuple(generators)
        G.elements = frozenset(elements)
        return G

    @classmethod
    def symmetric(cls, deg, config=DEFAULT_CONFIG):
        if deg == 1:
            return cls(1, ())
        gens = [Perm.from_cycles(deg, [(0, 1)]),
                Perm.from_cycles(deg, [tuple(range(deg))])]
        return cls(deg, gens, config)

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
        """Orbit partition of the point set or of ordered pairs."""
        if action == "points":
            points = list(range(self.deg))
            act = lambda g, s: g(s)
        elif action == "ordered_pairs":
            points = [(s, t) for s in range(self.deg) for t in range(self.deg)]
            act = lambda g, st: (g(st[0]), g(st[1]))
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
        return out

    def is_transitive(self):
        return len(self.orbits("points")) == 1


def _fixed_count(perm, action):
    if action == "points":
        return len(perm.fixed_points())
    if action == "ordered_pairs":
        return len(perm.fixed_points()) ** 2
    raise ValueError(f"unknown action {action!r}")


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

    def coset(self):
        """The generating coset rep * G, built once per spec."""
        return self._coset

    @cached_property
    def _coset(self):
        return tuple(self.rep * g for g in self.normal.elements)

    def qualifying_reps(self):
        """All a' in A whose coset generates A/G: the cosets rep^j G with
        j prime to the index, since rep generates the cyclic quotient."""
        index = self.ambient.order // self.normal.order
        out = []
        power = self.rep
        for j in range(1, index + 1):
            if math.gcd(j, index) == 1:
                out.extend(power * g for g in self.normal.elements)
            power = power * self.rep
        return out


def coset_order(A, G, a):
    """Order of the coset aG in the quotient A/G."""
    power = a
    order = 1
    while power not in G.elements:
        power = power * a
        order += 1
    return order


def quotient_is_cyclic(A, G):
    index = A.order // G.order
    return any(coset_order(A, G, a) == index for a in A.elements)


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
    total = sum(_fixed_count(alpha, action) for alpha in spec.coset())
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

    @property
    def holds(self):
        return self.diagonal_only_common_orbit


def exceptionality_conditions(spec):
    """Evaluate the four orbit/fixed-point conditions by enumeration.

    Requires the normal subgroup to act transitively on points."""
    A, G = spec.ambient, spec.normal
    if not G.is_transitive():
        raise NotTransitive("the normal subgroup must be transitive on points")
    diagonal = frozenset((s, s) for s in range(A.deg))
    cond1 = _common_orbits(A, G, "ordered_pairs") == [diagonal]
    fixes = [len(x.fixed_points()) for x in spec.qualifying_reps()]
    cond2 = all(c == 1 for c in fixes)
    cond3 = all(c <= 1 for c in fixes)
    cond4 = all(c >= 1 for c in fixes)
    return ExceptionalityConditions(cond1, cond2, cond3, cond4)


def common_orbit_count(D, I, deg=None):
    """Number of D-orbits on points that are single I-orbits.

    With I trivial this is the number of fixed points of D."""
    if deg is not None and (D.deg != deg or I.deg != deg):
        raise ValueError("degree mismatch")
    if not I <= D:
        raise NotSubgroup("I must be a subgroup of D")
    return len(_common_orbits(D, I, "points"))


def cycle_type_histogram(spec):
    """Exact cycle-type frequencies over the generating coset."""
    counts = {}
    for alpha in spec.coset():
        ct = alpha.cycle_type()
        counts[ct] = counts.get(ct, 0) + 1
    total = spec.normal.order
    return {ct: Fraction(c, total) for ct, c in sorted(counts.items())}


# ---------------------------------------------------------------------------
# Exhaustive subgroup catalog for the lemma sweeps.  The n! elements of S_n
# are indexed in sorted image order (identity first), products go through
# one multiplication table, and a subgroup is the int bitmask of its
# element indices.


def _symmetric_table(n):
    """(perms, index, mul): the elements of S_n in sorted image order,
    the index of each image tuple, and mul[i][j], the index of
    perms[i] * perms[j]."""
    images = list(itertools.permutations(range(n)))
    index = {im: i for i, im in enumerate(images)}
    mul = [[index[tuple([a[s] for s in b])] for b in images]
           for a in images]
    return [_perm(im) for im in images], index, mul


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

    Neubüser's cyclic-extension method: starting from the trivial group,
    each subgroup found is joined with one generator of every cyclic
    subgroup it does not contain, until no join is new.  The (n!)^2
    multiplication table must fit the enumeration cap, so n <= 6."""
    size = math.factorial(n)
    if size * size > DEFAULT_CONFIG.enumeration_cap:
        raise CapExceeded(
            f"the multiplication table of S_{n} has {size}^2 entries, "
            f"over the enumeration cap {DEFAULT_CONFIG.enumeration_cap}")
    perms, _, mul = _symmetric_table(n)
    cyclic = {}  # mask of <g> -> the first g generating it
    for g in range(size):
        mask, power = 1, g
        while power:
            mask |= 1 << power
            power = mul[power][g]
        cyclic.setdefault(mask, g)
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
    masks = [sum(1 << index[p.images] for p in G.elements) for G in subgroups]
    gens = [[index[p.images] for p in G.generators] for G in subgroups]
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
