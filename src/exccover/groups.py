"""Permutation-group machinery for the orbit and fixed-point criteria.

Groups are materialized by breadth-first closure over their generators:
the degrees in play are tiny, so explicit element sets are simplest and
keep every computation deterministic.  The composition convention is
fixed once: (sigma * tau)(s) = sigma(tau(s)), right factor first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
        if other.deg != self.deg:
            raise ValueError("degrees differ")
        # apply the right factor first
        return Perm(tuple(self.images[other.images[s]] for s in range(self.deg)))

    def inverse(self):
        out = [0] * self.deg
        for s, t in enumerate(self.images):
            out[t] = s
        return Perm(out)

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


class PermGroup:
    """A permutation group materialized as its full element set."""

    __slots__ = ("deg", "generators", "elements")

    def __init__(self, deg, generators, config=DEFAULT_CONFIG):
        gens = tuple(generators)
        for g in gens:
            if g.deg != deg:
                raise ValueError("generator degree mismatch")
        elements = {Perm.identity(deg)}
        frontier = [g for g in gens if g not in elements]
        elements.update(frontier)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = g * a
                    if c not in elements:
                        elements.add(c)
                        new.append(c)
                        if len(elements) > config.group_cap:
                            raise CapExceeded("group closure exceeds the cap")
            frontier = new
        self.deg = deg
        self.generators = gens
        self.elements = frozenset(elements)

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
                    for g in self.generators or [Perm.identity(self.deg)]:
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
        return [self.rep * g for g in self.normal.elements]

    def qualifying_reps(self):
        """All a' in A whose coset generates A/G."""
        A, G = self.ambient, self.normal
        index = A.order // G.order
        return [x for x in A.elements if coset_order(A, G, x) == index]


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


def fixed_point_identity(spec, action="points"):
    """(lhs, rhs): the number of ambient orbits that are single
    normal-subgroup orbits, and the average fixed-point count over the
    generating coset.  The two agree exactly; rhs is an exact rational.
    """
    A, G = spec.ambient, spec.normal
    a_orbits = A.orbits(action)
    g_orbits = set(G.orbits(action))
    lhs = sum(1 for orb in a_orbits if orb in g_orbits)
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
    a_orbits = A.orbits("ordered_pairs")
    g_orbits = set(G.orbits("ordered_pairs"))
    common = [orb for orb in a_orbits if orb in g_orbits]
    cond1 = common == [diagonal] or (len(common) == 1 and common[0] == diagonal)
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
    d_orbits = D.orbits("points")
    i_orbits = set(I.orbits("points"))
    return sum(1 for orb in d_orbits if orb in i_orbits)


def cycle_type_histogram(spec):
    """Exact cycle-type frequencies over the generating coset."""
    counts = {}
    for alpha in spec.coset():
        ct = alpha.cycle_type()
        counts[ct] = counts.get(ct, 0) + 1
    total = spec.normal.order
    return {ct: Fraction(c, total) for ct, c in sorted(counts.items())}


# ---------------------------------------------------------------------------
# Exhaustive subgroup catalog for the lemma sweeps.


@lru_cache(maxsize=None)
def all_subgroups_symmetric(n):
    """Every subgroup of the symmetric group on n points (not just up to
    conjugacy), generated internally by closure of element subsets."""
    sym = PermGroup.symmetric(n)
    all_elements = sorted(sym.elements, key=lambda p: p.images)
    trivial = PermGroup(n, ())
    known = {trivial.elements: trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in all_elements:
                if g in H.elements:
                    continue
                K = PermGroup(n, tuple(H.generators) + (g,))
                if K.elements not in known:
                    known[K.elements] = K
                    new.append(K)
        frontier = new
    return tuple(sorted(known.values(),
                        key=lambda G: (G.order,
                                       sorted(p.images for p in G.elements))))


def cyclic_quotient_chains(n):
    """All (A, G, generating coset reps) with G normal in A inside the
    symmetric group on n points and A/G cyclic.

    One representative per generating coset is returned."""
    subgroups = all_subgroups_symmetric(n)
    chains = []
    for A in subgroups:
        inner = [G for G in subgroups if G <= A]
        for G in inner:
            if not G.is_normal_in(A):
                continue
            index = A.order // G.order
            reps = []
            seen_cosets = set()
            for a in sorted(A.elements, key=lambda p: p.images):
                coset = frozenset(a * g for g in G.elements)
                if coset in seen_cosets:
                    continue
                seen_cosets.add(coset)
                if coset_order(A, G, a) == index:
                    reps.append(a)
            if reps:
                chains.append((A, G, reps))
    return chains
