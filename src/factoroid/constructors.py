"""Builders for the standard groupoid families.

Everything here produces validated :class:`MeasuredGroupoid` instances with
plain string identifiers: group bundles, groupoids of partial actions (a
transformation groupoid of a global action is the full-domain case, built by
the same code), globalizations of partial actions, eventually-periodic shift
systems, the symmetric-group bundle family, the named example instances, and
a seeded random generator used by the verification corpus.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .cocycle import Cocycle, Phase, apply_coboundary, as_complex, pone, validate_cocycle
from .groupoid import (
    GroupoidError,
    MeasuredGroupoid,
    check_isomorphism,
    validate_groupoid,
)


class InvalidPartialAction(GroupoidError):
    pass


# -- finite group tables -----------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as explicit multiplication and inversion tables."""

    name: str
    elements: tuple[str, ...]
    mult: dict[tuple[str, str], str]
    inverse: dict[str, str]
    identity: str

    def conjugacy_classes(self) -> list[frozenset[str]]:
        """Brute-force conjugacy classes, in first-element order."""
        seen: set[str] = set()
        classes = []
        for a in self.elements:
            if a in seen:
                continue
            cls = {
                self.mult[(self.mult[(h, a)], self.inverse[h])]
                for h in self.elements
            }
            classes.append(frozenset(cls))
            seen |= cls
        return classes


def cyclic_group(n: int) -> FiniteGroupTable:
    elems = tuple(str(i) for i in range(n))
    mult = {
        (str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)
    }
    inv = {str(i): str((-i) % n) for i in range(n)}
    return FiniteGroupTable(f"Z{n}", elems, mult, inv, "0")


def _perm_label(p: tuple[int, ...]) -> str:
    return "".join(str(i) for i in p)


def _group_from_perms(name: str, perms: Iterable[tuple[int, ...]]) -> FiniteGroupTable:
    """The group of the permutations, sorted, pq running q first; products
    are found by their mixed-radix codes, which sort as the tuples do."""
    perms = sorted(set(perms))
    label = [_perm_label(p) for p in perms]
    table = np.array(perms, dtype=np.intp)
    d = table.shape[1]
    radix = d ** np.arange(d - 1, -1, -1)

    def element(rows: np.ndarray) -> list[str]:
        at = np.searchsorted(table @ radix, rows @ radix)
        return list(map(label.__getitem__, at.ravel().tolist()))

    mult = dict(zip(itertools.product(label, label), element(table[:, table])))
    inv = dict(zip(label, element(np.argsort(table, axis=1))))
    return FiniteGroupTable(name, tuple(label), mult, inv, _perm_label(tuple(range(d))))


def symmetric_group(n: int) -> FiniteGroupTable:
    return _group_from_perms(f"S{n}", itertools.permutations(range(n)))


def dihedral_group(n: int) -> FiniteGroupTable:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    perms = set()
    frontier = [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        if p in perms:
            continue
        perms.add(p)
        for gen in (rot, ref):
            frontier.append(tuple(gen[p[i]] for i in range(n)))
    return _group_from_perms(f"D{n}", perms)


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    elems = tuple(f"{x}.{y}" for x in a.elements for y in b.elements)
    mult = {}
    inv = {}
    for x1 in a.elements:
        for y1 in b.elements:
            inv[f"{x1}.{y1}"] = f"{a.inverse[x1]}.{b.inverse[y1]}"
            for x2 in a.elements:
                for y2 in b.elements:
                    mult[(f"{x1}.{y1}", f"{x2}.{y2}")] = (
                        f"{a.mult[(x1, x2)]}.{b.mult[(y1, y2)]}"
                    )
    return FiniteGroupTable(
        f"{a.name}x{b.name}", elems, mult, inv,
        f"{a.identity}.{b.identity}",
    )


def klein_four_group() -> FiniteGroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2))


# -- direct constructions ----------------------------------------------------

def full_relation(units: Sequence[str], mass: Mapping[str, float], **kw) -> MeasuredGroupoid:
    """The principal groupoid connecting every pair of units."""
    def aid(x: str, y: str) -> str:
        return f"r|{x}|{y}"  # arrow from y to x

    arrows = [(aid(x, y), y, x) for x in units for y in units]
    compose = [
        c for x in units for y in units for z in units
        for c in (aid(x, y), aid(y, z), aid(x, z))
    ]
    inverse = {aid(x, y): aid(y, x) for x in units for y in units}
    unit_arrows = {u: aid(u, u) for u in units}
    return validate_groupoid(
        MeasuredGroupoid(units, mass, arrows, compose, inverse, unit_arrows, **kw)
    )


def group_bundle(
    fibers: Mapping[str, FiniteGroupTable],
    mass: Mapping[str, float],
    units: Optional[Sequence[str]] = None,
    **kw,
) -> MeasuredGroupoid:
    """Disjoint union of groups sitting over the units; all arrows are loops."""
    units = tuple(units) if units is not None else tuple(fibers)
    arrows = []
    compose = []
    inverse = {}
    unit_arrows = {}
    for x in units:
        tab = fibers[x]
        name = {gm: f"{x}.{gm}" for gm in tab.elements}
        arrows.extend((name[gm], x, x) for gm in tab.elements)
        for g1 in tab.elements:
            inverse[name[g1]] = name[tab.inverse[g1]]
            for g2 in tab.elements:
                compose += (name[g1], name[g2], name[tab.mult[(g1, g2)]])
        unit_arrows[x] = name[tab.identity]
    return validate_groupoid(
        MeasuredGroupoid(units, mass, arrows, compose, inverse, unit_arrows, **kw)
    )


def group_groupoid(table: FiniteGroupTable, unit: str = "pt", **kw) -> MeasuredGroupoid:
    """A group as a one-unit groupoid with full mass."""
    return group_bundle({unit: table}, {unit: 1.0}, **kw)


def transformation_groupoid(
    group: FiniteGroupTable,
    action: Mapping[tuple[str, str], str],
    units: Sequence[str],
    mass: Mapping[str, float],
    **kw,
) -> MeasuredGroupoid:
    """Arrows (g, x) from x to g.x, composing as (g, h.x)(h, x) = (gh, x): the
    full-domain partial action, so a non-action raises InvalidPartialAction."""
    return partial_action_groupoid(global_partial_action(group, action, units, mass), **kw)


def translation_action(group: FiniteGroupTable) -> dict[tuple[str, str], str]:
    return {(g1, g2): group.mult[(g1, g2)] for g1 in group.elements for g2 in group.elements}


@dataclass(frozen=True)
class InducedActionWitness:
    """Why a transformation groupoid fails the conjugacy-class condition.

    ``finite_class`` is a finite conjugation-stable set C of nontrivial group
    elements, each acting trivially on the units in ``invariant_units`` (Y);
    ``subgroup`` is the stabilizer H = {h : h C h^-1 = C}, under which Y is
    invariant.  For ergodic actions this exhibits the action as induced from
    H acting on Y with a finite class inside H.
    """

    subgroup: tuple[str, ...]
    invariant_units: tuple[str, ...]
    finite_class: tuple[str, ...]


def induced_action_diagnostic(
    group: FiniteGroupTable,
    action: Mapping[tuple[str, str], str],
    units: Sequence[str],
    mass: Mapping[str, float],
) -> Optional[InducedActionWitness]:
    """Extract (H, Y, C) from a failed conjugacy-class condition, or None.

    Builds the fiberwise sets F(x) = {g : the loop (g, x) lies in the closure
    of a witness class}, picks the canonical finite value C attained with
    positive mass, and returns it with Y = {x : F(x) = C} and the stabilizer
    subgroup of C.
    """
    from .conjugacy import conjugacy_class, is_icc

    g = transformation_groupoid(group, action, units, mass)
    verdict = is_icc(g)
    if verdict.icc:
        return None
    first = g.sort_arrows(verdict.witness)[0]
    omega = conjugacy_class(g, [first]).omega
    fiber: dict[str, frozenset[str]] = {}
    for x in units:
        fiber[x] = frozenset(
            gm for gm in group.elements
            if gm != group.identity and f"{gm}|{x}" in omega
        )
    candidates = sorted(
        {
            c
            for x, c in fiber.items()
            if c and mass[x] > 0.0
        },
        key=lambda c: (len(c), tuple(sorted(c))),
    )
    assert candidates, "non-icc witness must meet a positive fiber"
    finite_class = candidates[0]
    invariant_units = tuple(x for x in units if fiber[x] == finite_class)
    subgroup = tuple(
        h for h in group.elements
        if frozenset(
            group.mult[(group.mult[(h, c)], group.inverse[h])]
            for c in finite_class
        ) == finite_class
    )
    for c in finite_class:
        assert c in subgroup
        for y in invariant_units:
            assert action[(c, y)] == y
    for h in subgroup:
        for y in invariant_units:
            assert action[(h, y)] in invariant_units
    return InducedActionWitness(
        subgroup=subgroup,
        invariant_units=invariant_units,
        finite_class=tuple(sorted(finite_class)),
    )


def coset_action(
    group: FiniteGroupTable, subgroup: Iterable[str]
) -> tuple[dict[tuple[str, str], str], tuple[str, ...]]:
    """Left translation on left cosets gH; returns (action, coset labels)."""
    sub = sorted(set(subgroup), key=group.elements.index)
    cosets: dict[str, tuple[str, ...]] = {}
    for gm in group.elements:
        coset = tuple(sorted((group.mult[(gm, h)] for h in sub),
                             key=group.elements.index))
        cosets.setdefault(coset[0], coset)
    labels = {coset: f"c{rep}" for rep, coset in cosets.items()}
    member_to_label = {}
    for coset, lab in labels.items():
        for gm in coset:
            member_to_label[gm] = lab
    action = {}
    for gm in group.elements:
        for rep, coset in cosets.items():
            action[(gm, labels[coset])] = member_to_label[group.mult[(gm, rep)]]
    return action, tuple(labels[c] for c in cosets.values())


# -- cocycles of group origin -----------------------------------------------

def pullback_group_cocycle(
    g: MeasuredGroupoid,
    group_of_arrow: Mapping[str, str],
    c: Mapping[tuple[str, str], Phase],
) -> list[Phase]:
    """Lift a group 2-cocycle through an arrow -> group-element labelling:
    one phase per composable pair, in the order of ``g.pairs``."""
    label = [group_of_arrow[a] for a in g.arrow_order]
    pairs = zip(g.pairs.left.tolist(), g.pairs.right.tolist())
    return [c[(label[a], label[b])] for a, b in pairs]


def klein_bicharacter(exact: bool = False) -> dict[tuple[str, str], Phase]:
    """The anticommuting phase on the Klein four-group: -1 exactly when the
    first factor has second coordinate 1 and the second has first coordinate 1."""
    table = klein_four_group()
    minus: Phase = Fraction(1, 2) if exact else complex(-1.0)
    plus: Phase = pone(exact)
    vals: dict[tuple[str, str], Phase] = {}
    for x in table.elements:
        for y in table.elements:
            x2 = x.split(".")[1]
            y1 = y.split(".")[0]
            vals[(x, y)] = minus if (x2 == "1" and y1 == "1") else plus
    return vals


def cyclic_bicharacter(n: int, exact: bool = False) -> dict[tuple[str, str], Phase]:
    """The bicharacter (a, b) -> exp(2 pi i a b / n) on the cyclic group."""
    vals: dict[tuple[str, str], Phase] = {}
    for a in range(n):
        for b in range(n):
            turn = Fraction(a * b, n) % 1
            vals[(str(a), str(b))] = turn if exact else as_complex(turn)
    return vals


def klein_four_twisted(exact: bool = False) -> tuple[MeasuredGroupoid, Cocycle]:
    """The one-unit Klein four groupoid with its anticommuting twist."""
    table = klein_four_group()
    g = group_groupoid(table)
    labels = {f"pt.{gm}": gm for gm in table.elements}
    vals = pullback_group_cocycle(g, labels, klein_bicharacter(exact))
    return g, validate_cocycle(g, vals, exact=exact)


# -- partial actions ----------------------------------------------------------

@dataclass(frozen=True)
class PartialActionSystem:
    """Domains X_g and partial bijections sigma_g : X_{g^-1} -> X_g.

    The partial-action axioms are checked on construction, so every instance
    is valid; an invalid one raises :class:`InvalidPartialAction`.
    """

    group: FiniteGroupTable
    units: tuple[str, ...]
    mass: dict[str, float]
    domains: dict[str, frozenset[str]]
    maps: dict[str, dict[str, str]]  # g -> {x in X_{g^-1}: sigma_g(x)}

    def __post_init__(self) -> None:
        grp = self.group
        unit_set = set(self.units)
        for gm in grp.elements:
            if gm not in self.domains or gm not in self.maps:
                raise InvalidPartialAction(f"missing domain or map for {gm}")
            if not self.domains[gm] <= unit_set:
                raise InvalidPartialAction(f"domain of {gm} leaves the space")
        if self.domains[grp.identity] != frozenset(unit_set):
            raise InvalidPartialAction("identity must be defined everywhere")
        for gm in grp.elements:
            dom = self.domains[grp.inverse[gm]]
            mp = self.maps[gm]
            if set(mp) != set(dom):
                raise InvalidPartialAction(
                    f"map of {gm} not defined exactly on the inverse domain"
                )
            if set(mp.values()) != set(self.domains[gm]):
                raise InvalidPartialAction(f"map of {gm} is not onto its domain")
            if len(set(mp.values())) != len(mp):
                raise InvalidPartialAction(f"map of {gm} is not injective")
        for x in self.units:
            if self.maps[grp.identity][x] != x:
                raise InvalidPartialAction("identity map must fix every unit")
        for gm in grp.elements:
            inv = grp.inverse[gm]
            for x, y in self.maps[gm].items():
                if self.maps[inv].get(y) != x:
                    raise InvalidPartialAction(
                        f"map of {inv} is not inverse to map of {gm}", [x]
                    )
        for g1 in grp.elements:
            for g2 in grp.elements:
                g12 = grp.mult[(g1, g2)]
                for x, z in self.maps[g2].items():
                    if z in self.maps[g1]:
                        y = self.maps[g1][z]
                        if self.maps[g12].get(x) != y:
                            raise InvalidPartialAction(
                                f"composition of {g1}, {g2} leaves graph of {g12}",
                                [x],
                            )

    def fix(self, gm: str) -> frozenset[str]:
        return frozenset(
            x for x, y in self.maps[gm].items() if x == y
        )


def global_partial_action(
    group: FiniteGroupTable,
    action: Mapping[tuple[str, str], str],
    units: Sequence[str],
    mass: Mapping[str, float],
) -> PartialActionSystem:
    """Wrap a global action as a partial action with full domains."""
    units = tuple(units)
    domains = {gm: frozenset(units) for gm in group.elements}
    maps = {
        gm: {x: action[(gm, x)] for x in units} for gm in group.elements
    }
    return PartialActionSystem(group, units, dict(mass), domains, maps)


def partial_action_groupoid(p: PartialActionSystem, **kw) -> MeasuredGroupoid:
    """Arrows (g, x) for x in the inverse domain of g, from x to sigma_g(x)."""
    grp = p.group

    def aid(gm: str, x: str) -> str:
        return f"{gm}|{x}"

    arrows = []
    for gm in grp.elements:
        for x in sorted(p.maps[gm], key=p.units.index):
            arrows.append((aid(gm, x), x, p.maps[gm][x]))
    compose = []
    inverse = {}
    for gm in grp.elements:
        for x, y in p.maps[gm].items():
            inverse[aid(gm, x)] = aid(grp.inverse[gm], y)
            for g2 in grp.elements:
                if y in p.maps[g2]:
                    compose += (aid(g2, y), aid(gm, x), aid(grp.mult[(g2, gm)], x))
    unit_arrows = {x: aid(grp.identity, x) for x in p.units}
    return validate_groupoid(
        MeasuredGroupoid(p.units, p.mass, arrows, compose, inverse, unit_arrows, **kw)
    )


def restrict_partial(p: PartialActionSystem, keep: Iterable[str]) -> PartialActionSystem:
    """Restrict a partial action to a unit subset (renormalizing mass).

    The groupoid of the restriction equals the restriction of the groupoid,
    which is verified arrow-for-arrow before returning.
    """
    keep_set = set(keep)
    if not keep_set:
        raise InvalidPartialAction("restriction to an empty subset")
    units = tuple(u for u in p.units if u in keep_set)
    total = math.fsum(p.mass[u] for u in units)
    if total <= 0.0:
        raise InvalidPartialAction("restriction carries zero mass")
    domains = {}
    maps = {}
    for gm in p.group.elements:
        inv = p.group.inverse[gm]
        dom = frozenset(
            x for x in p.domains[gm]
            if x in keep_set and p.maps[inv][x] in keep_set
        )
        domains[gm] = dom
        maps[gm] = {
            x: y for x, y in p.maps[gm].items()
            if x in keep_set and y in keep_set
        }
    restricted = PartialActionSystem(
        p.group, units, {u: p.mass[u] / total for u in units}, domains, maps
    )

    lhs = partial_action_groupoid(restricted)
    rhs, _ = partial_action_groupoid(p).restrict(units)
    if not check_isomorphism(
        lhs, rhs,
        {u: u for u in units},
        {a: a for a in lhs.arrow_order},
        check_mass=True,
    ):
        raise InvalidPartialAction(
            "restricted action groupoid differs from restricted groupoid"
        )
    return restricted


@dataclass(frozen=True)
class Globalization:
    """A global action extending a partial one, with its verification data."""

    groupoid: MeasuredGroupoid            # transformation groupoid of theta
    group: FiniteGroupTable
    space_units: tuple[str, ...]          # quotient classes
    embedding: dict[str, str]             # original unit -> class unit
    fundamental_domain: tuple[tuple[str, str], ...]
    arrow_bijection: dict[str, str]       # partial-action arrow -> global arrow
    restriction_isomorphic: bool
    embedded_full: bool


def globalize(p: PartialActionSystem) -> Globalization:
    """Embed a partial action in a global one on the orbit quotient.

    Pairs (g, x) are glued by (g, x) ~ (h, y) when sigma_{h^-1 g}(x) = y with
    x in the domain of g^-1 h; the enumeration-greedy fundamental domain
    picks one representative per class, and the group translates the first
    coordinate.  The embedded copy of the original space is checked to be
    full and to restrict back to the original groupoid.
    """
    grp = p.group
    order = [grp.identity] + [e for e in grp.elements if e != grp.identity]

    pairs = [(gm, x) for gm in order for x in p.units]
    parent: dict[tuple[str, str], tuple[str, str]] = {q: q for q in pairs}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(q1, q2):
        r1, r2 = find(q1), find(q2)
        if r1 != r2:
            parent[r2] = r1

    for gm, x in pairs:
        for hm in order:
            step = grp.mult[(grp.inverse[hm], gm)]
            if x in p.maps[step]:
                union((gm, x), (hm, p.maps[step][x]))

    # enumeration-greedy fundamental domain: (g_n, x) is kept when x avoids
    # every domain X_{g_n^-1 g_k} with k < n
    domain: list[tuple[str, str]] = []
    for n, gm in enumerate(order):
        blocked: set[str] = set()
        for k in range(n):
            blocked |= p.domains[grp.mult[(grp.inverse[gm], order[k])]]
        for x in p.units:
            if x not in blocked:
                domain.append((gm, x))
    rep_of_class: dict[tuple[str, str], tuple[str, str]] = {}
    for q in domain:
        root = find(q)
        if root in rep_of_class:
            raise InvalidPartialAction(
                "fundamental domain hits a class twice; invalid partial action"
            )
        rep_of_class[root] = q
    for q in pairs:
        if find(q) not in rep_of_class:
            raise InvalidPartialAction(
                "fundamental domain misses a class; invalid partial action"
            )

    def label(q: tuple[str, str]) -> str:
        gm, x = rep_of_class[find(q)]
        return f"{gm}~{x}"

    space_units = tuple(label(q) for q in domain)

    theta: dict[tuple[str, str], str] = {}
    for gm in grp.elements:
        for hm, x in domain:
            theta[(gm, label((hm, x)))] = label((grp.mult[(gm, hm)], x))

    total = math.fsum(p.mass[x] for _, x in domain)
    if total <= 0.0:
        raise InvalidPartialAction("globalization needs positive total mass")
    mass = {label(q): p.mass[q[1]] / total for q in domain}

    glob = transformation_groupoid(grp, theta, space_units, mass)
    embedding = {x: label((grp.identity, x)) for x in p.units}
    if len(set(embedding.values())) != len(p.units):
        raise InvalidPartialAction("embedding of the original space collapsed")

    fullness = glob.is_full(set(embedding.values()))
    original = partial_action_groupoid(p)
    restricted, _ = glob.restrict(sorted(set(embedding.values()),
                                         key=space_units.index))
    arrow_bij = {}
    for gm in grp.elements:
        for x in p.maps[gm]:
            arrow_bij[f"{gm}|{x}"] = f"{gm}|{embedding[x]}"
    iso = check_isomorphism(
        original, restricted, dict(embedding), arrow_bij,
        check_mass=True,
    )
    if not (fullness.borel_full and iso):
        raise InvalidPartialAction(
            "globalization postconditions failed "
            f"(full={fullness.borel_full}, isomorphic={iso})"
        )
    return Globalization(
        groupoid=glob,
        group=grp,
        space_units=space_units,
        embedding=embedding,
        fundamental_domain=tuple(domain),
        arrow_bijection=arrow_bij,
        restriction_isomorphic=iso,
        embedded_full=fullness.borel_full,
    )


def half_domain_fixture() -> PartialActionSystem:
    """Z/2 acting on two points with the flip defined only at the first."""
    grp = cyclic_group(2)
    units = ("y0", "y1")
    domains = {
        "0": frozenset(units),
        "1": frozenset({"y0"}),
    }
    maps = {
        "0": {"y0": "y0", "y1": "y1"},
        "1": {"y0": "y0"},
    }
    return PartialActionSystem(grp, units, {"y0": 0.5, "y1": 0.5}, domains, maps)


def random_partial_action(seed: int) -> PartialActionSystem:
    """Deterministic random partial action with nontrivial domains.

    Built as the restriction of a random global action (translation or coset
    translation) to a random positive subset, which is always a valid
    partial action.
    """
    rng = random.Random(f"partial-{seed}")
    grp = _small_group(rng.choice(["Z2", "Z3", "Z4", "V4", "S3"]))
    if rng.random() < 0.5:
        action, units = translation_action(grp), grp.elements
    else:
        action, units = _random_coset_action(rng, grp)
    mass = _random_masses(rng, units)
    full = global_partial_action(grp, action, units, mass)
    if len(units) >= 2 and rng.random() < 0.8:
        k = rng.randint(1, len(units) - 1)
        keep = rng.sample(list(units), k)
        return restrict_partial(full, keep)
    return full


# -- eventually periodic shift systems ----------------------------------------

@dataclass(frozen=True)
class DeaconuRenaultSystem:
    units: tuple[str, ...]
    mass: dict[str, float]
    sigma: dict[str, str]
    bound: int = 3


@dataclass(frozen=True)
class ShiftOrbitData:
    """Tail lengths, cycle ids and cycle phases of the iteration graph."""

    tail: dict[str, int]
    period: dict[str, int]
    cycle_id: dict[str, int]
    phase: dict[str, int]

    def connects(self, x: str, k: int, y: str) -> bool:
        """Whether some sigma^n x = sigma^m y with n - m = k."""
        if self.cycle_id[x] != self.cycle_id[y]:
            return False
        return (k - (self.phase[y] - self.phase[x])) % self.period[x] == 0


def _shift_orbit_data(d: DeaconuRenaultSystem) -> ShiftOrbitData:
    tail: dict[str, int] = {}
    period: dict[str, int] = {}
    cycle_id: dict[str, int] = {}
    phase: dict[str, int] = {}
    cycles: list[tuple[str, ...]] = []
    for x in d.units:
        path = [x]
        seen = {x: 0}
        y = x
        while True:
            y = d.sigma[y]
            if y in seen:
                entry = seen[y]
                cyc = tuple(path[entry:])
                for known_i, known in enumerate(cycles):
                    if set(known) == set(cyc):
                        cid = known_i
                        cyc = known
                        break
                else:
                    cid = len(cycles)
                    cycles.append(cyc)
                for i, z in enumerate(path):
                    if z in tail:
                        continue
                    t = max(0, entry - i)
                    tail[z] = t
                    period[z] = len(cyc)
                    cycle_id[z] = cid
                    # position on the cycle of sigma^tail(z), counted in the
                    # cycle's stored orientation
                    pos = cyc.index(path[min(i + t, len(path) - 1)] if i + t < len(path) else y)
                    phase[z] = (pos - t) % len(cyc)
                break
            seen[y] = len(path)
            path.append(y)
    return ShiftOrbitData(tail, period, cycle_id, phase)


@dataclass(frozen=True)
class DeaconuRenaultView:
    """Arrows (x, k, y) with sigma^n x = sigma^m y, n - m = k, |k| <= bound."""

    system: DeaconuRenaultSystem
    orbit_data: ShiftOrbitData
    arrows: tuple[tuple[str, int, str], ...]
    b_sets: dict[int, frozenset[str]]   # n -> units with a loop of degree n
    b_measure: dict[int, float]

    def contains(self, x: str, k: int, y: str) -> bool:
        return self.orbit_data.connects(x, k, y)

    def brute_force_contains(self, x: str, k: int, y: str) -> bool:
        """Witness search for sigma^n x = sigma^m y with n - m = k."""
        horizon = 2 * len(self.system.units) + abs(k) + 1
        for n in range(0, horizon + 1):
            m = n - k
            if m < 0:
                continue
            zx, zy = x, y
            for _ in range(n):
                zx = self.system.sigma[zx]
            for _ in range(m):
                zy = self.system.sigma[zy]
            if zx == zy:
                return True
        return False


def deaconu_renault(d: DeaconuRenaultSystem) -> DeaconuRenaultView:
    """Enumerate the shift groupoid up to degree |k| <= bound.

    Membership of (x, k, y) is decided exactly: the forward orbits of x and y
    must fall into the same cycle and k must match the difference of their
    cycle phases modulo the period.  Loop sets are enumerated for every
    degree up to max(bound, number of units), which suffices to see a loop of
    minimal positive degree at every unit.
    """
    if d.bound < 1:
        raise GroupoidError("degree bound must be >= 1")
    stray = sorted(set(d.sigma.values()) - set(d.units))
    if stray:
        raise GroupoidError(f"shift map targets non-units {', '.join(stray)}", stray)
    unweighted = [u for u in d.units if u not in d.mass]
    if unweighted:
        raise GroupoidError(f"no mass for {', '.join(unweighted)}", unweighted)
    for u in d.units:
        if not 0.0 <= d.mass[u] < math.inf:
            raise GroupoidError(
                f"mass at unit {u!r} must be finite and nonnegative, got {d.mass[u]!r}",
                [u],
            )
    od = _shift_orbit_data(d)
    arrows = [
        (x, k, y)
        for k in range(-d.bound, d.bound + 1)
        for x in d.units
        for y in d.units
        if od.connects(x, k, y)
    ]
    scan = max(d.bound, len(d.units))
    b_sets = {}
    b_measure = {}
    for n in range(-scan, scan + 1):
        members = frozenset(x for x in d.units if n % od.period[x] == 0)
        b_sets[n] = members
        b_measure[n] = math.fsum(d.mass[x] for x in members)
    return DeaconuRenaultView(d, od, tuple(arrows), b_sets, b_measure)


def random_shift_system(seed: int, size: int = 6, bound: int = 3) -> DeaconuRenaultSystem:
    rng = random.Random(f"shift-{seed}")
    units = tuple(f"x{i}" for i in range(size))
    sigma = {u: rng.choice(units) for u in units}
    return DeaconuRenaultSystem(units, _random_masses(rng, units), sigma, bound)


@dataclass(frozen=True)
class EssentialFreenessReport:
    free: bool
    note: str


def essentially_free(d: DeaconuRenaultSystem) -> EssentialFreenessReport:
    """Exact essential-freeness decision for a finite shift system.

    On a finite space every forward orbit is eventually periodic, so the
    recurrent set is everything and the map is essentially free only in the
    degenerate case of an all-null measure.
    """
    deaconu_renault(d)  # rejects stray targets and missing or bad masses
    return EssentialFreenessReport(
        free=math.fsum(d.mass[x] for x in d.units) <= 0.0,
        note=(
            "every point of a finite space is eventually periodic; "
            "essential freeness forces an all-null measure"
        ),
    )


# -- the symmetric-group bundle family ----------------------------------------

def sn_bundle(n_max: int) -> tuple[MeasuredGroupoid, frozenset[str]]:
    """Bundle of symmetric groups S_2..S_n with weights 2^-n / C(n,2).

    Weights are renormalized over the truncation.  Also returns the bisection
    collecting the transposition (0 1) of every fiber, whose conjugation
    closure needs C(n,2) bisections at level n.
    """
    if n_max < 2:
        raise GroupoidError("the bundle starts at S_2")
    units = tuple(f"n{n}" for n in range(2, n_max + 1))
    raw = {f"n{n}": 2.0 ** (-n) / math.comb(n, 2) for n in range(2, n_max + 1)}
    total = math.fsum(raw.values())
    mass = {u: v / total for u, v in raw.items()}
    fibers = {f"n{n}": symmetric_group(n) for n in range(2, n_max + 1)}
    g = group_bundle(fibers, mass, units)
    transpositions = frozenset(
        f"n{n}." + _perm_label((1, 0) + tuple(range(2, n)))
        for n in range(2, n_max + 1)
    )
    return g, transpositions


# -- named instances ------------------------------------------------------------

def _uniform_translation(group: FiniteGroupTable) -> MeasuredGroupoid:
    units = group.elements
    return transformation_groupoid(
        group, translation_action(group), units, {u: 1 / len(units) for u in units}
    )


_SWAP_ACTION = {
    ("0", "x0"): "x0", ("0", "x1"): "x1", ("1", "x0"): "x1", ("1", "x1"): "x0",
}
_HALVES = {"x0": 0.5, "x1": 0.5}
_THIRDS = {u: 1 / 3 for u in ("x0", "x1", "x2")}

# name -> builder of (groupoid, cocycle or None); shared by `factoroid gen`
# and the test fixtures.  The translation groupoids of S4, S4 x Z2 and S5
# (576, 2,304 and 14,400 arrows) are the size ladder of the reports
NAMED_INSTANCES: dict[
    str, Callable[[], tuple[MeasuredGroupoid, Optional[Cocycle]]]
] = {
    "z2": lambda: (group_groupoid(cyclic_group(2)), None),
    "z3": lambda: (group_groupoid(cyclic_group(3)), None),
    "full2": lambda: (full_relation(list(_HALVES), _HALVES), None),
    "full3": lambda: (full_relation(list(_THIRDS), _THIRDS), None),
    "klein4": lambda: (group_groupoid(klein_four_group()), None),
    "klein4-twisted": klein_four_twisted,
    "s3-bundle": lambda: (group_bundle({"pt": symmetric_group(3)}, {"pt": 1.0}), None),
    "swap": lambda: (
        transformation_groupoid(cyclic_group(2), _SWAP_ACTION, list(_HALVES), _HALVES),
        None,
    ),
    "z4-translation": lambda: (_uniform_translation(cyclic_group(4)), None),
    "s4-translation": lambda: (_uniform_translation(symmetric_group(4)), None),
    "s4xz2-translation": lambda: (
        _uniform_translation(direct_product(symmetric_group(4), cyclic_group(2))), None,
    ),
    "s5-translation": lambda: (_uniform_translation(symmetric_group(5)), None),
}


# -- seeded random instances ---------------------------------------------------

# the bounds and rates of random_groupoid
_MAX_UNITS = 12
_MAX_ARROWS = 60
_MAX_COMPONENTS = 3
_NULL_COMPONENT_RATE = 0.2
_RESTRICT_RATE = 0.2


_SMALL_GROUP_BUILDERS = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "V4": klein_four_group,
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
}


@functools.cache
def _small_group(name: str) -> FiniteGroupTable:
    return _SMALL_GROUP_BUILDERS[name]()


def _random_masses(rng: random.Random, units: Sequence[str]) -> dict[str, float]:
    """Positive masses summing to one, one draw per unit in order."""
    w = [rng.random() + 0.05 for _ in units]
    tot = sum(w)
    return {u: wi / tot for u, wi in zip(units, w)}


def _random_coset_action(
    rng: random.Random, grp: FiniteGroupTable
) -> tuple[dict[tuple[str, str], str], tuple[str, ...]]:
    """Translation on the cosets of the cyclic subgroup of a random element."""
    sub = {rng.choice(grp.elements), grp.identity}
    while True:
        new = {grp.mult[(a, b)] for a in sub for b in sub} | {
            grp.inverse[a] for a in sub
        }
        if new == sub:
            return coset_action(grp, sub)
        sub = new


def _random_part(
    rng: random.Random, grp: FiniteGroupTable, style: str
) -> MeasuredGroupoid:
    """A translation or coset transformation groupoid with random masses."""
    if style == "translation":
        action, units = translation_action(grp), grp.elements
    else:
        action, units = _random_coset_action(rng, grp)
    return transformation_groupoid(grp, action, units, _random_masses(rng, units))


def disjoint_union(
    parts: Sequence[MeasuredGroupoid],
    weights: Sequence[float],
    **kw,
) -> MeasuredGroupoid:
    """Disjoint union with component masses scaled by the given weights."""
    units: list[str] = []
    mass: dict[str, float] = {}
    arrows = []
    compose = []
    inverse = {}
    unit_arrows = {}
    for i, (part, weight) in enumerate(zip(parts, weights)):
        pre = f"p{i}:"
        units.extend(pre + u for u in part.units)
        for u in part.units:
            mass[pre + u] = weight * part.mass[u]
        arrows.extend((pre + a.id, pre + a.src, pre + a.tgt) for a in part.arrows)
        compose += [pre + x for (g, h), gh in part.compose.items() for x in (g, h, gh)]
        inverse.update({pre + x: pre + y for x, y in part.inverse.items()})
        unit_arrows.update({pre + u: pre + e for u, e in part.unit_arrow.items()})
    return validate_groupoid(
        MeasuredGroupoid(units, mass, arrows, compose, inverse, unit_arrows, **kw)
    )


def _random_component(rng: random.Random) -> MeasuredGroupoid:
    kind = rng.choices(
        ["bundle", "translation", "coset", "full_relation"],
        weights=[0.3, 0.2, 0.3, 0.2],
    )[0]
    if kind == "bundle":
        n_units = rng.randint(1, 3)
        menu = ["Z1", "Z1", "Z2", "Z3", "Z4", "V4", "S3"]
        fibers = {f"x{i}": _small_group(rng.choice(menu)) for i in range(n_units)}
        return group_bundle(fibers, _random_masses(rng, list(fibers)))
    if kind == "full_relation":
        units = [f"x{i}" for i in range(rng.randint(2, 4))]
        return full_relation(units, _random_masses(rng, units))
    menu = {
        "translation": ["Z2", "Z3", "Z4", "V4", "S3"],
        "coset": ["Z4", "V4", "S3", "D4"],
    }[kind]
    return _random_part(rng, _small_group(rng.choice(menu)), kind)


def random_groupoid(seed: int) -> MeasuredGroupoid:
    """Deterministic random instance within the size bounds.

    The distribution mixes one to three components drawn from group bundles
    (isotropy-heavy, non-icc unless trivial), translation groupoids (free,
    icc), coset translation groupoids (stabilizers give isotropy), and full
    relations (principal, icc); components may be marked null to exercise
    null-set handling, and the result is sometimes restricted to a random
    positive subset.  Null mass is assigned per component, so instances stay
    nonsingular.
    """
    rng = random.Random(f"groupoid-{seed}")
    for _ in range(200):
        n_parts = rng.randint(1, _MAX_COMPONENTS)
        parts = [_random_component(rng) for _ in range(n_parts)]
        weights = []
        for i in range(n_parts):
            if n_parts > 1 and rng.random() < _NULL_COMPONENT_RATE:
                weights.append(0.0)
            else:
                weights.append(rng.random() + 0.1)
        if all(w == 0.0 for w in weights):
            weights[0] = 1.0
        tot = sum(weights)
        weights = [w / tot for w in weights]
        g = disjoint_union(parts, weights)
        if rng.random() < _RESTRICT_RATE:
            positive = [u for u in g.units if g.mass[u] > 0.0]
            k = rng.randint(max(1, len(positive) // 2), len(positive))
            keep = rng.sample(positive, k)
            keep += [u for u in g.units if g.mass[u] == 0.0 and rng.random() < 0.5]
            g, _ = g.restrict(keep)
        if len(g.units) <= _MAX_UNITS and len(g.arrows) <= _MAX_ARROWS:
            return g
    raise GroupoidError(f"generator failed to fit bounds for seed {seed}")


def random_phase(rng: random.Random, exact: bool = False) -> Phase:
    m = rng.choice([1, 2, 3, 4, 6])
    k = rng.randrange(m)
    turn = Fraction(k, m)
    return turn if exact else as_complex(turn)


def random_coboundary(
    g: MeasuredGroupoid, rng: random.Random, exact: bool = False
) -> dict[str, Phase]:
    return {a: random_phase(rng, exact) for a in g.arrow_order}


def random_twisted_pair(
    seed: int, exact: bool = False
) -> tuple[MeasuredGroupoid, Cocycle]:
    """A groupoid together with a roots-of-unity cocycle.

    Components are group-structured (bundles or transformation groupoids of
    V4, Z3, Z4), carrying pullbacks of group bicharacters; a random
    coboundary is applied on top.  The Klein four bicharacter contributes
    genuinely nontrivial twists; the rest are coboundaries, which keeps both
    ends of the twisted/untwisted comparison populated.
    """
    rng = random.Random(f"twisted-{seed}")
    n_parts = rng.randint(1, 2)
    parts: list[MeasuredGroupoid] = []
    labels: dict[str, tuple[int, str]] = {}  # arrow of g -> (part, group element)
    table: dict[tuple[tuple[int, str], tuple[int, str]], Phase] = {}  # by labels
    for i in range(n_parts):
        name = rng.choice(["V4", "V4", "Z3", "Z4"])
        grp = _small_group(name)
        style = rng.choice(["bundle", "translation", "coset"])
        if style == "bundle":
            units = [f"x{i}" for i in range(rng.randint(1, 2))]
            part = group_bundle({u: grp for u in units}, _random_masses(rng, units))
            group_of_arrow = {a.id: a.id.split(".", 1)[1] for a in part.arrows}
        else:
            part = _random_part(rng, grp, style)
            group_of_arrow = {a.id: a.id.split("|")[0] for a in part.arrows}
        if name == "V4" and rng.random() < 0.75:
            c = klein_bicharacter(exact)
        elif name in ("Z3", "Z4") and rng.random() < 0.5:
            c = cyclic_bicharacter(int(name[1]), exact)
        else:
            c = {
                (a, b): pone(exact)
                for a in grp.elements for b in grp.elements
            }
        labels.update({f"p{i}:{a}": (i, x) for a, x in group_of_arrow.items()})
        table.update({((i, x), (i, y)): v for (x, y), v in c.items()})
        parts.append(part)
    weights = [rng.random() + 0.1 for _ in parts]
    tot = sum(weights)
    g = disjoint_union(parts, [wi / tot for wi in weights])
    w0 = validate_cocycle(g, pullback_group_cocycle(g, labels, table), exact=exact)
    rho = random_coboundary(g, rng, exact)
    return g, apply_coboundary(g, w0, rho)
