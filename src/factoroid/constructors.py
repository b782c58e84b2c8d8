"""Builders for the standard groupoid families.

Everything here produces :class:`MeasuredGroupoid` instances with
plain string identifiers, their tables computed as position arrays with
numpy (a group's product is one |G| x |G| array): group bundles, groupoids
of partial actions (a transformation groupoid of a global action is the
full-domain case, built by the same code), globalizations of partial
actions, eventually-periodic shift systems, the symmetric-group bundle
family, the named example instances, and a seeded random generator used by
the verification corpus.

An action, partial or global, is one |G| x |X| array of unit positions:
action[g, x] is the position of sigma_g(x), or -1 off the domain of sigma_g.
Translation of a group on itself is its product table.  Membership in a
shift groupoid is read off the powers of sigma.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .cocycle import Cocycle, apply_coboundary, complex_array, validate_cocycle
from .groupoid import GroupoidError, MeasuredGroupoid, check_isomorphism


class InvalidPartialAction(GroupoidError):
    pass


# -- finite group tables -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteGroupTable:
    """A finite group as explicit multiplication and inversion tables.

    ``product`` is the multiplication table in element positions:
    product[i, j] is the position of elements[i] elements[j].  Two tables
    are equal when their name, elements, product, inverse and identity are."""

    name: str
    elements: tuple[str, ...]
    product: np.ndarray = field(repr=False)
    inverse: dict[str, str]
    identity: str

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroupTable):
            return NotImplemented
        return (
            (self.name, self.elements, self.inverse, self.identity)
            == (other.name, other.elements, other.inverse, other.identity)
            and np.array_equal(self.product, other.product)
        )

    @functools.cached_property
    def inverse_at(self) -> np.ndarray:
        """The position of each element's inverse."""
        at = {e: i for i, e in enumerate(self.elements)}
        return np.array([at[self.inverse[e]] for e in self.elements], dtype=np.intp)

    @functools.cached_property
    def _cyclic_coset_actions(self) -> list[tuple[np.ndarray, tuple[str, ...]]]:
        """``coset_action`` on the powers of each element, by position."""
        n = len(self.elements)
        power = np.zeros((n, n), dtype=np.intp) + self.elements.index(self.identity)
        for k in range(1, n):  # power[k, x] = x^k
            power[k] = self.product[power[k - 1], np.arange(n)]
        return [coset_action(self, map(self.elements.__getitem__, p)) for p in power.T.tolist()]

    def conjugacy_classes(self) -> list[frozenset[str]]:
        """Brute-force conjugacy classes, in first-element order."""
        seen, classes = np.zeros(len(self.elements), dtype=bool), []
        for a in range(len(self.elements)):
            if not seen[a]:
                cls = self.product[self.product[:, a], self.inverse_at]  # h a h^-1
                seen[cls] = True
                classes.append(frozenset(map(self.elements.__getitem__, cls.tolist())))
        return classes


def cyclic_group(n: int) -> FiniteGroupTable:
    elems = tuple(str(i) for i in range(n))
    i = np.arange(n)
    inv = {str(k): str((-k) % n) for k in range(n)}
    return FiniteGroupTable(f"Z{n}", elems, (i[:, None] + i) % n, inv, "0")


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

    def element(rows: np.ndarray) -> np.ndarray:
        return (table @ radix).searchsorted(rows @ radix)

    inv = dict(zip(label, map(label.__getitem__, element(table.argsort(axis=1)).tolist())))
    return FiniteGroupTable(name, tuple(label), element(table[:, table]), inv,
                            _perm_label(tuple(range(d))))


def symmetric_group(n: int) -> FiniteGroupTable:
    return _group_from_perms(f"S{n}", itertools.permutations(range(n)))


def dihedral_group(n: int) -> FiniteGroupTable:
    """The maps i -> (r + i) mod n and i -> (r - i) mod n of Z/n."""
    return _group_from_perms(
        f"D{n}", (tuple((r + s * i) % n for i in range(n)) for r in range(n) for s in (1, -1))
    )


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    """Elements x.y, x of a and y of b, at position i m + j, m = |b|."""
    elems, m = tuple(f"{x}.{y}" for x in a.elements for y in b.elements), len(b.elements)
    product = a.product[:, None, :, None] * m + b.product[None, :, None, :]
    product = product.reshape(len(elems), -1)
    inv = (a.inverse_at[:, None] * m + b.inverse_at).ravel()
    inverse = dict(zip(elems, map(elems.__getitem__, inv.tolist())))
    return FiniteGroupTable(f"{a.name}x{b.name}", elems, product, inverse,
                            f"{a.identity}.{b.identity}")


def klein_four_group() -> FiniteGroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2))


# -- direct constructions ----------------------------------------------------

def _joined(tables: Sequence[np.ndarray], offsets: Sequence) -> np.ndarray:
    """Position tables side by side along their last axis, each shifted by
    its offset."""
    if not tables:
        return np.zeros(0, dtype=np.intp)
    if len(tables) == 1:  # nothing to concatenate
        return tables[0] + offsets[0]
    return np.concatenate([np.add(o, t) for o, t in zip(offsets, tables)], axis=-1)


def full_relation(
    units: Sequence[str], mass: Mapping[str, float], **kw
) -> MeasuredGroupoid:
    """The principal groupoid connecting every pair of units.

    Arrow x k + y, named ``r|x|y``, runs from unit y to unit x; (x, y)(y, z)
    is (x, z)."""
    k = len(units)
    u, a, t = np.arange(k), np.arange(k * k), np.arange(k ** 3)  # t = (x k + y) k + z
    x, y, xy = a // k, a % k, t // k
    return MeasuredGroupoid(
        units, [mass[v] for v in units], [f"r|{a}|{b}" for a in units for b in units],
        y, x, (xy, t % (k * k), xy - xy % k + t % k), (a, y * k + x), (u, u * (k + 1)), **kw,
    )


def group_bundle(
    fibers: Mapping[str, FiniteGroupTable],
    mass: Mapping[str, float],
    units: Optional[Sequence[str]] = None,
    **kw,
) -> MeasuredGroupoid:
    """Disjoint union of groups sitting over the units; all arrows are loops.

    The arrows over unit x are ``x.g`` for the elements g in table order, and
    the rows over x are the fiber's product table, one array per fiber."""
    units = tuple(units) if units is not None else tuple(fibers)
    tabs = [fibers[x] for x in units]
    size = np.array([len(t.elements) for t in tabs], dtype=np.intp)
    first = size.cumsum() - size  # the first arrow of each fiber
    rows = [np.array([*divmod(np.arange(m * m), m), t.product.ravel()])  # (i, j, ij) at i m + j
            for m, t in zip(size.tolist(), tabs)]
    src = np.arange(len(units)).repeat(size)
    return MeasuredGroupoid(
        units, [mass[x] for x in units],
        [f"{x}.{e}" for x, t in zip(units, tabs) for e in t.elements],
        src, src, _joined(rows, first),
        (np.arange(len(src)), _joined([t.inverse_at for t in tabs], first)),
        (np.arange(len(units)), first + [t.elements.index(t.identity) for t in tabs]), **kw,
    )


def group_groupoid(table: FiniteGroupTable, unit: str = "pt", **kw) -> MeasuredGroupoid:
    """A group as a one-unit groupoid with full mass."""
    return group_bundle({unit: table}, {unit: 1.0}, **kw)


def transformation_groupoid(
    group: FiniteGroupTable,
    action: np.ndarray,
    units: Sequence[str],
    mass: Mapping[str, float],
    **kw,
) -> MeasuredGroupoid:
    """Arrows (g, x) from x to g.x, composing as (g, h.x)(h, x) = (gh, x).

    ``action[g, x]`` is the position of g.x in ``units``: a full-domain
    partial action, so a non-action, or one undefined somewhere, raises
    InvalidPartialAction.  Keywords go to ``partial_action_groupoid``."""
    p = PartialActionSystem(group, tuple(units), dict(mass), action)
    if len(p._graph[0]) < p.action.size:  # the graph leaves out an undefined entry
        raise InvalidPartialAction("a global action is defined at every unit")
    return partial_action_groupoid(p, **kw)


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
    action: np.ndarray,
    units: Sequence[str],
    mass: Mapping[str, float],
) -> Optional[InducedActionWitness]:
    """Extract (H, Y, C) from a failed conjugacy-class condition, or None.

    ``action`` is the |G| x |X| array of ``transformation_groupoid``.  Builds
    the fiberwise sets F(x) = {g : the loop (g, x) lies in the closure of a
    witness class}, picks the canonical finite value C attained with
    positive mass, and returns it with Y = {x : F(x) = C} and the stabilizer
    subgroup of C.

    The verdict's first loop (c, x0) has closure {(k c k^-1, k.x0)}, so C
    exists (F(x0) holds c) and F(h.x) = h F(x) h^-1.  Hence C = F(x) fixes Y
    pointwise, every h in H maps Y into Y, and C lies in H.
    """
    from .conjugacy import _closure, is_icc

    g = transformation_groupoid(group, action, units, mass)
    verdict = is_icc(g)
    if verdict.icc:
        return None
    inside = _closure(g, g.sort_arrows(verdict.witness)[:1])  # arrow (h, x) is h |X| + x
    inside = inside.reshape(len(group.elements), len(units))
    inside[group.elements.index(group.identity)] = False
    e = group.elements
    fiber = {x: frozenset(itertools.compress(e, col)) for x, col in zip(units, inside.T)}
    candidates = sorted({c for x, c in fiber.items() if c and mass[x] > 0.0},
                        key=lambda c: (len(c), tuple(sorted(c))))
    finite_class = candidates[0]
    y = [i for i, x in enumerate(units) if fiber[x] == finite_class]
    c = [e.index(x) for x in finite_class]
    conj = group.product[group.product[:, c], group.inverse_at[:, None]]  # h c h^-1
    stable = (np.sort(conj, axis=1) == sorted(c)).all(axis=1)
    return InducedActionWitness(tuple(itertools.compress(e, stable)),
                                tuple(units[i] for i in y), tuple(sorted(finite_class)))


def coset_action(
    group: FiniteGroupTable, subgroup: Iterable[str]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Left translation on left cosets gH; returns (action, coset labels),
    action[g, c] the position of the coset g r for the representative r of
    coset c.  A coset is named ``c{r}`` by its first element r in table
    order, and the cosets are listed in that order."""
    e = group.elements
    low = group.product[:, [e.index(h) for h in set(subgroup)]].min(axis=1)  # the r of gH
    rep = np.bincount(low) > 0  # the representatives
    reps, place = rep.nonzero()[0], rep.cumsum() - 1  # place[r]: the coset of representative r
    return place[low[group.product[:, reps]]], tuple(f"c{e[r]}" for r in reps.tolist())


# -- cocycles of group origin -----------------------------------------------

def pullback_group_cocycle(
    g: MeasuredGroupoid, element: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Lift a group 2-cocycle through an arrow -> group-element labelling:
    ``element[x]`` is the element position of arrow x and ``table`` the
    |H| x |H| phase array, read at every composable pair of ``g.pairs``."""
    return table[element[g.pairs.left], element[g.pairs.right]]


TURNS = 12  # the denominator of the exact families' turns


def klein_bicharacter(exact: bool = False) -> np.ndarray:
    """The anticommuting phase on the Klein four-group, by element position:
    -1 exactly when the first factor has second coordinate 1 and the second
    has first coordinate 1; in exact mode as turns over ``TURNS``."""
    k = np.arange(4)
    minus = (k[:, None] % 2 == 1) & (k // 2 == 1)
    return minus * (TURNS // 2) if exact else np.where(minus, -1.0 + 0j, 1.0 + 0j)


def cyclic_bicharacter(n: int, exact: bool = False) -> np.ndarray:
    """The bicharacter (a, b) -> exp(2 pi i a b / n) on the cyclic group; in
    exact mode its turns over n."""
    turns = np.arange(n)[:, None] * np.arange(n) % n
    return turns if exact else complex_array(turns, n)


def klein_four_twisted(exact: bool = False) -> tuple[MeasuredGroupoid, Cocycle]:
    """The one-unit Klein four groupoid with its anticommuting twist."""
    g = group_groupoid(klein_four_group())  # arrow x is element x
    vals = pullback_group_cocycle(g, np.arange(4), klein_bicharacter(exact))
    return g, validate_cocycle(g, vals, turns=TURNS if exact else 0)


# -- partial actions ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PartialActionSystem:
    """A partial action of a finite group on a finite set, as one array.

    ``action[g, x]`` is the position in ``units`` of sigma_g(x), or -1 where
    x lies outside X_{g^-1}, the domain of sigma_g.  Construction checks that
    the identity row fixes every unit, that sigma_{g^-1} undoes sigma_g, and
    that sigma_h sigma_g = sigma_{hg} wherever the left side is defined, so
    every instance is valid; an invalid one raises InvalidPartialAction.
    The inverse law puts sigma_g(x) in X_g for x in X_{g^-1} and undoes it
    there, and the law for g^-1 undoes sigma_{g^-1} on X_g: so each sigma_g
    is a bijection of X_{g^-1} onto X_g, and no domain needs a check."""

    group: FiniteGroupTable
    units: tuple[str, ...]
    mass: dict[str, float]
    action: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        grp, act, n = self.group, self.action, len(self.units)
        shape = (len(grp.elements), n)
        if not (isinstance(act, np.ndarray) and act.dtype.kind in "iu"
                and act.shape == shape and ((act >= -1) & (act < n)).all()):
            raise InvalidPartialAction(
                f"action must be a {shape[0]} x {n} integer array of unit positions or -1")
        # the action law on its graph in positions: (g, x, sigma_g(x)) in
        # element order, then unit order, kept for partial_action_groupoid
        gm, x = (act >= 0).nonzero()
        y = act[gm, x]
        then = act[:, y]  # then[g1, i] = sigma_g1(y[i]), -1 off the domain
        object.__setattr__(self, "_graph", (gm, x, y, then))
        if (act[grp.elements.index(grp.identity)] != np.arange(n)).any():
            raise InvalidPartialAction("identity map must fix every unit")
        inv = grp.inverse_at
        bad = act[inv[gm], y] != x  # sigma_{g^-1} undoes sigma_g
        if bad.any():
            i = int(bad.argmax())
            raise InvalidPartialAction(
                f"map of {grp.elements[inv[gm[i]]]} is not inverse to map of "
                f"{grp.elements[gm[i]]}", [self.units[x[i]]],
            )
        # sigma_g1 sigma_g2 = sigma_g1g2 where defined: for each g1, every
        # (g2, x) with sigma_g2(x) in the domain of sigma_g1
        bad = (then >= 0) & (act[grp.product[:, gm], x] != then)
        if bad.any():
            g1, i = divmod(int(np.argmax(bad)), len(x))
            e = grp.elements
            raise InvalidPartialAction(
                f"composition of {e[g1]}, {e[gm[i]]} leaves graph of {e[grp.product[g1, gm[i]]]}",
                [self.units[x[i]]],
            )


def partial_action_groupoid(p: PartialActionSystem, **kw) -> MeasuredGroupoid:
    """Arrows (g, x) for x in the inverse domain of g, from x to sigma_g(x).

    Arrow (g, x) is named ``g|x``; the arrows run g in element order, then x
    in unit order.  The rows run the right factor (g, x) over the arrows,
    then the left factor (h, sigma_g(x)) over h in element order, and the
    product (hg, x) is one index into the group's product table."""
    grp, act, e = p.group, p.action, p.group.elements
    gm, x, y, then = p._graph  # the arrows, and the left factors of each
    arrow = np.zeros(act.shape, dtype=np.intp) - 1  # the arrow (g, x) at [g, x], else -1
    arrow[gm, x] = np.arange(len(gm))
    i, h = (then >= 0).T.nonzero()  # right factor i, left factor h
    return MeasuredGroupoid(
        p.units, [p.mass[u] for u in p.units],
        [f"{e[g]}|{p.units[u]}" for g, u in zip(gm.tolist(), x.tolist())], x, y,
        (arrow[h, y[i]], i, arrow[grp.product[h, gm[i]], x[i]]),
        (np.arange(len(gm)), arrow[grp.inverse_at[gm], y]),
        (np.arange(act.shape[1]), arrow[e.index(grp.identity)]), **kw,
    )


def restrict_partial(p: PartialActionSystem, keep: Iterable[str]) -> PartialActionSystem:
    """Restrict a partial action to a unit subset K (renormalizing mass).

    The result's groupoid is the restriction of p's groupoid to K, table
    for table: the arrows (g, x) with x and sigma_g(x) in K, in p's order,
    with p's products, inverses and unit arrows, and masses divided by the
    same exact sum.
    """
    keep_set = set(keep)
    if not keep_set:
        raise InvalidPartialAction("restriction to an empty subset")
    unknown = keep_set.difference(p.units)
    if unknown:
        raise InvalidPartialAction("restriction units not in groupoid", sorted(unknown))
    kept = [i for i, u in enumerate(p.units) if u in keep_set]
    units = tuple(p.units[i] for i in kept)
    total = math.fsum(p.mass[u] for u in units)
    if total <= 0.0:
        raise InvalidPartialAction("restriction carries zero mass")
    at = np.full(len(p.units) + 1, -1)  # a unit's new position; at[-1] keeps -1
    at[kept] = np.arange(len(kept))
    return PartialActionSystem(
        p.group, units, {u: p.mass[u] / total for u in units}, at[p.action[:, kept]]
    )


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

    The domain and embedding need no check: the action laws that
    ``PartialActionSystem`` checks make the gluing an equivalence, and
    (g, x) ~ (g, y) only when x = y, so each class has one pair of least
    element, the one pair the domain keeps, and x -> (1, x) is one to one.
    Being an equivalence, the gluing also lists every pair glued to a pair
    among that pair's own edges (the identity law glues it to itself), so
    the least pair of its class is the least of its edges, in one hop.
    """
    grp, act, units = p.group, p.action, p.units
    e, inv, prod = grp.elements, grp.inverse_at, grp.product
    order = np.array([e.index(grp.identity), *(i for i, g in enumerate(e) if g != grp.identity)])
    at = np.empty_like(order)
    at[order] = np.arange(len(order))  # the place of each element in order
    # pair (order[n], x) is n |X| + x; it is glued to (h, y), h = order[m],
    # for y = sigma_{h^-1 g}(x), and these edges list its whole class: each
    # pair takes the least pair glued to it
    size = act.shape[1]
    y = act[prod[inv[order][None, :], order[:, None]][:, None, :], np.arange(size)[None, :, None]]
    n, x, m = np.nonzero(y >= 0)
    cls = np.arange(len(order) * size)
    np.minimum.at(cls, n * size + x, m * size + y[n, x, m])

    # enumeration-greedy fundamental domain: (g_n, x) is kept when x avoids
    # every domain X_{g_n^-1 g_k} with k < n
    within = act[inv][prod[inv[order][:, None], order[None, :]]] >= 0  # [n, k, x]
    earlier = np.tri(len(order), k=-1, dtype=bool)[:, :, None]  # k < n
    domain = np.flatnonzero(~(within & earlier).any(axis=1))
    rep = np.full(len(cls), -1)
    rep[cls[domain]] = np.arange(len(domain))
    label = rep[cls]  # the space unit of each pair
    space_units = tuple(f"{e[order[q // size]]}~{units[q % size]}" for q in domain.tolist())
    # theta(g, (h, x)) = (gh, x), for (h, x) in the domain
    theta = label[at[prod[:, order[domain // size]]] * size + domain % size]

    total = math.fsum(p.mass[units[x]] for x in (domain % size).tolist())
    if total <= 0.0:
        raise InvalidPartialAction("globalization needs positive total mass")
    mass = {u: p.mass[units[q % size]] / total for u, q in zip(space_units, domain.tolist())}
    embedding = {x: space_units[label[i]] for i, x in enumerate(units)}  # (1, x) is pair x
    domain = tuple((e[order[q // size]], units[q % size]) for q in domain.tolist())

    glob = transformation_groupoid(grp, theta, space_units, mass)
    full = glob.is_full(set(embedding.values())).borel_full
    restricted, _ = glob.restrict(sorted(set(embedding.values()), key=space_units.index))
    gm, x = np.nonzero(act >= 0)  # arrow (g, x) goes to (g, the class of (1, x))
    arrow_bij = {f"{e[a]}|{units[b]}": f"{e[a]}|{space_units[c]}"
                 for a, b, c in zip(gm.tolist(), x.tolist(), label[x].tolist())}
    iso = check_isomorphism(partial_action_groupoid(p), restricted, embedding, arrow_bij,
                            check_mass=True)
    if not (full and iso):
        raise InvalidPartialAction(
            f"globalization postconditions failed (full={full}, isomorphic={iso})"
        )
    return Globalization(glob, grp, space_units, embedding, domain, arrow_bij, iso, full)


def half_domain_fixture() -> PartialActionSystem:
    """Z/2 acting on two points with the flip defined only at the first."""
    return PartialActionSystem(
        cyclic_group(2), ("y0", "y1"), {"y0": 0.5, "y1": 0.5}, np.array([[0, 1], [0, -1]])
    )


def random_partial_action(seed: int) -> PartialActionSystem:
    """Deterministic random partial action, most often not a global one.

    Built as the restriction of a random global action (translation or coset
    translation) to a random positive subset, which is always a valid
    partial action.
    """
    rng = random.Random(f"partial-{seed}")
    grp = _small_group(rng.choice(["Z2", "Z3", "Z4", "V4", "S3"]))
    action, units = _random_global_action(rng, grp, rng.random() < 0.5)
    full = PartialActionSystem(grp, units, _random_masses(rng, units), action)
    if len(units) >= 2 and rng.random() < 0.8:
        k = rng.randint(1, len(units) - 1)
        keep = rng.sample(list(units), k)
        return restrict_partial(full, keep)
    return full


# -- eventually periodic shift systems ----------------------------------------

@dataclass(frozen=True)
class DeaconuRenaultSystem:
    """A shift map sigma on finite units, with masses and a degree bound.
    Construction raises GroupoidError unless there is a unit, the bound is
    at least 1, sigma maps the units, and only them, into the units, and the
    masses are given exactly on the units, finite and nonnegative."""

    units: tuple[str, ...]
    mass: dict[str, float]
    sigma: dict[str, str]
    bound: int = 3

    def __post_init__(self) -> None:
        if not self.units:
            raise GroupoidError("a shift system needs at least one unit")
        if self.bound < 1:
            raise GroupoidError("degree bound must be >= 1")
        units = set(self.units)
        for what, names in (
            ("shift map undefined at units", [u for u in self.units if u not in self.sigma]),
            ("shift map defined at non-units", sorted(set(self.sigma) - units)),
            ("shift map targets non-units", sorted(set(self.sigma.values()) - units)),
            ("mass given for non-units", sorted(set(self.mass) - units)),
            ("no mass for", [u for u in self.units if u not in self.mass]),
        ):
            if names:
                raise GroupoidError(f"{what} {', '.join(names)}", names)
        for u in self.units:
            if not 0.0 <= self.mass[u] < math.inf:
                raise GroupoidError(
                    f"mass at unit {u!r} must be finite and nonnegative, got {self.mass[u]!r}",
                    [u],
                )


def _degree(power: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma^(N+k+) and sigma^(N+k-), whose agreement at (x, y) makes
    (x, k, y) an arrow (see ``deaconu_renault``)."""
    n = power.shape[1]
    return power[n + max(k, 0)], power[n + max(-k, 0)]


@dataclass(frozen=True, eq=False)
class DeaconuRenaultView:
    """Arrows (x, k, y) with sigma^n x = sigma^m y, n - m = k, |k| <= bound.

    ``power[m]`` holds the unit positions of sigma^m, for m up to N + scan,
    N the number of units and scan = max(bound, N): membership is decided
    for every degree |k| <= scan.  ``arrows`` is built on first read."""

    system: DeaconuRenaultSystem
    power: np.ndarray = field(repr=False)
    arrow_count: int
    b_sets: dict[int, frozenset[str]]   # n -> units with a loop of degree n
    b_measure: dict[int, float]

    @functools.cached_property
    def arrows(self) -> tuple[tuple[str, int, str], ...]:
        units, bound = self.system.units, self.system.bound
        return tuple((units[x], k, units[y]) for k in range(-bound, bound + 1)
                     for x, y in np.argwhere(np.equal.outer(*_degree(self.power, k))).tolist())

    def contains(self, x: str, k: int, y: str) -> bool:
        fx, fy = _degree(self.power, k)
        return bool(fx[self.system.units.index(x)] == fy[self.system.units.index(y)])


def deaconu_renault(d: DeaconuRenaultSystem) -> DeaconuRenaultView:
    """Enumerate the shift groupoid up to degree |k| <= bound.

    Membership is read off powers of sigma.  (x, k, y) is an arrow when
    sigma^n x = sigma^m y for some n, m >= 0 with n - m = k; with N units,
    that holds exactly when sigma^(N+k+) x = sigma^(N+k-) y, where
    k+ = max(k, 0) and k- = max(-k, 0).  One way, (N + k+, N + k-) is such
    an (n, m).  For the other, both sides lie on cycles, since a tail has
    fewer than N points, and sigma permutes the points on cycles.  Applying
    sigma^j with j large turns the pair of exponents into (n + i, m + i) for
    some i >= 0, where the sides agree; as sigma^j is injective on cycle
    points, they agreed before.  Loop sets are enumerated for every degree
    up to max(bound, N), which suffices to see a loop of minimal positive
    degree at every unit.
    """
    n, scan = len(d.units), max(d.bound, len(d.units))
    at = {u: i for i, u in enumerate(d.units)}
    power = np.empty((n + scan + 1, n), dtype=np.intp)
    power[0] = np.arange(n)
    step = np.array([at[d.sigma[u]] for u in d.units])
    for m in range(1, len(power)):
        power[m] = step[power[m - 1]]
    arrow_count = sum(int(np.equal.outer(*_degree(power, k)).sum())
                      for k in range(-d.bound, d.bound + 1))
    b_sets = {k: frozenset(itertools.compress(d.units, np.equal(*_degree(power, k))))
              for k in range(-scan, scan + 1)}
    b_measure = {k: math.fsum(d.mass[x] for x in members) for k, members in b_sets.items()}
    return DeaconuRenaultView(d, power, arrow_count, b_sets, b_measure)


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
    return transformation_groupoid(group, group.product, units, {u: 1 / len(units) for u in units})


_SWAP_ACTION = np.array([[0, 1], [1, 0]])  # Z/2 on x0, x1: the flip swaps them
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


def _random_global_action(
    rng: random.Random, grp: FiniteGroupTable, translation: bool
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Translation on the group, or on the cosets of the cyclic subgroup of
    a random element; returns (action, units)."""
    if translation:
        return grp.product, grp.elements
    return grp._cyclic_coset_actions[grp.elements.index(rng.choice(grp.elements))]


def _random_part(
    rng: random.Random, grp: FiniteGroupTable, style: str
) -> MeasuredGroupoid:
    """A translation or coset transformation groupoid with random masses."""
    action, units = _random_global_action(rng, grp, style == "translation")
    return transformation_groupoid(grp, action, units, _random_masses(rng, units))


def disjoint_union(
    parts: Sequence[MeasuredGroupoid],
    weights: Sequence[float],
    **kw,
) -> MeasuredGroupoid:
    """Disjoint union with component masses scaled by the given weights.

    Part i's units and arrows are prefixed ``p{i}:`` and its arrays are
    shifted past the parts before it.  A part is read without validating
    it: the union's validation checks every axiom of every part."""
    units = [f"p{i}:{u}" for i, part in enumerate(parts) for u in part.units]
    labels = [f"p{i}:{a}" for i, part in enumerate(parts) for a in part.arrow_order]
    unit_at = [0, *itertools.accumulate(len(part.units) for part in parts)]
    at = [0, *itertools.accumulate(len(part.arrow_order) for part in parts)]
    unit_rows_at = np.array([unit_at, at]).T[:, :, None]  # (u, e) rows shift by both
    return MeasuredGroupoid(
        units, [w * m for part, w in zip(parts, weights) for m in part.unit_masses.tolist()],
        labels,
        _joined([part._src for part in parts], unit_at),
        _joined([part._tgt for part in parts], unit_at),
        _joined([part._compose_rows() for part in parts], at),
        _joined([part._inverse for part in parts], at),
        _joined([part._unit_arrows for part in parts], unit_rows_at),
        **kw,
    )


def _random_component(rng: random.Random) -> MeasuredGroupoid:
    """One part of ``random_groupoid``."""
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
        weights = [0.0 if n_parts > 1 and rng.random() < _NULL_COMPONENT_RATE
                   else rng.random() + 0.1 for _ in range(n_parts)]
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
        if len(g.units) <= _MAX_UNITS and len(g.arrow_order) <= _MAX_ARROWS:
            return g
    raise GroupoidError(f"generator failed to fit bounds for seed {seed}")


def random_coboundary(
    g: MeasuredGroupoid, rng: random.Random, exact: bool = False
) -> np.ndarray:
    """One random root of unity of order 1, 2, 3, 4 or 6 per arrow, by arrow
    position; in exact mode as turns over ``TURNS``."""
    orders = (rng.choice([1, 2, 3, 4, 6]) for _ in g.arrow_order)
    k = np.array([TURNS // m * rng.randrange(m) for m in orders], dtype=np.int64)
    return k if exact else complex_array(k, TURNS)


def random_twisted_pair(
    seed: int, exact: bool = False
) -> tuple[MeasuredGroupoid, Cocycle]:
    """A groupoid together with a roots-of-unity cocycle.

    Components are group-structured (bundles or transformation groupoids of
    V4, Z3, Z4), carrying pullbacks of group bicharacters; a random
    coboundary is applied on top.  The Klein four bicharacter contributes
    genuinely nontrivial twists; the rest are coboundaries, which keeps both
    ends of the twisted/untwisted comparison populated.  The parts' group
    cocycles sit on the diagonal of one phase table.
    """
    rng = random.Random(f"twisted-{seed}")
    one = 0 if exact else 1.0 + 0j  # the phase 1
    n_parts = rng.randint(1, 2)
    parts: list[MeasuredGroupoid] = []
    elements: list[np.ndarray] = []  # each part's arrows -> element positions
    tables: list[np.ndarray] = []  # each part's group cocycle
    for i in range(n_parts):
        name = rng.choice(["V4", "V4", "Z3", "Z4"])
        grp = _small_group(name)
        m = len(grp.elements)
        style = rng.choice(["bundle", "translation", "coset"])
        if style == "bundle":  # arrows x.g, g in element order, over each unit x
            units = [f"x{i}" for i in range(rng.randint(1, 2))]
            part = group_bundle(dict.fromkeys(units, grp), _random_masses(rng, units))
            elements.append(np.arange(m * len(units)) % m)
        else:  # arrows g|x, g in element order, then x
            part = _random_part(rng, grp, style)
            elements.append(np.arange(m).repeat(len(part.units)))
        if name == "V4" and rng.random() < 0.75:
            tables.append(klein_bicharacter(exact))
        elif name in ("Z3", "Z4") and rng.random() < 0.5:
            c = cyclic_bicharacter(m, exact)
            tables.append(c * (TURNS // m) if exact else c)
        else:
            tables.append(np.zeros((m, m), type(one)) + one)
        parts.append(part)
    weights = [rng.random() + 0.1 for _ in parts]
    tot = sum(weights)
    g = disjoint_union(parts, [wi / tot for wi in weights])
    first = [0, *itertools.accumulate(map(len, tables))]
    table = np.zeros((first[-1], first[-1]), type(one)) + one
    for at, c in zip(first, tables):
        table[at:at + len(c), at:at + len(c)] = c
    w0 = validate_cocycle(g, pullback_group_cocycle(g, _joined(elements, first), table),
                          turns=TURNS if exact else 0)
    return g, apply_coboundary(g, w0, random_coboundary(g, rng, exact))
