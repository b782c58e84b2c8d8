"""Finite discrete measured groupoids as explicit composition tables.

A groupoid here is a finite set of arrows with source/target maps into a
finite weighted unit space, a stored composition table, a stored inversion
table, and an embedding of units as identity arrows.  Units and arrows are
named by plain string identifiers, which keeps instances serializable and
diffable; validation maps the composition table to integer positions once
(``PairTable``), and every later read of it goes through those positions.
Orbits, isotropy and masses (``unit_masses``) are read by position too; the
name views are built on first use: the ``arrows`` triples, ``by_source`` and
``by_target`` (walked by ``composable_pairs()``) once, ``compose`` per read.

All mass bookkeeping treats zero-mass ("null") units as structurally present
but measure-theoretically invisible: measure computations weight arrows by the
mass of their source (or target) unit, so null-based arrows contribute
nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress, islice, repeat
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

MASS_TOL = 1e-12
ISOMORPHISM_MASS_TOL = 1e-9  # restrictions renormalize masses in other orders

# composable triples per block of PairTable.first_failure; a block's
# temporaries are a few arrays of this length, which stay in cache (2^16
# made the full pass on the 1,728 pairs of the S4 bundle on three units
# about 1.7 times slower)
_TRIPLE_BLOCK = 1 << 14

# validate checks associativity on every composable triple when there are at
# most this many, and on the generators first above it.  The two routes cost
# the same at about 4,000 triples: in process on a 2-core x86 host, the full
# pass took 0.8 to 1.2 times the generator route (generators() and its walk)
# on tables of 4,096 triples, 0.3 to 0.9 times at 3,504 and below, and 1.0
# to 4.1 times at 5,832 and above
_FULL_PASS_TRIPLES = 1 << 12


class GroupoidError(ValueError):
    """A groupoid table violates one of the defining axioms.

    ``ids`` lists the offending arrow (or unit) identifiers.
    """

    def __init__(self, message: str, ids: Sequence[str] = ()):
        super().__init__(message)
        self.ids = tuple(ids)


class BadUnit(GroupoidError):
    pass


class DanglingReference(GroupoidError):
    pass


class BadInverse(GroupoidError):
    pass


class NonAssociative(GroupoidError):
    pass


class EmptyRestriction(GroupoidError):
    pass


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class ValidationFlags:
    """Measure-theoretic facts recorded by validation, not axioms."""

    nonsingular: bool  # mass(s(g)) == 0 iff mass(t(g)) == 0, for every arrow
    pmp: bool          # mass(s(g)) == mass(t(g)) for every arrow
    mass_normalized: bool


@dataclass(frozen=True)
class Fullness:
    borel_full: bool
    mu_full: bool


@dataclass(frozen=True)
class ErgodicityVerdict:
    ergodic: bool
    # two distinct positive-mass orbits when not ergodic
    witness: Optional[tuple[frozenset[str], frozenset[str]]] = None


@dataclass(frozen=True)
class PairTable:
    """The composition table in integer positions.

    Arrows and units are numbered in storage order; ``src`` and ``tgt`` give
    the units of each arrow, ``inv`` its inverse and ``unit_arrow`` the
    identity arrow of each unit.  Pair p, the p-th of ``composable_pairs()``,
    is (left[p], right[p]) with product prod[p], on row row[p] of the
    composition table.  The pair (x, y) is start[y] + rank[x], where rank[x]
    is the place of x among the arrows with its source.  The orbit of unit u
    is named by its least unit roots[u], the least source of an arrow into
    u, since an orbit has an arrow between any two units.
    """

    left: np.ndarray
    right: np.ndarray
    prod: np.ndarray
    row: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    start: np.ndarray
    rank: np.ndarray
    inv: np.ndarray
    unit_arrow: np.ndarray
    roots: np.ndarray

    def at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The positions of the pairs (x[i], y[i]), -1 where an arrow is
        unknown (-1) or the pair is not composable."""
        ok = (x >= 0) & (y >= 0)
        ok[ok] = self.src[x[ok]] == self.tgt[y[ok]]
        return np.where(ok, self.start[y] + self.rank[x], -1)

    def conjugations(self, h: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every conjugation of the loops h: the pairs p = (a, h[i]) with a
        running over the arrows with source s(h[i]) in storage order, h[0]
        first, and the conjugates c = a h[i] a^-1.  Returns (i, p, a, c)."""
        count = np.bincount(self.src, minlength=len(self.unit_arrow))[self.tgt[h]]
        i = np.repeat(np.arange(len(h)), count)
        p = np.arange(len(i)) + np.repeat(self.start[h] - (np.cumsum(count) - count), count)
        a = self.left[p]
        return i, p, a, self.prod[self.start[self.inv[a]] + self.rank[self.prod[p]]]

    def first_failure(
        self, fails: Callable[..., np.ndarray], outer: str, middles: Optional[np.ndarray] = None
    ) -> Optional[tuple[int, int, int]]:
        """Arrow positions (x, y, z) of the first composable triple with y in
        ``middles`` (every arrow when None) on which ``fails``, given the
        positions of its pairs xy, yz, (xy)z and x(yz), holds; None if there
        is none.  First means: the ``outer`` pair ("xy" or "yz") earliest in
        the composition table, then the other arrow earliest.  The triple
        named is the least of a key over every failing triple, so it does not
        depend on the order in which the triples are visited.  ``validate``
        passes ``middles`` None on a table of at most _FULL_PASS_TRIPLES
        triples, and the generators first on a larger one.

        A triple is a pair (y, z) and a rank j < s, s the number of arrows x
        with source t(y): xy = start[y] + j and x(yz) = start[yz] + j.  The
        triples are visited in 2-D blocks, pairs times ranks, of at most about
        _TRIPLE_BLOCK entries (see ``_triple_blocks``).
        """
        n, fan = len(self.src), np.bincount(self.src)
        if middles is None:
            pairs = np.arange(len(self.left))
        else:
            chosen = np.zeros(n, dtype=bool)
            chosen[middles] = True
            pairs = np.flatnonzero(chosen[self.left])
        best = None
        for yz, j in _triple_blocks(pairs, fan[self.tgt[self.left[pairs]]]):
            xy = self.start[self.left[yz]] + j
            xy_z = self.start[self.right[yz]] + self.rank[self.prod[xy]]
            bad = fails(xy, yz, xy_z, self.start[self.prod[yz]] + j)
            if not bad.any():
                continue
            xy, yz = xy[bad], yz[bad.nonzero()[0], 0]
            x, y, z = self.left[xy], self.left[yz], self.right[yz]
            key = self.row[xy] * n + z if outer == "xy" else self.row[yz] * n + x
            i = key.argmin()
            if best is None or key[i] < best[0]:
                best = key[i], (int(x[i]), int(y[i]), int(z[i]))
        return None if best is None else best[1]

    def generators(self) -> np.ndarray:
        """Arrow positions S whose closure with the unit arrows under the
        table's products is every arrow.

        For each orbit, with r its least unit: one arrow from r to every
        other unit, and its inverse; then, while the closure misses an arrow,
        the first missed arrow of each orbit that misses one.  The closure R
        is taken on the table itself, R <- R u R.R over the pairs, so it is
        the closure under the products the table states, right or wrong.

        Associativity on the middles S is associativity everywhere (Light's
        test; A. H. Clifford and G. B. Preston, *The Algebraic Theory of
        Semigroups* I, AMS 1961, 1.2).  Let M be the arrows m with
        (xm)y = x(my) for all composable x, y.  If a and b are in M, then
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so ab is in M.
        A unit arrow is in M once it is neutral, which ``validate`` checks
        before associativity; so S in M puts the closure, every arrow, in M.
        The argument needs every composable pair in the table with a product
        of the right endpoints, which ``validate`` also checks first.
        """
        n, k = len(self.src), len(self.unit_arrow)
        root, first = self.roots, np.full(k, n)
        from_root = np.flatnonzero(self.src == root[self.tgt])
        np.minimum.at(first, self.tgt[from_root], from_root)  # the first arrow r -> u
        orbit = root[self.src]
        tree = first[root != np.arange(k)]
        reached = np.zeros(n, dtype=bool)
        reached[self.unit_arrow] = True
        found = [np.concatenate([tree, self.inv[tree]])]
        while True:
            reached[found[-1]] = True
            while True:
                made = self.prod[reached[self.left] & reached[self.right]]
                if reached[made].all():
                    break
                reached[made] = True
            missed = np.flatnonzero(~reached)
            if not len(missed):
                return np.concatenate(found)
            first[:] = n  # the first missed arrow of each orbit
            np.minimum.at(first, orbit[missed], missed)
            found.append(first[first < n])

    def over(self, units: np.ndarray) -> tuple["PairTable", np.ndarray]:
        """The table of the arrows with source in ``units``, a mask of the
        units that is a union of orbits, numbered in storage order (a unit
        not in ``units`` keeps its number and root and gets unit arrow -1);
        and the positions here of its pairs, in its order."""
        if units.all():
            return self, np.arange(len(self.left))
        arrows = np.flatnonzero(units[self.src])
        at = np.full(len(self.src), -1, dtype=np.intp)
        at[arrows] = np.arange(len(arrows))
        pairs = np.flatnonzero(units[self.src[self.right]])
        count = np.bincount(self.src, minlength=len(units))[self.tgt[arrows]]
        table = PairTable(
            at[self.left[pairs]], at[self.right[pairs]], at[self.prod[pairs]],
            self.row[pairs], self.src[arrows], self.tgt[arrows], np.cumsum(count) - count,
            self.rank[arrows], at[self.inv[arrows]], at[self.unit_arrow], self.roots,
        )
        return table, pairs


def _triple_blocks(pairs: np.ndarray, size: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The triples of ``PairTable.first_failure`` in blocks (yz, j), a column
    of pairs yz and the ranks j that broadcast against it, j < size[yz].

    When the pairs times the largest size are at most _TRIPLE_BLOCK / 4, one
    block holds them all, with a rank row per pair that repeats its last
    rank up to the largest size (a triple seen twice is named the same, and
    no sort or loop over sizes is paid; larger, the rank rows cost more than
    the sort: 334 against 292 us on the 13,824 triples of S4).  Otherwise
    the pairs are grouped by size s, each group taken in blocks of about
    _TRIPLE_BLOCK triples against the one row j < s."""
    most = int(size.max(initial=0))
    if len(pairs) * most <= _TRIPLE_BLOCK // 4:
        yield pairs[:, None], np.minimum(np.arange(most), size[:, None] - 1)
        return
    order = np.argsort(size, kind="stable")
    pairs, size = pairs[order], size[order]
    cuts = (np.flatnonzero(size[1:] != size[:-1]) + 1).tolist()
    for first, end in zip([0, *cuts], [*cuts, len(pairs)]):
        s = int(size[first])
        j, step = np.arange(s), max(1, _TRIPLE_BLOCK // s)
        for lo in range(first, end, step):
            yield pairs[lo : min(lo + step, end), None], j


def _positions(index: Mapping[str, int], ids: Iterable, *sizes: int) -> list[np.ndarray]:
    """The positions of ``ids`` under ``index``, -1 for an unknown id, cut
    into consecutive pieces of the given sizes."""
    at = np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=sum(sizes))
    ends = list(accumulate(sizes))
    return [at[i:j] for i, j in zip([0, *ends], ends)]


def _first_row(*masks: np.ndarray) -> Optional[tuple[int, int]]:
    """The first row on which one of the masks holds, and the first mask
    that holds there; None if none does."""
    rows = reduce(np.logical_or, masks)
    if not rows.any():
        return None
    r = int(rows.argmax())
    return r, next(i for i, mask in enumerate(masks) if mask[r])


class _ComposeView(Mapping):
    """The composition table (g, h) -> gh of a validated groupoid, read from
    ``g.pairs``: length, lookups and items in table row order, by position."""

    __slots__ = ("_g",)

    def __init__(self, g: "MeasuredGroupoid"):
        self._g = g

    def __len__(self) -> int:
        return len(self._g._pair_table().left)

    def __getitem__(self, key: tuple[str, str]) -> str:
        return self._g.arrow_order[self._g.pairs.prod[self._g.pair_position(*key)]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return (pair for pair, _ in self.items())

    def items(self) -> Iterator[tuple[tuple[str, str], str]]:
        t, name = self._g._pair_table(), self._g.arrow_order
        by_row = np.empty_like(t.row)
        by_row[t.row] = np.arange(len(t.row))
        for x, y, xy in zip(*(v[by_row].tolist() for v in (t.left, t.right, t.prod))):
            yield (name[x], name[y]), name[xy]


class MeasuredGroupoid:
    """A finite groupoid with a weighted unit space.

    Parameters
    ----------
    units:        ordered unit identifiers.
    mass:         unit id -> nonnegative float (probability atoms).
    arrows:       ordered (arrow id, src unit, tgt unit) triples.
    compose_rows: the rows g h gh of the composition table one after another,
                  flat (g0, h0, g0h0, g1, h1, ...): one row for each pair
                  with tgt(h) == src(g), the product running h first.
    inverse:      arrow id -> arrow id.
    unit_arrows:  unit id -> its identity arrow.
    exact_mass:   optional unit id -> Fraction, for exact measure checks.
    unnormalized: allow total mass != 1.

    Construction only stores the tables, taking ``compose_rows`` over rather
    than copying it; call :func:`validate_groupoid` (or ``.validate()``)
    before using any other operation.  Validation maps the rows to positions
    once, into ``pairs``, and then drops them (``compose_rows`` is None);
    ``compose`` is a read-only mapping (g, h) -> gh served from ``pairs``,
    its items in row order.  ``unit_masses`` holds the masses in unit order
    once validated.
    """

    def __init__(
        self,
        units: Sequence[str],
        mass: Mapping[str, float],
        arrows: Sequence[tuple[str, str, str]],
        compose_rows: Sequence[str],
        inverse: Mapping[str, str],
        unit_arrows: Mapping[str, str],
        *,
        exact_mass: Optional[Mapping[str, Fraction]] = None,
        unnormalized: bool = False,
    ):
        self.units = tuple(units)
        self.mass = {u: float(mass[u]) for u in self.units}
        self.exact_mass = dict(exact_mass) if exact_mass is not None else None
        self.unnormalized = bool(unnormalized)
        ids, srcs, tgts = tuple(zip(*arrows)) or ((), (), ())
        self.arrow_order = ids
        self.src = dict(zip(ids, srcs))
        self.tgt = dict(zip(ids, tgts))
        self.compose_rows = compose_rows
        self.inverse = dict(inverse)
        self.unit_arrow = dict(unit_arrows)
        self.validated = False
        self.flags: Optional[ValidationFlags] = None
        self.pairs: Optional[PairTable] = None
        self.unit_masses: Optional[np.ndarray] = None
        self._unit_arrow_ids = frozenset(self.unit_arrow.values())
        self._index = dict(zip(ids, range(len(ids))))
        self._arrows: Optional[tuple[Arrow, ...]] = None
        self._by_unit: Optional[tuple[dict[str, tuple[str, ...]], ...]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """The arrows as ``Arrow`` triples in storage order, built on first read."""
        if self._arrows is None:
            self._arrows = tuple(map(Arrow, self.arrow_order, self.src.values(), self.tgt.values()))
        return self._arrows

    @property
    def compose(self) -> Mapping[tuple[str, str], str]:
        """The composition table (g, h) -> gh, read from ``pairs``."""
        return _ComposeView(self)  # made on each read: a stored view would form a cycle

    def arrow_index(self, g: str) -> int:
        return self._index[g]

    def sort_arrows(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Arrow ids in storage order (the canonical order everywhere)."""
        return tuple(sorted(ids, key=self._index.__getitem__))

    def by_source(self, x: str) -> tuple[str, ...]:
        """The arrows with source x, in storage order; ``by_target`` likewise.
        Both maps are built on first use."""
        return self._fans()[0].get(x, ())

    def by_target(self, x: str) -> tuple[str, ...]:
        return self._fans()[1].get(x, ())

    def _fans(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        if self._by_unit is None:
            fans = {u: [] for u in self.units}, {u: [] for u in self.units}
            for a in self.arrow_order:
                fans[0][self.src[a]].append(a)
                fans[1][self.tgt[a]].append(a)
            self._by_unit = tuple({u: tuple(v) for u, v in fan.items()} for fan in fans)
        return self._by_unit

    @property
    def unit_arrow_set(self) -> frozenset[str]:
        return self._unit_arrow_ids

    @property
    def positive_units(self) -> frozenset[str]:
        return frozenset(u for u in self.units if self.mass[u] > 0.0)

    def is_unit_arrow(self, g: str) -> bool:
        return g in self._unit_arrow_ids

    def pair_position(self, g: str, h: str) -> int:
        """The position of the pair (g, h) in ``pairs``; KeyError when an
        arrow is unknown or the two do not compose."""
        t, x, y = self._pair_table(), self._index[g], self._index[h]
        if t.src[x] != t.tgt[y]:
            raise KeyError((g, h))
        return int(t.start[y] + t.rank[x])

    def conjugate(self, g: str, h: str) -> Optional[str]:
        """g h g^-1, or None when not composable."""
        gh = self.compose.get((g, h))
        if gh is None:
            return None
        return self.compose.get((gh, self.inverse[g]))

    def composable_pairs(self) -> Iterable[tuple[str, str]]:
        for h in self.arrow_order:
            for g in self.by_source(self.tgt[h]):
                yield (g, h)

    # -- validation ------------------------------------------------------

    def validate(self) -> "MeasuredGroupoid":
        if self.compose_rows is None:  # dropped by an earlier validation
            self.compose_rows = [x for (g, h), gh in self.compose.items() for x in (g, h, gh)]
        unit = {u: i for i, u in enumerate(self.units)}
        if len(unit) != len(self.units):
            count = Counter(self.units)
            raise BadUnit("duplicate unit identifiers", [u for u in unit if count[u] > 1])
        if len(self._index) != len(self.arrow_order):
            seen: set[str] = set()
            dupes = []
            for a in self.arrow_order:
                if a in seen:
                    dupes.append(a)
                seen.add(a)
            raise DanglingReference("duplicate arrow identifiers", dupes)

        unit_set = set(self.units)
        for u in self.units:
            if self.mass[u] < 0.0:
                raise BadUnit(f"negative mass at unit {u!r}", [u])
        if self.exact_mass is not None:
            if set(self.exact_mass) != unit_set:
                raise BadUnit("exact masses must cover exactly the units")
            for u in self.units:
                if abs(float(self.exact_mass[u]) - self.mass[u]) > MASS_TOL:
                    raise BadUnit(f"exact and float mass disagree at {u!r}", [u])
            normalized = sum(self.exact_mass.values()) == 1
        else:
            normalized = abs(math.fsum(self.mass.values()) - 1.0) <= MASS_TOL
        if not normalized and not self.unnormalized:
            raise BadUnit(
                "unit masses do not sum to 1 (pass unnormalized=True to allow)"
            )

        # Every table in positions, -1 for an unknown id.  None, which is no
        # id, ends src_ and tgt_ with a -1: an unknown arrow's endpoints.
        n, k, m, fields = map(len, (self.arrow_order, self.unit_arrow, self.inverse, self.compose_rows))
        if fields % 3:
            raise GroupoidError("compose rows must hold three ids: g h gh")
        src_, tgt_, x = _positions(unit, chain(
            self.src.values(), [None], self.tgt.values(), [None], self.unit_arrow
        ), n + 1, n + 1, k)
        e, g, gi, table = _positions(self._index, chain(
            self.unit_arrow.values(), self.inverse, self.inverse.values(), self.compose_rows,
        ), k, m, m, fields)
        src, tgt = src_[:-1], tgt_[:-1]
        bad = (src < 0) | (tgt < 0)
        if bad.any():
            a = self.arrow_order[bad.argmax()]
            raise DanglingReference(f"arrow {a!r} references unknown unit", [a])

        if set(self.unit_arrow) != unit_set:
            missing = sorted(unit_set - set(self.unit_arrow))
            raise BadUnit("unit_arrows must be defined for every unit", missing)
        found = _first_row(e < 0, (src_[e] != x) | (tgt_[e] != x))
        if found is not None:
            u, a = next(islice(self.unit_arrow.items(), found[0], None))
            raise (
                DanglingReference(f"unit arrow {a!r} of {u!r} is not an arrow", [a]),
                BadUnit(f"unit arrow {a!r} is not a loop at {u!r}", [a]),
            )[found[1]]
        unit_arrow = np.empty(len(unit), dtype=np.intp)
        unit_arrow[x] = e
        inv = np.full(n + 1, -1)  # the inverse of each arrow, and of none
        inv[g] = gi
        self._unit_arrow_ids = frozenset(self.unit_arrow.values())

        pairs = self._table_in_positions(
            src_, tgt_, *table.reshape(-1, 3).T, inv[:-1], unit_arrow
        )
        prod, start, rank = pairs.prod, pairs.start, pairs.rank

        # inversion: an involution giving the unit arrows.  A row that fails
        # a check may point outside the table, where clip keeps it; its later
        # checks are not read.
        if set(self.inverse) != set(self._index):
            missing = sorted(set(self._index) - set(self.inverse))
            raise BadInverse("inverse must be defined for every arrow", missing)
        found = _first_row(
            gi < 0,
            inv[gi] != g,
            (src_[gi] != tgt[g]) | (tgt_[gi] != src[g]),
            prod.take(start[gi] + rank[g], mode="clip") != unit_arrow[tgt[g]],
            prod.take(start[g] + rank[gi], mode="clip") != unit_arrow[src[g]],
        )
        if found is not None:
            a, b = next(islice(self.inverse.items(), found[0], None))
            raise (
                DanglingReference(f"inverse of {a!r} is unknown", [a, b]),
                BadInverse(f"inverse is not an involution at {a!r}", [a, b]),
                BadInverse(f"inverse of {a!r} has wrong endpoints", [a, b]),
                BadInverse(f"g * g^-1 is not the unit at tgt({a!r})", [a]),
                BadInverse(f"g^-1 * g is not the unit at src({a!r})", [a]),
            )[found[1]]

        every = np.arange(n)
        found = _first_row(
            prod[start[unit_arrow[src]] + rank] != every,
            prod[start + rank[unit_arrow[tgt]]] != every,
        )
        if found is not None:
            a = self.arrow_order[found[0]]
            raise (
                BadUnit(f"unit arrow not right-neutral at {a!r}", [a]),
                BadUnit(f"unit arrow not left-neutral at {a!r}", [a]),
            )[found[1]]

        # associativity over every composable triple on a small table; on a
        # larger one on the generators first, and over every triple only to
        # name the first failing one
        def fails(xy, yz, xy_z, x_yz):
            return prod[xy_z] != prod[x_yz]
        fan = np.bincount(src, minlength=len(unit))
        if (fan[src] @ fan[tgt] <= _FULL_PASS_TRIPLES
                or pairs.first_failure(fails, "xy", pairs.generators()) is not None):
            found = pairs.first_failure(fails, "xy")
            if found is not None:
                g, h, k = (self.arrow_order[i] for i in found)
                raise NonAssociative(
                    f"(g h) k != g (h k) for ({g!r},{h!r},{k!r})", [g, h, k]
                )

        mass = np.fromiter(map(self.mass.__getitem__, self.units), float, len(unit))
        nonsingular = bool(((mass[src] == 0.0) == (mass[tgt] == 0.0)).all())
        if self.exact_mass is not None:
            exact = np.array([self.exact_mass[u] for u in self.units], dtype=object)
            pmp = bool((exact[src] == exact[tgt]).all())
        else:
            pmp = bool((np.abs(mass[src] - mass[tgt]) <= MASS_TOL).all())
        self.pairs, self.unit_masses = pairs, mass
        self.compose_rows = None  # every later read goes through pairs
        self.flags = ValidationFlags(
            nonsingular=nonsingular, pmp=pmp, mass_normalized=normalized
        )
        self.validated = True
        return self

    def _table_in_positions(self, src_, tgt_, g, h, gh, inv, unit_arrow) -> PairTable:
        """The composition table in positions; it must hold each composable
        pair once and nothing else, each product having the right endpoints.
        Row i is g[i] h[i] = gh[i]; the other arguments are as in validate."""
        found = _first_row(g < 0, h < 0, gh < 0, tgt_[h] != src_[g],
                           (src_[gh] != src_[h]) | (tgt_[gh] != tgt_[g]))
        if found is not None:
            a, b, ab = self.compose_rows[3 * found[0] : 3 * found[0] + 3]
            raise (
                *(DanglingReference(f"compose entry ({a!r},{b!r})->{ab!r} uses unknown arrow",
                                    [c]) for c in (a, b, ab)),
                BadUnit(f"compose({a!r},{b!r}) defined but tgt(h) != src(g)", [a, b]),
                BadUnit(f"product {ab!r} of ({a!r},{b!r}) has wrong endpoints", [a, b, ab]),
            )[found[1]]

        src, tgt = src_[:-1], tgt_[:-1]
        fan = np.bincount(src, minlength=len(self.units))
        rank = np.argsort(np.argsort(src, kind="stable")) - (np.cumsum(fan) - fan)[src]
        count = fan[tgt]  # pairs with each arrow as right factor
        start = np.cumsum(count) - count
        at, size = start[h] + rank[g], int(count.sum())
        hits = np.bincount(at, minlength=size)
        if hits.max(initial=1) > 1:
            order = np.argsort(at, kind="stable")  # a row repeats the one before it
            i = int(order[1:][at[order[1:]] == at[order[:-1]]].min())
            a, b = self.compose_rows[3 * i : 3 * i + 2]
            raise DanglingReference(f"compose row for ({a!r},{b!r}) repeats an earlier row",
                                    [a, b])
        if len(at) < size:  # the rows are distinct composable pairs, not all
            p = int(hits.argmin())
            y = int(np.searchsorted(start, p, side="right")) - 1
            b = self.arrow_order[y]
            a = self.by_source(self.tgt[b])[p - start[y]]
            raise DanglingReference(f"missing composition for composable pair ({a!r},{b!r})",
                                    [a, b])
        left, right, prod, row = (np.empty(size, dtype=np.intp) for _ in range(4))
        left[at], right[at], prod[at], row[at] = g, h, gh, np.arange(len(at))
        roots = np.arange(len(fan))  # the unit arrow of u runs into u
        np.minimum.at(roots, tgt, src)
        return PairTable(left, right, prod, row, src, tgt, start, rank, inv, unit_arrow, roots)

    def _require_validated(self):
        if not self.validated:
            raise GroupoidError("groupoid has not been validated")

    def _pair_table(self) -> PairTable:
        self._require_validated()
        return self.pairs

    # -- structural operations --------------------------------------------

    def iso_subgroupoid(self) -> frozenset[str]:
        """Arrows with equal source and target (includes all unit arrows)."""
        t = self._pair_table()
        return frozenset(compress(self.arrow_order, t.src == t.tgt))

    def orbits(self) -> tuple[frozenset[str], ...]:
        """Partition of units generated by (src, tgt) pairs, in unit order."""
        roots = self._pair_table().roots
        return self._orbits_of(np.flatnonzero(roots == np.arange(len(roots))))

    def _orbits_of(self, roots: np.ndarray) -> tuple[frozenset[str], ...]:
        """The orbits of the given least units, by name."""
        of = self.pairs.roots
        return tuple(frozenset(compress(self.units, of == r)) for r in roots.tolist())

    def _positive_orbits(self) -> np.ndarray:
        """The least units of the orbits that carry positive mass, in order."""
        carries = np.zeros(len(self.units), dtype=bool)
        carries[self._pair_table().roots[self.unit_masses > 0.0]] = True
        return np.flatnonzero(carries)

    def is_ergodic(self) -> ErgodicityVerdict:
        """True when a single orbit carries all the positive mass."""
        positive = self._positive_orbits()
        if len(positive) <= 1:
            return ErgodicityVerdict(True)
        return ErgodicityVerdict(False, witness=self._orbits_of(positive[:2]))

    def arrow_measure(self, ids: Iterable[str], side: str = "source") -> float:
        """Mass of an arrow set: sum of unit masses at each arrow's base."""
        self._require_validated()
        if side == "source":
            base = self.src
        elif side == "target":
            base = self.tgt
        else:
            raise ValueError(f"side must be 'source' or 'target', got {side!r}")
        return math.fsum(self.mass[base[g]] for g in ids)

    def restrict(self, keep: Iterable[str]) -> tuple["MeasuredGroupoid", float]:
        """Subgroupoid over a unit subset, with mass renormalized.

        Returns (restricted groupoid, renormalization factor); masses were
        divided by the factor, i.e. factor == mass kept.
        """
        self._require_validated()
        keep_set = set(keep)
        unknown = keep_set - set(self.units)
        if unknown:
            raise DanglingReference("restriction units not in groupoid",
                                    sorted(unknown))
        total = math.fsum(self.mass[u] for u in keep_set)
        if total <= 0.0:
            raise EmptyRestriction("restriction carries zero mass")
        units = tuple(u for u in self.units if u in keep_set)
        kept = [a for a in self.arrows
                if a.src in keep_set and a.tgt in keep_set]
        kept_ids = {a.id for a in kept}
        rows = [
            x for (g, h), gh in self.compose.items()
            if g in kept_ids and h in kept_ids for x in (g, h, gh)
        ]
        exact = None
        if self.exact_mass is not None:
            etotal = sum(self.exact_mass[u] for u in keep_set)
            if etotal > 0:
                exact = {u: self.exact_mass[u] / etotal for u in units}
        sub = MeasuredGroupoid(
            units,
            {u: self.mass[u] / total for u in units},
            [(a.id, a.src, a.tgt) for a in kept],
            rows,
            {a.id: self.inverse[a.id] for a in kept},
            {u: self.unit_arrow[u] for u in units},
            exact_mass=exact,
        )
        return sub.validate(), total

    def is_full(self, keep: Iterable[str]) -> Fullness:
        """Whether every unit (resp. positive-mass unit) is reachable from K."""
        self._require_validated()
        keep_set = set(keep)
        reachable = {
            a.tgt for a in self.arrows if a.src in keep_set
        }
        borel = all(u in reachable for u in self.units)
        mu = all(u in reachable for u in self.units if self.mass[u] > 0.0)
        return Fullness(borel_full=borel, mu_full=mu)

    # -- arrow-set algebra -------------------------------------------------

    def mul_sets(self, left: Iterable[str], right: Iterable[str]) -> frozenset[str]:
        """Pointwise product set {gh | g in left, h in right, composable}."""
        self._require_validated()
        out = set()
        left = list(left)
        for h in right:
            x = self.tgt[h]
            for g in left:
                if self.src[g] == x:
                    out.add(self.compose[(g, h)])
        return frozenset(out)

    def inv_set(self, ids: Iterable[str]) -> frozenset[str]:
        return frozenset(self.inverse[g] for g in ids)

    def is_bisection(self, ids: Iterable[str]) -> bool:
        """Source and target both injective on the set."""
        self._require_validated()
        ids = list(ids)
        srcs = {self.src[g] for g in ids}
        tgts = {self.tgt[g] for g in ids}
        return len(srcs) == len(ids) and len(tgts) == len(ids)


def validate_groupoid(g: MeasuredGroupoid) -> MeasuredGroupoid:
    """Check every groupoid axiom on the stored tables; returns the input.

    Raises :class:`BadUnit`, :class:`DanglingReference`, :class:`BadInverse`
    or :class:`NonAssociative` naming the offending identifiers.  Whether
    (G, mu) is nonsingular or pmp is recorded in ``g.flags``, not raised.
    Each table is mapped to integer positions once, and each axiom is one
    mask over those arrays.  Associativity is checked on the composable
    triples of ``g.pairs``, the composition table in positions.  A small
    table, of at most _FULL_PASS_TRIPLES triples, takes one pass over every
    triple, which costs less there.  A larger one is checked first on the
    triples whose middle arrow is one of ``PairTable.generators()``: a few
    arrows whose products with the unit arrows reach every arrow, which
    suffices (Light's test, proved there); only when a triple fails there
    does the pass over every triple run, to name the first failing one.
    Either route names the same triple.  The fault named
    is the first met when the checks run in the order units, arrows, unit
    arrows, compose rows, a composable pair given twice, one not given,
    inverse entries, unit neutrality per arrow, triples; within each, rows
    count in the table's stored order (pairs in ``composable_pairs()``
    order, triples as ``PairTable.first_failure`` orders them), an unknown
    id first in a row.
    """
    return g.validate()


def check_isomorphism(
    a: MeasuredGroupoid,
    b: MeasuredGroupoid,
    unit_map: Mapping[str, str],
    arrow_map: Mapping[str, str],
    *,
    check_mass: bool = False,
) -> bool:
    """Verify that explicit unit/arrow bijections form a groupoid isomorphism,
    with equal masses within ``ISOMORPHISM_MASS_TOL`` if ``check_mass``."""
    a._require_validated()
    b._require_validated()
    if sorted(unit_map) != sorted(a.units) or sorted(unit_map.values()) != sorted(b.units):
        return False
    if sorted(arrow_map) != sorted(a.arrow_order):
        return False
    if sorted(arrow_map.values()) != sorted(b.arrow_order):
        return False
    for g in a.arrow_order:
        if b.src[arrow_map[g]] != unit_map[a.src[g]]:
            return False
        if b.tgt[arrow_map[g]] != unit_map[a.tgt[g]]:
            return False
        if arrow_map[a.inverse[g]] != b.inverse[arrow_map[g]]:
            return False
    for (g, h), gh in a.compose.items():
        if b.compose.get((arrow_map[g], arrow_map[h])) != arrow_map[gh]:
            return False
    if check_mass:
        for u in a.units:
            if abs(a.mass[u] - b.mass[unit_map[u]]) > ISOMORPHISM_MASS_TOL:
                return False
    return True
