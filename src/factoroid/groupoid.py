"""Finite discrete measured groupoids as explicit composition tables.

A groupoid here is a finite set of arrows with source/target maps into a
finite weighted unit space, a stored composition table, a stored inversion
table, and an embedding of units as identity arrows.  Units and arrows are
numbered in storage order and carry plain string identifiers, which keeps
instances serializable and diffable.  The constructor takes every table in
those positions: builders compute them with numpy, and the parser maps a
file's names to positions once.  The first read of the composition table
validates the axioms on the arrays and keeps it as ``PairTable``; orbits,
isotropy and masses (``unit_masses``) are read by position too.  The names
are an output view, built on first use: the ``src``/``tgt``/``inverse``/
``unit_arrow`` dicts and the ``arrows`` triples once, ``compose`` and
``composable_pairs()`` per read.

All mass bookkeeping treats zero-mass ("null") units as structurally present
but measure-theoretically invisible: measure computations weight arrows by the
mass of their source (or target) unit, so null-based arrows contribute
nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
import functools
from functools import reduce
from itertools import compress
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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


class Arrow(NamedTuple):
    id: str
    src: str
    tgt: str


class ValidationFlags(NamedTuple):
    """Measure-theoretic facts recorded by validation, not axioms."""

    nonsingular: bool  # mass(s(g)) == 0 iff mass(t(g)) == 0, for every arrow
    pmp: bool          # mass(s(g)) == mass(t(g)) for every arrow
    mass_normalized: bool


class Fullness(NamedTuple):
    borel_full: bool
    mu_full: bool


class ErgodicityVerdict(NamedTuple):
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
    is the place of x among the fan[u] arrows with its source u.  The orbit
    of unit u is named by its least unit roots[u], the least source of an
    arrow into u, since an orbit has an arrow between any two units.
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
    fan: np.ndarray

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
        count = self.fan[self.tgt[h]]
        i = np.arange(len(h)).repeat(count)
        p = np.arange(len(i)) + (self.start[h] - (count.cumsum() - count)).repeat(count)
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

        A triple is a pair (y, z) and a rank j < s, s = fan[t(y)] the number of
        arrows x with source t(y): xy = start[y] + j and x(yz) = start[yz] + j.  The
        triples are visited in 2-D blocks, pairs times ranks, of at most about
        _TRIPLE_BLOCK entries (see ``_triple_blocks``).
        """
        n = len(self.src)
        if middles is None:
            pairs = np.arange(len(self.left))
        else:  # the pairs whose left arrow is a middle
            pairs = np.bincount(middles, minlength=n)[self.left].nonzero()[0]
        best = None
        for yz, j in _triple_blocks(pairs, self.fan[self.tgt[self.left[pairs]]]):
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
        root, first = self.roots, np.zeros(k, dtype=np.intp) + n
        from_root = (self.src == root[self.tgt]).nonzero()[0]
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
            missed = (~reached).nonzero()[0]
            if not len(missed):
                return np.concatenate(found)
            first[:] = n  # the first missed arrow of each orbit
            np.minimum.at(first, orbit[missed], missed)
            found.append(first[first < n])

    def over(self, units: np.ndarray) -> tuple["PairTable", np.ndarray | slice]:
        """The table of the arrows with source in ``units``, a mask of the
        units that is a union of orbits, numbered in storage order (a unit
        not in ``units`` keeps its number and root and gets unit arrow -1);
        and an index of its pairs here, in its order (a slice if all)."""
        if units.all():
            return self, slice(None)
        kept = units[self.src]
        arrows, at = kept.nonzero()[0], kept.cumsum() - 1  # at: the place of a kept arrow
        pairs = kept[self.right].nonzero()[0]
        count = self.fan[self.tgt[arrows]]
        table = PairTable(
            at[self.left[pairs]], at[self.right[pairs]], at[self.prod[pairs]],
            self.row[pairs], self.src[arrows], self.tgt[arrows], count.cumsum() - count,
            self.rank[arrows], at[self.inv[arrows]], np.where(units, at[self.unit_arrow], -1),
            self.roots, self.fan * units,
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
    order = size.argsort(kind="stable")
    pairs, size = pairs[order], size[order]
    cuts = ((size[1:] != size[:-1]).nonzero()[0] + 1).tolist()
    for first, end in zip([0, *cuts], [*cuts, len(pairs)]):
        s = int(size[first])
        j, step = np.arange(s), max(1, _TRIPLE_BLOCK // s)
        for lo in range(first, end, step):
            yield pairs[lo : min(lo + step, end), None], j


def _first_row(*masks: np.ndarray) -> Optional[tuple[int, int]]:
    """The first row on which one of the masks holds, and the first mask
    that holds there; None if none does."""
    rows = reduce(np.logical_or, masks)
    if not rows.any():
        return None
    r = int(rows.argmax())
    return r, next(i for i, mask in enumerate(masks) if mask[r])


def _known(at: np.ndarray, n: int) -> np.ndarray:
    """The positions ``at`` with every one outside [0, n) made -1; ``at``
    itself when all are inside (a negative one reads as a large unsigned)."""
    if at.view(np.uintp).max(initial=0) < n:
        return at
    return np.where((at >= 0) & (at < n), at, -1)


class _ComposeView(Mapping):
    """The composition table (g, h) -> gh of a validated groupoid, read from
    ``g.pairs``: length, lookups and items in table row order, by position."""

    __slots__ = ("_g",)

    def __init__(self, g: "MeasuredGroupoid"):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.pairs.left)

    def __getitem__(self, key: tuple[str, str]) -> str:
        return self._g.arrow_order[self._g.pairs.prod[self._g.pair_position(*key)]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return (pair for pair, _ in self.items())

    def items(self) -> Iterator[tuple[tuple[str, str], str]]:
        g = self._g
        g.pairs  # validates first: the rows as given are never named unchecked
        for x, y, xy in zip(*g._compose_rows().tolist()):
            yield (g.arrow_order[x], g.arrow_order[y]), g.arrow_order[xy]


class MeasuredGroupoid:
    """A finite groupoid with a weighted unit space, given by its tables in
    integer positions: units and arrows are numbered in storage order.

    Parameters
    ----------
    units:        ordered unit identifiers.
    mass:         the mass of each unit, in unit order (probability atoms).
    labels:       ordered arrow identifiers, one per arrow.
    src, tgt:     the source and target unit of each arrow (-1: none).
    compose:      the composition table as three int arrays (g, h, gh), row i
                  g[i] h[i] = gh[i]: one row for each pair with tgt(h) ==
                  src(g), the product running h first.
    inverse:      the inversion table as two int arrays (g, g^-1), a row for
                  each arrow.
    unit_arrows:  the unit-arrow table as two int arrays (u, e), a row for
                  each unit.
    unknown:      ids that the tables name but no arrow has, for fault
                  messages: position len(labels) + j stands for unknown[j];
                  a unit or arrow key outside the positions names nothing.
    exact_mass:   optional unit id -> Fraction, for exact measure checks.
    unnormalized: allow total mass != 1.

    Construction only stores the arrays; the first read of ``pairs`` or
    ``flags`` validates them, raising a fault as :func:`validate_groupoid`
    (the explicit check) does, and again at every later read.  ``pairs`` is
    the composition table, which ``compose``, a read-only mapping (g, h) ->
    gh in row order, and a later validation read.  The dicts by
    identifier ``src``, ``tgt``, ``inverse`` and ``unit_arrow`` (the last two
    in table row order) are views, as are ``arrows``, ``unit_arrow_set`` and
    ``mass``, unit id -> mass.
    """

    def __init__(
        self,
        units: Sequence[str],
        mass: Sequence[float],
        labels: Sequence[str],
        src: Sequence[int],
        tgt: Sequence[int],
        compose: tuple[Sequence[int], Sequence[int], Sequence[int]],
        inverse: tuple[Sequence[int], Sequence[int]],
        unit_arrows: tuple[Sequence[int], Sequence[int]],
        *,
        unknown: Sequence[str] = (),
        exact_mass: Optional[Mapping[str, Fraction]] = None,
        unnormalized: bool = False,
    ):
        self.units = tuple(units)
        self.unit_masses = np.array(mass, dtype=float)
        self.exact_mass = dict(exact_mass) if exact_mass is not None else None
        self.unnormalized = bool(unnormalized)
        self.arrow_order = tuple(labels)
        self._src, self._tgt = np.asarray(src, dtype=np.intp), np.asarray(tgt, dtype=np.intp)
        self._rows: Optional[np.ndarray] = np.asarray(compose, dtype=np.intp).reshape(3, -1)
        self._inverse = np.asarray(inverse, dtype=np.intp).reshape(2, -1)
        self._unit_arrows = np.asarray(unit_arrows, dtype=np.intp).reshape(2, -1)
        self._unknown = tuple(unknown)

    # -- name views, built on first read ---------------------------------

    @staticmethod
    def _names(names: Sequence[str], at: np.ndarray) -> list[str]:
        return list(map(names.__getitem__, at.tolist()))

    @functools.cached_property
    def mass(self) -> dict[str, float]:
        return dict(zip(self.units, self.unit_masses.tolist()))

    @functools.cached_property
    def src(self) -> dict[str, str]:
        """Arrow id -> source unit id; ``tgt`` likewise."""
        return dict(zip(self.arrow_order, self._names(self.units, self._src)))

    @functools.cached_property
    def tgt(self) -> dict[str, str]:
        return dict(zip(self.arrow_order, self._names(self.units, self._tgt)))

    @functools.cached_property
    def inverse(self) -> dict[str, str]:
        return dict(zip(*(self._names(self.arrow_order, v) for v in self._inverse)))

    @functools.cached_property
    def unit_arrow(self) -> dict[str, str]:
        """Unit id -> the id of its identity arrow; ``unit_arrow_set`` the ids."""
        x, e = self._unit_arrows
        return dict(zip(self._names(self.units, x), self._names(self.arrow_order, e)))

    @functools.cached_property
    def unit_arrow_set(self) -> frozenset[str]:
        return frozenset(self._names(self.arrow_order, self._unit_arrows[1]))

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.arrow_order, range(len(self.arrow_order))))

    @functools.cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        """The arrows as ``Arrow`` triples in storage order."""
        ends = (self._names(self.units, v) for v in (self._src, self._tgt))
        return tuple(map(Arrow, self.arrow_order, *ends))

    # -- basic accessors -------------------------------------------------

    @property
    def compose(self) -> Mapping[tuple[str, str], str]:
        """The composition table (g, h) -> gh, read from ``pairs``."""
        return _ComposeView(self)  # made on each read: a stored view would form a cycle

    def arrow_index(self, g: str) -> int:
        return self._index[g]

    def sort_arrows(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Arrow ids in storage order (the canonical order everywhere)."""
        return tuple(sorted(ids, key=self._index.__getitem__))

    def is_unit_arrow(self, g: str) -> bool:
        return g in self.unit_arrow_set

    def pair_position(self, g: str, h: str) -> int:
        """The position of the pair (g, h) in ``pairs``; KeyError when an
        arrow is unknown or the two do not compose."""
        t, x, y = self.pairs, self._index[g], self._index[h]
        if t.src[x] != t.tgt[y]:
            raise KeyError((g, h))
        return int(t.start[y] + t.rank[x])

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """The composable pairs (g, h) by name, in the order of ``pairs``."""
        t = self.pairs
        return zip(self._names(self.arrow_order, t.left), self._names(self.arrow_order, t.right))

    def _compose_rows(self) -> np.ndarray:
        """The composition table as rows (g, h, gh) in row order, a 3 x P
        array: as given before validation, read back from ``pairs`` after."""
        if self._rows is not None:
            return self._rows
        t = self.pairs
        rows = np.empty((3, len(t.row)), dtype=np.intp)
        rows[:, t.row] = t.left, t.right, t.prod
        return rows

    def _name(self, at: int) -> str:
        """The identifier at an arrow position, or of an unknown id."""
        n = len(self.arrow_order)
        return self.arrow_order[at] if at < n else self._unknown[at - n]

    # -- validation ------------------------------------------------------

    def validate(self) -> "MeasuredGroupoid":
        units, labels, mass = self.units, self.arrow_order, self.unit_masses
        k, n = len(units), len(labels)
        if len(set(units)) != k:
            count = Counter(units)
            raise BadUnit("duplicate unit identifiers",
                          [u for u in dict.fromkeys(units) if count[u] > 1])
        if len(set(labels)) != n:
            seen: set[str] = set()
            dupes = [a for a in labels if a in seen or seen.add(a)]  # each repeat
            raise DanglingReference("duplicate arrow identifiers", dupes)

        for u, m in zip(units, mass.tolist()):
            if not 0.0 <= m < math.inf:
                raise BadUnit(f"negative mass at unit {u!r}" if m < 0.0 else
                              f"mass at unit {u!r} is not finite", [u])
        if self.exact_mass is not None:
            if set(self.exact_mass) != set(units):
                raise BadUnit("exact masses must cover exactly the units")
            for u, m in zip(units, mass.tolist()):
                if abs(float(self.exact_mass[u]) - m) > MASS_TOL:
                    raise BadUnit(f"exact and float mass disagree at {u!r}", [u])
            normalized = sum(self.exact_mass.values()) == 1
        else:
            normalized = abs(math.fsum(mass.tolist()) - 1.0) <= MASS_TOL
        if not normalized and not self.unnormalized:
            raise BadUnit(
                "unit masses do not sum to 1 (pass unnormalized=True to allow)"
            )

        src, tgt = self._src, self._tgt
        usrc, utgt = src.view(np.uintp), tgt.view(np.uintp)  # -1 reads as large
        if len(src) and max(usrc.max(), utgt.max()) >= k:  # the mask only then
            a = labels[((usrc >= k) | (utgt >= k)).argmax()]
            raise DanglingReference(f"arrow {a!r} references unknown unit", [a])
        # the endpoints and the inverse of each arrow, each row ending with
        # the -1 of an unknown arrow, which every table below names as -1
        src_, tgt_, inv = ends = np.empty((3, n + 1), dtype=np.intp)
        ends.fill(-1)
        ends[:2, :n] = src, tgt

        x, e = self._unit_arrows
        if len(x) != k or set(x.tolist()) != set(range(k)):
            missing = sorted(units[u] for u in set(range(k)) - set(x.tolist()))
            raise BadUnit("unit_arrows must be defined for every unit", missing)
        known = _known(e, n)
        found = _first_row(known < 0, (src_[known] != x) | (tgt_[known] != x))
        if found is not None:
            u, a = units[x[found[0]]], self._name(int(e[found[0]]))
            raise (
                DanglingReference(f"unit arrow {a!r} of {u!r} is not an arrow", [a]),
                BadUnit(f"unit arrow {a!r} is not a loop at {u!r}", [a]),
            )[found[1]]
        unit_arrow = np.empty(k, dtype=np.intp)
        unit_arrow[x] = e
        g, gi = _known(self._inverse, n)
        inv[g] = gi

        pairs = self._table_in_positions(src_, tgt_, self._compose_rows(), inv[:-1], unit_arrow)
        prod, start, rank = pairs.prod, pairs.start, pairs.rank

        # inversion: an involution giving the unit arrows.  A row that fails
        # a check may point outside the table, where clip keeps it; its later
        # checks are not read.
        if len(g) != n or set(g.tolist()) != set(range(n)):
            missing = sorted(labels[a] for a in set(range(n)) - set(g.tolist()))
            raise BadInverse("inverse must be defined for every arrow", missing)
        found = _first_row(
            gi < 0,
            inv[gi] != g,
            (src_[gi] != tgt[g]) | (tgt_[gi] != src[g]),
            prod.take(start[gi] + rank[g], mode="clip") != unit_arrow[tgt[g]],
            prod.take(start[g] + rank[gi], mode="clip") != unit_arrow[src[g]],
        )
        if found is not None:
            a, b = labels[g[found[0]]], self._name(int(self._inverse[1, found[0]]))
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
            a = labels[found[0]]
            raise (
                BadUnit(f"unit arrow not right-neutral at {a!r}", [a]),
                BadUnit(f"unit arrow not left-neutral at {a!r}", [a]),
            )[found[1]]

        # associativity over every composable triple on a small table; on a
        # larger one on the generators first, and over every triple only to
        # name the first failing one
        def fails(xy, yz, xy_z, x_yz):
            return prod[xy_z] != prod[x_yz]
        if (pairs.fan[src] @ pairs.fan[tgt] <= _FULL_PASS_TRIPLES
                or pairs.first_failure(fails, "xy", pairs.generators()) is not None):
            found = pairs.first_failure(fails, "xy")
            if found is not None:
                a, b, c = (labels[i] for i in found)
                raise NonAssociative(
                    f"(g h) k != g (h k) for ({a!r},{b!r},{c!r})", [a, b, c]
                )

        nonsingular = bool(((mass[src] == 0.0) == (mass[tgt] == 0.0)).all())
        if self.exact_mass is not None:
            exact = np.array([self.exact_mass[u] for u in units], dtype=object)
            pmp = bool((exact[src] == exact[tgt]).all())
        else:
            pmp = bool((np.abs(mass[src] - mass[tgt]) <= MASS_TOL).all())
        self.pairs, self._rows = pairs, None  # every later read goes through pairs
        self.flags = ValidationFlags(
            nonsingular=nonsingular, pmp=pmp, mass_normalized=normalized
        )
        return self

    @functools.cached_property
    def pairs(self) -> PairTable:
        """The composition table in positions; the first read validates."""
        return self.validate().pairs

    @functools.cached_property
    def flags(self) -> ValidationFlags:
        """What validation recorded; the first read validates."""
        return self.validate().flags

    def _table_in_positions(self, src_, tgt_, rows, inv, unit_arrow) -> PairTable:
        """The composition table in positions; it must hold each composable
        pair once and nothing else, each product having the right endpoints.
        Row i is g[i] h[i] = gh[i], (g, h, gh) = rows; the other arguments
        are as in validate."""
        known = _known(rows, len(self.arrow_order))
        unknown = () if known is rows else tuple(known < 0)  # masks only if an id is unknown
        (g, h, gh), (x, y, xy) = rows, known
        found = _first_row(*unknown, tgt_[y] != src_[x],
                           (src_[xy] != src_[y]) | (tgt_[xy] != tgt_[x]))
        if found is not None:
            a, b, ab = (self._name(int(v[found[0]])) for v in (g, h, gh))
            raise (
                *(DanglingReference(f"compose entry ({a!r},{b!r})->{ab!r} uses unknown arrow",
                                    [c]) for c in (a, b, ab)),
                BadUnit(f"compose({a!r},{b!r}) defined but tgt(h) != src(g)", [a, b]),
                BadUnit(f"product {ab!r} of ({a!r},{b!r}) has wrong endpoints", [a, b, ab]),
            )[found[1] + 3 - len(unknown)]

        src, tgt = src_[:-1], tgt_[:-1]
        fan = np.bincount(src, minlength=len(self.units))
        by_src = src.argsort(kind="stable")  # rank: the place in its source's run
        rank = np.empty_like(by_src)
        rank[by_src] = np.arange(len(src)) - (fan.cumsum() - fan)[src[by_src]]
        count = fan[tgt]  # pairs with each arrow as right factor
        start = count.cumsum() - count
        at, size = start[h] + rank[g], int(count.sum())
        hits = np.bincount(at, minlength=size)
        if hits.max(initial=1) > 1:
            order = at.argsort(kind="stable")  # a row repeats the one before it
            i = int(order[1:][at[order[1:]] == at[order[:-1]]].min())
            a, b = self.arrow_order[g[i]], self.arrow_order[h[i]]
            raise DanglingReference(f"compose row for ({a!r},{b!r}) repeats an earlier row",
                                    [a, b])
        if len(at) < size:  # the rows are distinct composable pairs, not all
            p = int(hits.argmin())
            y = int(start.searchsorted(p, side="right")) - 1
            a = self.arrow_order[(src == tgt[y]).nonzero()[0][p - start[y]]]
            b = self.arrow_order[y]
            raise DanglingReference(f"missing composition for composable pair ({a!r},{b!r})",
                                    [a, b])
        left, right, prod, row = (np.empty(size, dtype=np.intp) for _ in range(4))
        left[at], right[at], prod[at], row[at] = g, h, gh, np.arange(len(at))
        roots = np.arange(len(fan))  # the unit arrow of u runs into u
        np.minimum.at(roots, tgt, src)
        return PairTable(left, right, prod, row, src, tgt, start, rank, inv, unit_arrow, roots, fan)

    # -- structural operations --------------------------------------------

    def iso_subgroupoid(self) -> frozenset[str]:
        """Arrows with equal source and target (includes all unit arrows)."""
        t = self.pairs
        return frozenset(compress(self.arrow_order, t.src == t.tgt))

    def orbits(self) -> tuple[frozenset[str], ...]:
        """Partition of units generated by (src, tgt) pairs, in unit order."""
        roots = self.pairs.roots
        return self._orbits_of((roots == np.arange(len(roots))).nonzero()[0])

    def _orbits_of(self, roots: np.ndarray) -> tuple[frozenset[str], ...]:
        """The orbits of the given least units, by name."""
        of = self.pairs.roots
        return tuple(frozenset(compress(self.units, of == r)) for r in roots.tolist())

    @functools.cached_property
    def _positive_orbits(self) -> np.ndarray:
        """The least units of the orbits that carry positive mass, in order."""
        carries = np.bincount(self.pairs.roots[self.unit_masses > 0.0], minlength=len(self.units))
        return carries.nonzero()[0]

    @functools.cached_property
    def _loops_off_units(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks over the arrows: the loops off the units, and those at a positive unit."""
        t = self.pairs
        off = t.src == t.tgt
        off[t.unit_arrow] = False
        return off, off & (self.unit_masses[t.src] > 0.0)

    def is_ergodic(self) -> ErgodicityVerdict:
        """True when a single orbit carries all the positive mass."""
        positive = self._positive_orbits
        if len(positive) <= 1:
            return ErgodicityVerdict(True)
        return ErgodicityVerdict(False, witness=self._orbits_of(positive[:2]))

    def arrow_measure(self, ids: Iterable[str], side: str = "source") -> float:
        """Mass of an arrow set: sum of unit masses at each arrow's base."""
        t = self.pairs
        if side not in ("source", "target"):
            raise ValueError(f"side must be 'source' or 'target', got {side!r}")
        at = list(map(self._index.__getitem__, ids))
        return math.fsum(self.unit_masses[(t.src if side == "source" else t.tgt)[at]].tolist())

    def restrict(self, keep: Iterable[str]) -> tuple["MeasuredGroupoid", float]:
        """Subgroupoid over a unit subset, with mass renormalized.

        Returns (restricted groupoid, renormalization factor); masses were
        divided by the factor, i.e. factor == mass kept.
        """
        t, keep_set = self.pairs, set(keep)
        unknown = keep_set - set(self.units)
        if unknown:
            raise DanglingReference("restriction units not in groupoid", sorted(unknown))
        kept = np.fromiter(map(keep_set.__contains__, self.units), bool)
        total = math.fsum(self.unit_masses[kept].tolist())
        if total <= 0.0:
            raise EmptyRestriction("restriction carries zero mass")
        inside = kept[t.src] & kept[t.tgt]
        units, arrows = kept.nonzero()[0], inside.nonzero()[0]
        unit_at, at = kept.cumsum() - 1, inside.cumsum() - 1  # read at kept ones only
        rows = self._compose_rows()  # the pair table in row order, masked
        rows = at[rows[:, inside[rows[0]] & inside[rows[1]]]]
        names = [self.units[u] for u in units.tolist()]
        exact = None
        if self.exact_mass is not None:
            etotal = sum(self.exact_mass[u] for u in keep_set)
            if etotal > 0:
                exact = {u: self.exact_mass[u] / etotal for u in names}
        return MeasuredGroupoid(
            names, self.unit_masses[units] / total,
            [self.arrow_order[a] for a in arrows.tolist()],
            unit_at[t.src[arrows]], unit_at[t.tgt[arrows]], rows,
            (np.arange(len(arrows)), at[t.inv[arrows]]),
            (np.arange(len(units)), at[t.unit_arrow[units]]), exact_mass=exact,
        ), total

    def is_full(self, keep: Iterable[str]) -> Fullness:
        """Whether every unit (resp. positive-mass unit) is reachable from K."""
        t, kept = self.pairs, np.fromiter(map(set(keep).__contains__, self.units), bool)
        reached = np.zeros(len(self.units), dtype=bool)
        reached[t.tgt[kept[t.src]]] = True
        return Fullness(borel_full=bool(reached.all()),
                        mu_full=bool(reached[self.unit_masses > 0.0].all()))

    def is_bisection(self, ids: Iterable[str]) -> bool:
        """Source and target both injective on the set."""
        t, at = self.pairs, list(map(self._index.__getitem__, ids))
        return len(at) == len(set(t.src[at].tolist())) == len(set(t.tgt[at].tolist()))


def validate_groupoid(g: MeasuredGroupoid) -> MeasuredGroupoid:
    """Check every groupoid axiom on the stored arrays; returns the input.

    Raises :class:`BadUnit`, :class:`DanglingReference`, :class:`BadInverse`
    or :class:`NonAssociative` naming the offending identifiers.  Whether
    (G, mu) is nonsingular or pmp is recorded in ``g.flags``, not raised.
    The check reads only the arrays the constructor was given, so it is
    independent of the builder that made them; each axiom is one mask over
    them.  Associativity is checked on the composable triples of
    ``g.pairs``, the composition table in positions.  A small table, of at
    most _FULL_PASS_TRIPLES triples, takes one pass over every triple, which
    costs less there.  A larger one is checked first on the triples whose
    middle arrow is one of ``PairTable.generators()``: a few arrows whose
    products with the unit arrows reach every arrow, which suffices (Light's
    test, proved there); only when a triple fails there does the pass over
    every triple run, to name the first failing one.  Either route names the
    same triple.  The fault named is the first met when the checks run in
    the order units (identifiers, then masses: negative, not finite, exact,
    total), arrows, unit arrows, compose rows, a composable pair given
    twice, one not given, inverse entries, unit neutrality per arrow,
    triples; within each, rows count in storage order (compose rows in the
    order given, pairs in ``composable_pairs()`` order, triples as
    ``PairTable.first_failure`` orders them), an unknown id first in a row.
    """
    return g.validate()


def check_isomorphism(
    a: MeasuredGroupoid,
    b: MeasuredGroupoid,
    unit_map: Mapping[str, str],
    arrow_map: Mapping[str, str],
) -> bool:
    """Verify that explicit unit/arrow bijections form a groupoid isomorphism
    of measured groupoids: masses are equal within ``ISOMORPHISM_MASS_TOL``."""
    s, t = a.pairs, b.pairs
    if sorted(unit_map) != sorted(a.units) or sorted(unit_map.values()) != sorted(b.units):
        return False
    if sorted(arrow_map) != sorted(a.arrow_order):
        return False
    if sorted(arrow_map.values()) != sorted(b.arrow_order):
        return False
    unit = dict(zip(b.units, range(len(b.units))))
    u = np.array([unit[unit_map[v]] for v in a.units], dtype=np.intp)
    x = np.array([b._index[arrow_map[g]] for g in a.arrow_order], dtype=np.intp)
    if not all(map(np.array_equal, (t.src[x], t.tgt[x], t.inv[x]),
                   (u[s.src], u[s.tgt], x[s.inv]))):
        return False
    at = t.at(x[s.left], x[s.right])  # the image of each pair of a
    if (at < 0).any() or not np.array_equal(t.prod[at], x[s.prod]):
        return False
    return bool((np.abs(a.unit_masses - b.unit_masses[u]) <= ISOMORPHISM_MASS_TOL).all())
