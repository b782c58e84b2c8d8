"""Decomposition of a groupoid into disjoint bisections.

A *basis* is a partition of the arrow set into bisections, one of which is
exactly the set of unit arrows.  In a *symmetric* basis the inverse of every
block is again a block.  The decomposition is computed greedily in arrow
storage order, so it is a pure function of the stored tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .groupoid import GroupoidError, MeasuredGroupoid


@dataclass(frozen=True)
class Basis:
    """Ordered bisection blocks partitioning an arrow set.

    ``unit_block`` is the index of the block equal to the unit arrows (or the
    conjugated unit arrows, for a basis of a subgroupoid).
    """

    blocks: tuple[tuple[str, ...], ...]
    symmetric: bool
    unit_block: int

    def block_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    def all_arrows(self) -> frozenset[str]:
        return frozenset(g for b in self.blocks for g in b)


def _greedy_blocks(
    g: MeasuredGroupoid, pool: list[str], symmetric: bool
) -> list[tuple[str, ...]]:
    """Partition ``pool`` into bisections, greedily in storage order.

    In symmetric mode each extracted block either consists entirely of
    self-inverse arrows (the block is then its own inverse) or contains no
    arrow together with its inverse; in the latter case the exact inverse set
    is emitted as the following block.  This splitting is what makes the
    resulting partition closed under inversion.
    """
    t, name = g.pairs, g.arrow_order
    inv, src, tgt = t.inv.tolist(), t.src.tolist(), t.tgt.tolist()
    blocks: list[tuple[str, ...]] = []
    remaining = list(map(g.arrow_index, pool))
    while remaining:
        self_inv0 = inv[remaining[0]] == remaining[0]
        used_src: set[int] = set()
        used_tgt: set[int] = set()
        block: dict[int, None] = {}  # in storage order
        for a in remaining:
            if symmetric and ((inv[a] == a) != self_inv0 or not self_inv0 and inv[a] in block):
                continue
            if src[a] in used_src or tgt[a] in used_tgt:
                continue
            block[a] = None
            used_src.add(src[a])
            used_tgt.add(tgt[a])
        taken = [list(block)]
        if symmetric and not self_inv0:
            taken.append(sorted(inv[a] for a in block))
        blocks.extend(tuple(name[a] for a in b) for b in taken)
        done = set().union(*taken)
        remaining = [a for a in remaining if a not in done]
    return blocks


def build_basis(g: MeasuredGroupoid, symmetric: bool = True) -> Basis:
    """Partition all arrows into bisections, with the unit arrows first.

    The result is a basis by construction, so ``check_basis`` is not rerun:
    a block admits an arrow only when its source and target are unused in
    it, and each pool arrow leaves ``remaining`` once.  In symmetric mode a
    block is followed by its inverse, which no earlier block has taken: that
    block's own inverse would then have taken the arrow first.
    """
    unit_block = g.sort_arrows(g.unit_arrow_set)
    pool = [a for a in g.arrow_order if a not in g.unit_arrow_set]
    blocks = [unit_block] + _greedy_blocks(g, pool, symmetric)
    return Basis(tuple(blocks), symmetric=symmetric, unit_block=0)


def conjugate_basis(g: MeasuredGroupoid, basis: Basis, window: Iterable[str]) -> Basis:
    """Transport a basis along conjugation by a bisection C: blocks C B C^-1.

    The result is a basis of the subgroupoid C G C^-1, whose unit space is
    the target set of C.  Blocks that conjugate to the empty set are dropped.
    An arrow b goes to c b d^-1, c and d the arrows of C with source t(b)
    and s(b), read from ``g.pairs`` by position; b goes nowhere when either
    is missing.
    """
    window = list(window)
    if not g.is_bisection(window):
        raise GroupoidError("conjugating set must be a bisection")
    t, at = g.pairs, np.fromiter(map(g.arrow_index, window), np.intp, len(window))
    win = np.full(len(g.units), -1)
    win[t.src[at]] = at
    # position -1 is no arrow: the product of no pair, and the inverse of none
    prod, inv, b = np.append(t.prod, -1), np.append(t.inv, -1), np.arange(len(t.src))
    image = prod[t.at(prod[t.at(win[t.tgt], b)], inv[win[t.src]])]
    blocks: list[tuple[str, ...]] = []
    unit_index: Optional[int] = None
    for i, block in enumerate(basis.blocks):
        conj = np.setdiff1d(image[np.fromiter(map(g.arrow_index, block), np.intp, len(block))], -1)
        if not len(conj):
            continue
        if i == basis.unit_block:
            unit_index = len(blocks)
        blocks.append(tuple(g._names(g.arrow_order, conj)))
    if unit_index is None:
        raise GroupoidError("conjugation of the unit block vanished")
    return Basis(tuple(blocks), symmetric=basis.symmetric, unit_block=unit_index)


def extend_iso_basis(g: MeasuredGroupoid, iso_basis: Basis) -> Basis:
    """Extend a basis of the isotropy subgroupoid to a basis of all of G.

    The complement of the isotropy is partitioned greedily into bisections
    disjoint from the given blocks.
    """
    iso = g.iso_subgroupoid()
    if iso_basis.all_arrows() != iso:
        raise GroupoidError("given blocks do not partition the isotropy")
    pool = [a for a in g.arrow_order if a not in iso]
    extra = _greedy_blocks(g, pool, iso_basis.symmetric)
    basis = Basis(
        iso_basis.blocks + tuple(extra),
        symmetric=iso_basis.symmetric,
        unit_block=iso_basis.unit_block,
    )
    check_basis(g, basis)
    return basis


def check_basis(g: MeasuredGroupoid, basis: Basis) -> None:
    """Assert the basis axioms: disjoint bisections covering every arrow,
    the designated block the unit arrows, and closure under inversion if
    the basis is symmetric."""
    arrows = frozenset(g.arrow_order)
    seen: set[str] = set()
    for block in basis.blocks:
        if not block:
            raise GroupoidError("empty basis block")
        if not g.is_bisection(block):
            raise GroupoidError("basis block is not a bisection", block)
        bset = set(block)
        if seen & bset:
            raise GroupoidError("basis blocks are not disjoint", sorted(seen & bset))
        seen |= bset
    if seen != arrows:
        raise GroupoidError("basis blocks do not cover the arrow set")
    unit_block = frozenset(basis.blocks[basis.unit_block])
    if unit_block != arrows & g.unit_arrow_set:
        raise GroupoidError("designated unit block is not the unit arrows")
    if basis.symmetric:
        sets = {frozenset(b) for b in basis.blocks}
        for b in basis.blocks:
            if frozenset(g.inverse[a] for a in b) not in sets:
                raise GroupoidError("symmetric basis not closed under inversion", b)
