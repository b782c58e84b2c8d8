"""Instance generation for the workloads.

Every instance is built with factoroid's own constructors from the workload
seed, serialized with factoroid's writer, and handed to the program only as
a file.  ``generate`` and ``serialize`` are timed separately by the caller.

corpus      Full reports on the two acceptance generators in one stream.  A
            report costs roughly n^5 in the positive arrow count n, so a
            plain sample of a hundred instances is dominated by its few
            largest ones, and its total cost swings with them from seed to
            seed.  The pool is therefore stratified: its slots are quantiles
            of the generators' own distribution of (kind, n), ``REFERENCE``,
            and each slot takes the drawn instance of that kind whose n is
            nearest.  Seeds change the instances, not the shape.
dense       Full reports on two large single-orbit instances: the principal
            full relation on 9 units and the three-unit S4 group bundle.

``python3 perfbench/workloads.py`` rebuilds ``REFERENCE`` from the
generators and prints it (about a minute).
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "dense")

# Histograms of the positive arrow count n, by generator and by whether some
# positive unit has nontrivial isotropy, over random_groupoid seeds 0..2999
# and random_twisted_pair seeds 0..1499; ``reference`` rebuilds them.
REFERENCE_SEEDS = {"untwisted": 3000, "twisted": 1500}
REFERENCE = {
    ("untwisted", "principal"): {
        1: 81, 2: 17, 3: 7, 4: 173, 5: 10, 6: 5, 7: 1, 8: 13, 9: 170, 10: 7,
        11: 2, 12: 1, 13: 32, 14: 1, 16: 246, 17: 12, 18: 19, 19: 1, 20: 30,
        22: 1, 23: 1, 24: 4, 25: 24, 26: 1, 27: 2, 29: 6, 32: 25, 33: 1,
        34: 4, 36: 76, 37: 1, 40: 10, 41: 9, 44: 1, 45: 10, 48: 2, 49: 3,
        50: 1, 52: 13, 53: 2, 56: 4,
    },
    ("untwisted", "isotropy"): {
        2: 32, 3: 49, 4: 141, 5: 55, 6: 72, 7: 62, 8: 158, 9: 53, 10: 44,
        11: 49, 12: 102, 13: 61, 14: 41, 15: 34, 16: 85, 17: 49, 18: 87,
        19: 24, 20: 60, 21: 37, 22: 47, 23: 25, 24: 57, 25: 25, 26: 32,
        27: 24, 28: 32, 29: 16, 30: 11, 31: 16, 32: 79, 33: 18, 34: 30,
        35: 16, 36: 21, 37: 8, 38: 13, 39: 9, 40: 27, 41: 20, 42: 8, 43: 6,
        44: 23, 45: 13, 46: 5, 47: 3, 48: 25, 49: 10, 50: 10, 51: 3, 52: 11,
        53: 1, 54: 11, 56: 9, 57: 3, 58: 3, 59: 2, 60: 4,
    },
    ("twisted", "principal"): {9: 82, 16: 241, 18: 10, 25: 50, 32: 69},
    ("twisted", "isotropy"): {
        3: 68, 4: 124, 6: 47, 7: 21, 8: 234, 9: 8, 10: 7, 11: 30, 12: 86,
        13: 33, 14: 19, 15: 12, 16: 56, 17: 46, 19: 39, 20: 88, 22: 19,
        24: 111,
    },
}

# pool size per generator (5:2 as in the acceptance corpora) and how many
# instances are drawn per pool slot
POOL = {"full": {"untwisted": 100, "twisted": 40},
        "min": {"untwisted": 10, "twisted": 4}}
DRAWS_PER_SLOT = 4


@dataclass(frozen=True)
class Instance:
    name: str
    groupoid: object
    cocycle: object


def quantile_slots(hist: dict[int, int], count: int) -> list[int]:
    """``count`` values at evenly spaced quantiles of a histogram."""
    values = [n for n in sorted(hist) for _ in range(hist[n])]
    return [values[int((i + 0.5) / count * len(values))] for i in range(count)]


def _positive_n(g) -> int:
    return sum(1 for a in g.arrows if g.mass[a.src] > 0.0)


def _kind(g) -> str:
    iso = any(
        a.src == a.tgt and not g.is_unit_arrow(a.id) and g.mass[a.src] > 0.0
        for a in g.arrows
    )
    return "isotropy" if iso else "principal"


def _masses(rng: random.Random, units) -> dict[str, float]:
    raw = [rng.random() + 0.05 for _ in units]
    total = sum(raw)
    return {u: r / total for u, r in zip(units, raw)}


def _draw(mk, gen: str, gseed: int):
    if gen == "twisted":
        return mk.random_twisted_pair(gseed)
    return mk.random_groupoid(gseed), None


def reference(counts: dict[str, int]) -> dict[tuple[str, str], dict[int, int]]:
    """The ``REFERENCE`` histograms over generator seeds 0..counts[gen]-1."""
    from factoroid import constructors as mk

    hists: dict[tuple[str, str], Counter] = {}
    for gen, count in counts.items():
        for gseed in range(count):
            g, _ = _draw(mk, gen, gseed)
            hists.setdefault((gen, _kind(g)), Counter())[_positive_n(g)] += 1
    return {key: dict(sorted(h.items())) for key, h in sorted(hists.items())}


def _corpus(mk, seed: int, size: str) -> list[Instance]:
    out: list[Instance] = []
    for gen, count in POOL[size].items():
        drawn: dict[str, list] = {"principal": [], "isotropy": []}
        for j in range(DRAWS_PER_SLOT * count):
            gseed = seed * 100_000 + j
            g, w = _draw(mk, gen, gseed)
            drawn[_kind(g)].append((_positive_n(g), gseed, g, w))
        total = sum(sum(REFERENCE[(gen, k)].values()) for k in drawn)
        for kind, cands in drawn.items():
            hist = REFERENCE[(gen, kind)]
            share = round(count * sum(hist.values()) / total)
            for n in sorted(quantile_slots(hist, share), reverse=True):
                if not cands:
                    raise RuntimeError(f"corpus: no {gen} {kind} instance left")
                best = min(range(len(cands)), key=lambda i: abs(cands[i][0] - n))
                _, gseed, g, w = cands.pop(best)
                out.append(Instance(f"{gen}-{gseed}", g, w))
    return out


def _dense(mk, seed: int, size: str) -> list[Instance]:
    rng = random.Random(f"dense-{seed}")
    k, group, bundle_units = (9, mk.symmetric_group(4), 3) if size == "full" else (
        3, mk.symmetric_group(3), 2)
    units = [f"x{i}" for i in range(k)]
    principal = mk.full_relation(units, _masses(rng, units))
    bunits = [f"y{i}" for i in range(bundle_units)]
    isotropy = mk.group_bundle({u: group for u in bunits}, _masses(rng, bunits))
    return [
        Instance(f"full{k}", principal, None),
        Instance(f"{group.name.lower()}-bundle{bundle_units}", isotropy, None),
    ]


def generate(workload: str, seed: int, size: str) -> list[Instance]:
    from factoroid import constructors as mk

    if workload == "corpus":
        return _corpus(mk, seed, size)
    if workload == "dense":
        return _dense(mk, seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def serialize(instances: list[Instance], workdir: Path) -> dict[str, Path]:
    from factoroid.textio import serialize as render

    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in instances:
        path = workdir / f"{inst.name}.txt"
        path.write_text(render(inst.groupoid, inst.cocycle), encoding="utf-8")
        paths[inst.name] = path
    return paths


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for key, hist in reference(REFERENCE_SEEDS).items():
        print(f"{key}: {hist},")
