"""Command-line interface.

Exit codes: 0 on success (and a consistent report), 1 on input or usage
errors and when the reader of stdout goes away early, 2 when a report
detects an inconsistency between the structural deciders and the numerical
center, or an internal self-check fails (either should never happen and
fails any surrounding build).

The parser is built once per process (see ``build_parser``). A command
loads only the modules it runs: the instance builders in ``constructors``
are imported inside ``gen``, ``corpus``, ``globalize`` and ``dr-scan``, and
``basis`` inside ``fourier``, so a report, ``validate``, ``center``,
``icc``, ``twisted-icc`` or ``kleppner`` loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .cocycle import kleppner_holds, twisted_icc
from .conjugacy import is_icc
from .groupoid import GroupoidError
from .textio import ParseError, parse_file, serialize
from .vna import (
    CONTAINMENT_TOL,
    RANK_TOL,
    InternalInconsistency,
    algebra,
    center,
    factoriality_report,
    fourier,
    l2_space,
)

_ENV_TOL = "FACTOROID_TOLERANCE"

# the least rank or containment tolerance taken: the worst rounding seen on
# valid input is 1.5e-15 (a containment residual of the S5 translation
# groupoid) and 5.4e-16 (an accepted center residual over its scale, on
# random_twisted_pair(85)), so this bound stays 600 times above the noise
# and 1,000 times below the defaults
MIN_TOLERANCE = 1e-12


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def _tolerance(raw: str, below: float = math.inf) -> float:
    """A tolerance: a number at least ``MIN_TOLERANCE`` and below ``below``."""
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not MIN_TOLERANCE <= tol < below:
        raise argparse.ArgumentTypeError(
            f"must be a number >= {MIN_TOLERANCE:g} and < {below:g}, got {raw!r}"
        )
    return tol


# a containment residual is relative, at most 1, so a tolerance of 1 would
# hold every containment and decide nothing
_containment_tolerance = functools.partial(_tolerance, below=1.0)


def _count(raw: str) -> int:
    """A count: a whole number, at least 1."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {raw!r}")
    return n


def _default_rank_tol() -> float:
    raw = os.environ.get(_ENV_TOL)
    try:
        return _tolerance(raw) if raw else RANK_TOL
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{_ENV_TOL} {exc}") from None


def _json_safe(value):
    """``value`` with every non-finite float as None (JSON null), since
    RFC 8259 has no Infinity or NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_json_safe(data), indent=2, allow_nan=False)
    width = max(len(k) for k in data)
    return "\n".join(f"{k.ljust(width)}  {data[k]!r}" for k in data)


def _cannot(verb: str, path: str, exc: Exception) -> InputError:
    """An unreadable or unwritable path as an input error naming it."""
    return InputError(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}")


def _load(path: str):
    try:
        return parse_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot("read", path, exc) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot("write", path, exc) from None
    print(f"wrote {path}")


def cmd_validate(args) -> int:
    g, w = _load(args.file)
    print(
        f"valid groupoid: {len(g.units)} units, {len(g.arrow_order)} arrows, "
        f"nonsingular={g.flags.nonsingular}, pmp={g.flags.pmp}"
        + (", with cocycle" if w is not None else "")
    )
    return 0


def cmd_report(args) -> int:
    g, w = _load(args.file)
    rep = factoriality_report(
        g, w, rank_tol=args.rank_tol, containment_tol=args.containment_tol
    )
    print(_render(rep.to_dict(), args.format))
    return 0 if rep.consistent else 2


def cmd_icc(args) -> int:
    g, _ = _load(args.file)
    verdict = is_icc(g)
    data = {
        "icc": verdict.icc,
        "witness": sorted(verdict.witness) if verdict.witness else None,
    }
    print(_render(data, args.format))
    return 0


def cmd_twisted_icc(args) -> int:
    g, w = _load(args.file)
    verdict = twisted_icc(g, w)
    data = {"twisted_icc": verdict.icc}
    if verdict.certificate is not None:
        data["central_support"] = sorted(verdict.certificate.support)
    print(_render(data, args.format))
    return 0


def cmd_kleppner(args) -> int:
    g, w = _load(args.file)
    verdict = kleppner_holds(g, w)
    data = {"kleppner_holds": verdict.holds, "witness": verdict.witness}
    print(_render(data, args.format))
    return 0


def cmd_center(args) -> int:
    g, w = _load(args.file)
    z = center(g, w, tol=args.rank_tol)
    data = {
        "center_dim": z.dim,
        "gap": list(z.observed_gap) if z.observed_gap else None,
    }
    print(_render(data, args.format))
    return 0


def cmd_fourier(args) -> int:
    from .basis import build_basis

    g, w = _load(args.file)
    space = l2_space(g)
    alg = algebra(g, w, "left", space=space)
    basis = build_basis(g, symmetric=True)
    rng = np.random.default_rng(args.seed)
    worst_residual = 0.0
    worst_parseval = 0.0
    for _ in range(args.elements):
        coeff = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        op = alg.element(coeff)
        data = fourier(g, w, op, basis, alg=alg, space=space)
        worst_residual = max(worst_residual, data.residual)
        worst_parseval = max(worst_parseval, data.parseval_gap)
    print(
        _render(
            {
                "elements": args.elements,
                "blocks": [list(b) for b in basis.blocks],
                "max_residual": worst_residual,
                "max_parseval_gap": worst_parseval,
            },
            args.format,
        )
    )
    return 0


# families that read --n or --seed, each given the constructors module; the
# fixed ones are constructors.NAMED_INSTANCES
_FAMILIES = {
    "sn-bundle": lambda mk, args: (mk.sn_bundle(args.n)[0], None),
    "random": lambda mk, args: (mk.random_groupoid(args.seed), None),
    "random-twisted": lambda mk, args: mk.random_twisted_pair(args.seed),
}
# every `gen` family, sorted: the keys of NAMED_INSTANCES and _FAMILIES,
# spelt out so that the help text does not import the constructors
_FAMILY_NAMES = (
    "full2", "full3", "klein4", "klein4-twisted", "random", "random-twisted",
    "s3-bundle", "s4-translation", "s4xz2-translation", "s5-translation",
    "sn-bundle", "swap", "z2", "z3", "z4-translation",
)


def cmd_gen(args) -> int:
    from . import constructors as mk

    if args.family in mk.NAMED_INSTANCES:
        g, w = mk.NAMED_INSTANCES[args.family]()
    elif args.family in _FAMILIES:
        g, w = _FAMILIES[args.family](mk, args)
    else:
        raise InputError(
            f"unknown family {args.family!r}; choose from {', '.join(_FAMILY_NAMES)}"
        )
    text = serialize(g, w)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_corpus(args) -> int:
    from . import constructors as mk

    seeds = range(args.seed, args.seed + args.count)
    bad = 0
    converse_hits = []
    for seed in seeds:
        if args.twisted:
            g, w = mk.random_twisted_pair(seed)
        else:
            g, w = mk.random_groupoid(seed), None
        rep = factoriality_report(
            g, w, rank_tol=args.rank_tol, containment_tol=args.containment_tol
        ).to_dict()
        status = "ok" if rep["consistent"] else "INCONSISTENT"
        if not rep["consistent"]:
            bad += 1
        if rep["ergodic"] and rep["kleppner"] and not rep["factor"]:
            converse_hits.append(seed)
        print(
            f"seed={seed} units={rep['units']} arrows={rep['arrows']} "
            f"icc={rep['icc']} ergodic={rep['ergodic']} "
            f"center={rep['center_dim']} factor={rep['factor']} {status}"
        )
    print(f"checked {len(seeds)} instances, {bad} inconsistent")
    if args.kleppner_converse:
        # ergodic + phase symmetry condition without factoriality would
        # separate the necessary condition from sufficiency; reported only
        print(
            "kleppner-converse candidates (ergodic, condition holds, "
            f"not a factor): {converse_hits if converse_hits else 'none'}"
        )
    return 0 if bad == 0 else 2


def cmd_globalize(args) -> int:
    from . import constructors as mk

    if args.demo:
        p = mk.half_domain_fixture()
    else:
        p = mk.random_partial_action(args.seed)
    glob = mk.globalize(p)
    data = {
        "group": p.group.name,
        "original_units": len(p.units),
        "global_units": len(glob.space_units),
        "embedded_full": glob.embedded_full,
        "restriction_isomorphic": glob.restriction_isomorphic,
    }
    if args.out:  # written first, so a failed write prints no summary
        _write(args.out, serialize(glob.groupoid))
    print(_render(data, args.format))
    return 0


def _parse_map_spec(spec: str, option: str) -> dict[str, str]:
    """``key:value`` entries of ``option``, split at commas; a key given
    twice is an input error naming it."""
    out = {}
    for part in spec.split(","):
        src, _, dst = part.partition(":")
        if not dst:
            raise InputError(f"bad {option} entry {part!r}")
        key = src.strip()
        if key in out:
            raise InputError(f"{option} gives {key!r} twice")
        out[key] = dst.strip()
    return out


def cmd_dr_scan(args) -> int:
    from . import constructors as mk

    if args.map:
        sigma = _parse_map_spec(args.map, "--map")
        units = tuple(sigma)
        if args.masses:
            try:
                masses = {u: float(v) for u, v in _parse_map_spec(args.masses, "--masses").items()}
            except ValueError as exc:
                raise InputError(f"bad --masses entry: {exc}") from None
        else:
            masses = {u: 1.0 / len(units) for u in units}
        system = mk.DeaconuRenaultSystem(units, masses, sigma, args.bound)
    else:
        system = mk.random_shift_system(args.seed, args.size, args.bound)
    view = mk.deaconu_renault(system)
    freeness = mk.essentially_free(system)
    data = {
        "units": len(system.units),
        "bound": system.bound,
        "arrows_enumerated": len(view.arrows),
        "essentially_free": freeness.free,
        "note": freeness.note,
    }
    for n in sorted(view.b_sets):
        if n >= 0:
            data[f"loops_degree_{n}"] = (
                f"count={len(view.b_sets[n])} mass={view.b_measure[n]!r}"
            )
    print(_render(data, args.format))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``factoroid`` parser, built once per process and shared by every
    call: it depends on no file, argument or environment variable, and holds
    no per-call state (parsing leaves it as it was)."""
    parser = _Parser(
        prog="factoroid",
        description=(
            "finite measured groupoids, their twisted von Neumann algebras, "
            "and factoriality deciders"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *shared):
        """A subcommand with the ``shared`` arguments it reads: file, format,
        rank, containment."""
        p = sub.add_parser(name, help=help)
        if "file" in shared:
            p.add_argument("file", help="groupoid file")
        if "format" in shared:
            p.add_argument("--format", choices=["text", "json"], default="text")
        if "rank" in shared:
            p.add_argument(
                "--rank-tol", type=_tolerance,
                help="singular value tolerance for rank decisions",
            )
        if "containment" in shared:
            p.add_argument(
                "--containment-tol", type=_containment_tolerance, default=CONTAINMENT_TOL,
                help="subspace containment tolerance",
            )
        return p

    add("validate", "check the groupoid axioms", "file")
    add("report", "full factoriality report", "file", "format", "rank", "containment")
    add("icc", "conjugacy-class decider", "file", "format")
    add("twisted-icc", "twisted decider", "file", "format")
    add("kleppner", "phase-symmetry condition", "file", "format")
    add("center", "numerical center dimension", "file", "format", "rank")
    p = add("fourier", "expansion residuals on random elements", "file", "format")
    p.add_argument("--elements", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("gen", "emit an example family instance")
    p.add_argument("--family", required=True, help=", ".join(_FAMILY_NAMES))
    p.add_argument("--n", type=int, default=3, help="size for sn-bundle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")

    p = add("corpus", "run reports over seeded random instances", "rank", "containment")
    p.add_argument("--count", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--twisted", action="store_true")
    p.add_argument(
        "--kleppner-converse", action="store_true",
        help="list ergodic non-factors satisfying the phase-symmetry condition",
    )

    p = add("globalize", "globalize a partial action", "format")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demo", action="store_true",
                   help="use the half-domain fixture")
    p.add_argument("--out", help="write the global groupoid here")

    p = add("dr-scan", "shift-system loop degrees", "format")
    p.add_argument("--map", help="sigma as `x0:x1,x1:x1`")
    p.add_argument("--masses", help="masses as `x0:0.5,x1:0.5`")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=6)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "report": cmd_report,
    "icc": cmd_icc,
    "twisted-icc": cmd_twisted_icc,
    "kleppner": cmd_kleppner,
    "center": cmd_center,
    "fourier": cmd_fourier,
    "gen": cmd_gen,
    "corpus": cmd_corpus,
    "globalize": cmd_globalize,
    "dr-scan": cmd_dr_scan,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # only subcommands that take --rank-tol read the environment
        if getattr(args, "rank_tol", RANK_TOL) is None:
            args.rank_tol = _default_rank_tol()
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, GroupoidError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left; send the rest of the buffer nowhere so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
