"""Command-line interface.

Exit codes: 0 on success (and a consistent report), 1 on input or usage
errors, when memory runs out and when the reader of stdout goes away early,
2 when a report detects an inconsistency between the structural deciders
and the numerical center, or an internal self-check fails (either should
never happen and fails any surrounding build).

``_TABLE`` is the command line; ``main`` reads its plain forms itself and
leaves the rest, help and usage errors among it, to argparse. A command
loads only the modules it runs: the instance builders in ``constructors``
are imported inside ``gen``, ``corpus``, ``globalize`` and ``dr-scan``, and
``basis`` inside ``fourier``, so a report, ``validate``, ``center``,
``icc``, ``twisted-icc`` or ``kleppner`` loads neither.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

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

# the least rank or containment tolerance taken: the worst rounding seen on
# valid input is 1.5e-15 (a containment residual of the S5 translation
# groupoid) and 5.4e-16 (an accepted center residual over its scale, on
# random_twisted_pair(85)), so this bound stays 600 times above the noise
# and 1,000 times below the defaults
MIN_TOLERANCE = 1e-12


class InputError(Exception):
    pass


def _tolerance(raw: str, below: float = math.inf) -> float:
    """A tolerance: a number at least ``MIN_TOLERANCE`` and below ``below``."""
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not MIN_TOLERANCE <= tol < below:
        raise ValueError(f"must be a number >= {MIN_TOLERANCE:g} and < {below:g}, got {raw!r}")
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
        raise ValueError(f"must be a whole number >= 1, got {raw!r}")
    return n


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, a non-finite float
    as null (RFC 8259 has no NaN), without the stdlib's pure-Python indenting
    encoder; any other type, or a dict key that is not a str, raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        items = (_json(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(data)
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
        "gap": list(z.observed_gap),
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
        "arrows_enumerated": view.arrow_count,
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


class _Option(NamedTuple):
    """An option as ``add_argument`` takes it; ``type`` raises ValueError."""

    flag: str
    type: Optional[Callable[[str], object]] = None
    default: object = None
    choices: Optional[tuple] = None
    required: bool = False
    store_true: bool = False
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_FILE = (("file", "groupoid file"),)
_FORMAT = _Option("--format", choices=("text", "json"), default="text")
_RANK = _Option("--rank-tol", _tolerance, RANK_TOL,
                help="singular value tolerance for rank decisions")
_CONTAINMENT = _Option("--containment-tol", _containment_tolerance, CONTAINMENT_TOL,
                       help="subspace containment tolerance")
_SEED = _Option("--seed", int, 0)

# the command line: each subcommand's function, help, positionals (name,
# help) and options, in the order the help lists them
_TABLE = {
    "validate": (cmd_validate, "check the groupoid axioms", _FILE, ()),
    "report": (cmd_report, "full factoriality report", _FILE, (_FORMAT, _RANK, _CONTAINMENT)),
    "icc": (cmd_icc, "conjugacy-class decider", _FILE, (_FORMAT,)),
    "twisted-icc": (cmd_twisted_icc, "twisted decider", _FILE, (_FORMAT,)),
    "kleppner": (cmd_kleppner, "phase-symmetry condition", _FILE, (_FORMAT,)),
    "center": (cmd_center, "numerical center dimension", _FILE, (_FORMAT, _RANK)),
    "fourier": (cmd_fourier, "expansion residuals on random elements", _FILE,
                (_FORMAT, _Option("--elements", _count, 20), _SEED)),
    "gen": (cmd_gen, "emit an example family instance", (), (
        _Option("--family", required=True, help=", ".join(_FAMILY_NAMES)),
        _Option("--n", int, 3, help="size for sn-bundle"), _SEED,
        _Option("--out", help="output path (default stdout)"))),
    "corpus": (cmd_corpus, "run reports over seeded random instances", (), (
        _RANK, _CONTAINMENT, _Option("--count", _count, 50), _SEED._replace(help="first seed"),
        _Option("--twisted", default=False, store_true=True),
        _Option("--kleppner-converse", default=False, store_true=True, help=(
            "list ergodic non-factors satisfying the phase-symmetry condition")))),
    "globalize": (cmd_globalize, "globalize a partial action", (), (
        _FORMAT, _SEED,
        _Option("--demo", default=False, store_true=True, help="use the half-domain fixture"),
        _Option("--out", help="write the global groupoid here"))),
    "dr-scan": (cmd_dr_scan, "shift-system loop degrees", (), (
        _FORMAT, _Option("--map", help="sigma as `x0:x1,x1:x1`"),
        _Option("--masses", help="masses as `x0:0.5,x1:0.5`"),
        _Option("--bound", int, 3), _SEED, _Option("--size", int, 6))),
}


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """``argv`` as ``build_parser().parse_args`` reads it, when it has only
    plain forms: the command, its positionals in order, exact option names
    each with a value not starting with ``-``, and store_true flags. Any
    other argv, help and usage errors among it, gives None for argparse."""
    if not argv or argv[0] not in _TABLE:
        return None
    _, _, positionals, options = _TABLE[argv[0]]
    by_flag = {o.flag: o for o in options}
    args = {"command": argv[0], **{o.dest: o.default for o in options}}
    given, plain = set(), []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            plain.append(arg)
            continue
        o = by_flag.get(arg)
        if o is None:
            return None
        if o.store_true:
            args[o.dest] = True
            continue
        raw = next(rest, "-")
        if raw.startswith("-"):
            return None
        try:
            value = o.type(raw) if o.type else raw
        except ValueError:
            return None
        if o.choices and value not in o.choices:
            return None
        args[o.dest] = value
        given.add(o.flag)
    if len(plain) != len(positionals) or any(o.required and o.flag not in given for o in options):
        return None
    args.update(zip((name for name, _ in positionals), plain))
    return SimpleNamespace(**args)


@functools.cache
def build_parser():
    """The ``factoroid`` argparse parser, built from ``_TABLE`` once per
    process and shared by every call: its defaults are the table's alone,
    read from no file or environment variable, and it holds no per-call state."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors are input errors (exit 1), not argparse's exit 2."""

        def error(self, message: str):
            raise InputError(f"{self.prog}: {message}")

    def checked(convert):
        """``convert`` with its ValueError text as the usage error; int's is argparse's."""
        def read(raw):
            try:
                return convert(raw)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return convert if convert in (None, int) else read

    parser = Parser(prog="factoroid", description=(
        "finite measured groupoids, their twisted von Neumann algebras, and factoriality deciders"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, positionals, options) in _TABLE.items():
        p = sub.add_parser(name, help=summary)
        for arg, arg_help in positionals:
            p.add_argument(arg, help=arg_help)
        for o in options:
            kind = ({"action": "store_true"} if o.store_true else
                    {"type": checked(o.type), "choices": o.choices, "required": o.required})
            p.add_argument(o.flag, dest=o.dest, default=o.default, help=o.help, **kind)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        code = _TABLE[args.command][0](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, GroupoidError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this host
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left; send the rest of the buffer nowhere so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
