"""Command-line front end.

Subcommands: ``synth`` (one engine), ``compare`` (both engines, non-zero
exit on any difference), ``dump-ba``, ``dump-product``, ``validate``.
Each takes only the flags it reads: the input flags ``--model``, ``--ltl``
and ``--param``, and for the two engine commands the engine flags.
Exit codes: 0 success, 1 result mismatch in compare, 2 bad input,
3 capacity limit hit, 4 internal soundness check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import enumerate_box
from .errors import CapacityError, InputError, SoundnessError, SynthError
from .explore import Options, build_automaton, synthesize
from .ltl import negated_automaton, parse_ltl
from .model import clock_bounds, dump_product, load_model

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_SOUNDNESS = 4


def _param_override(text: str) -> tuple[str, int, int]:
    try:
        name, rng = text.split("=", 1)
        lo, hi = rng.split("..", 1)
        return name.strip(), int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad --param {text!r}, expected NAME=LO..HI",
                         kind="bad-flag")


def _add_inputs(p: argparse.ArgumentParser, ltl_required=True):
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--ltl", required=ltl_required,
                   help="property text" if ltl_required
                   else "optionally check a property's atoms")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=LO..HI", help="override a parameter range")


def _add_engine(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the result JSON here (default stdout)")
    p.add_argument("--stats", action="store_true",
                   help="emit engine statistics to stderr")
    p.add_argument("--trace", action="store_true",
                   help="dump visited symbolic states to stderr")
    p.add_argument("--limit-states", type=int, default=None, metavar="N")
    p.add_argument("--limit-dnf", type=int, default=None, metavar="N",
                   help="cap on the negated-guard expansion per state")


def _options(args) -> Options:
    for flag, value in (("--limit-states", args.limit_states),
                        ("--limit-dnf", args.limit_dnf)):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}",
                             kind="bad-flag")
    opts = Options()
    if args.limit_states is not None:
        opts.limit_states = args.limit_states
    if args.limit_dnf is not None:
        opts.dnf_limit = args.limit_dnf
    if args.trace:
        opts.trace = sys.stderr
    return opts


def _load(args):
    net = load_model(args.model)
    overrides = {}
    for text in args.param:
        name, lo, hi = _param_override(text)
        overrides[name] = (lo, hi)
    return net, net.box(overrides)


def _emit(doc: dict, out_path):
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    net, box = _load(args)
    opts = _options(args)
    if args.engine == "symbolic":
        res = synthesize(net, args.ltl, box, opts)
    else:
        res = enumerate_box(net, args.ltl, box, opts)
    _emit(res.to_json(), args.out)
    if args.stats:
        sys.stderr.write(json.dumps(res.stats, indent=2) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    net, box = _load(args)
    opts = _options(args)
    sym = synthesize(net, args.ltl, box, opts)
    base = enumerate_box(net, args.ltl, box, opts)
    diffs = {}
    for name, a, b in (
        ("violating", sym.accepted, base.accepted),
        ("satisfying", sym.satisfying, base.satisfying),
        ("deadlock", sym.deadlock, base.deadlock),
    ):
        if a.bits != b.bits:
            diffs[name] = {
                "symbolic_only": a.difference(b).to_json_objs(),
                "enumerate_only": b.difference(a).to_json_objs(),
            }
    stats = {
        "symbolic": sym.stats,
        "enumerate": base.stats,
        "state_ratio": (
            sym.stats["stored_states"] / base.stats["zone_states_total"]
            if base.stats["zone_states_total"] else None),
    }
    doc = sym.to_json()
    doc["stats"] = stats
    doc["equal"] = not diffs
    if diffs:
        doc["diffs"] = diffs
    _emit(doc, args.out)
    if args.stats:
        sys.stderr.write(json.dumps(stats, indent=2) + "\n")
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_dump_ba(args) -> int:
    aut = negated_automaton(parse_ltl(args.ltl))
    sys.stdout.write(aut.dump() + "\n")
    return EXIT_OK


def cmd_dump_product(args) -> int:
    net, box = _load(args)
    tba, bounds = build_automaton(net, parse_ltl(args.ltl), box)
    maxima = clock_bounds(bounds)
    sys.stdout.write(dump_product(tba) + "\n")
    sys.stdout.write("clock maxima: "
                     + " ".join(f"{n}={m}" for n, m in
                                zip(tba.clock_names[1:], maxima[1:])) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    net, box = _load(args)
    if args.ltl:
        from .explore import validate_property

        validate_property(net, parse_ltl(args.ltl))
    sys.stdout.write(
        f"ok: {len(net.components)} components, {len(net.clocks)} clocks, "
        f"{len(net.params)} parameters, {box.size} valuations\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptasynth",
        description="Parameter synthesis for networks of parametric timed "
                    "automata against LTL properties.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run one engine")
    _add_inputs(p)
    _add_engine(p)
    p.add_argument("--engine", choices=("symbolic", "enumerate"),
                   default="symbolic")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="run both engines and diff the sets")
    _add_inputs(p)
    _add_engine(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-ba", help="print the automaton of the negated "
                                       "property")
    p.add_argument("--ltl", required=True, help="property text")
    p.set_defaults(func=cmd_dump_ba)

    p = sub.add_parser("dump-product", help="print the product automaton")
    _add_inputs(p)
    p.set_defaults(func=cmd_dump_product)

    p = sub.add_parser("validate", help="parse and check the model only")
    _add_inputs(p, ltl_required=False)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error ({exc.kind}): {exc}\n")
        return EXIT_INPUT
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except SoundnessError as exc:
        sys.stderr.write(f"soundness: {exc}\n")
        return EXIT_SOUNDNESS
    except SynthError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
