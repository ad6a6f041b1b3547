"""Command-line driver: file handling plus thin wrappers around the
library.  Exit codes: 0 success, 1 domain error, 2 usage error."""

from __future__ import annotations

import argparse
import functools
import sys

from . import netfile
from .cells import canonical_form, cell_order, render_tree, scells
from .compiler import compile_net
from .diagram import export_diagram
from .errors import CellnetError
from .inference import (
    Predicate,
    State,
    condition,
    format_state,
    forward,
    load_state,
    marginalize,
    pullback,
)
from .kleisli import (
    DEFAULT_WIDTH_CAP,
    TOLERANCE,
    DeltaTable,
    Wiring,
    arrow_to_csv,
    arrow_to_json,
    format_arrow,
    interpret,
    load_delta,
    validate_delta,
)
from .nets import MarkedNet, validate_occurrence
from .oracle import (
    check_correspondence,
    enumerate_outcome_distribution,
    maximal_r_stopped,
    pes_of_net,
)
from .terms import constants_of, parse_term, render_place_set, render_term, typecheck


def _version() -> str:
    from importlib import metadata  # only ``--version`` needs it

    try:
        return metadata.version("cellnet")
    except metadata.PackageNotFoundError:
        return "0.0.0+unpackaged"


class _VersionAction(argparse.Action):
    """``--version``, which looks the version up only when it is given."""

    def __init__(self, option_strings, dest):
        super().__init__(
            option_strings, argparse.SUPPRESS, nargs=0, default=argparse.SUPPRESS,
            help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: argparse leaves reference cycles behind
    # each parser it builds (its help formatters), which only the cyclic
    # garbage collector frees; parsing with a built parser leaves none.
    parser = argparse.ArgumentParser(
        prog="cellnet",
        description="Compile occurrence Petri nets into stochastic-matrix arrows "
        "and reason about their markings.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the occurrence-net conditions")
    p.add_argument("net")

    p = sub.add_parser("cells", help="print the s-cells and the covering pairs of their order")
    p.add_argument("net")

    p = sub.add_parser("canon", help="print the canonical composition tree")
    p.add_argument("net")
    p.add_argument("--dot", action="store_true", help="emit the string diagram as DOT")

    p = sub.add_parser("compile", help="compile the net to a term")
    p.add_argument("net")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit-term", action="store_true", help="print the term (default)")
    group.add_argument(
        "--emit-constants", action="store_true", help="print the constant signatures instead"
    )

    p = sub.add_parser("constants", help="print the δ schema (one signature per line)")
    p.add_argument("net")

    p = sub.add_parser("check-term", help="parse and typecheck a textual term file")
    p.add_argument("term")

    p = sub.add_parser("matrix", help="interpret the compiled net as a matrix")
    p.add_argument("net")
    p.add_argument("delta")
    _wiring_options(p)
    p.add_argument("--keep", help="comma-separated output places to marginalize onto")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", dest="fmt"
    )

    p = sub.add_parser("infer", help="forward/backward inference over the compiled arrow")
    p.add_argument("net")
    p.add_argument("delta")
    _wiring_options(p)
    p.add_argument("--marginal", help="comma-separated places: report their joint marginal arrow")
    p.add_argument("--forward", metavar="STATE", help="state file to push forward")
    p.add_argument("--posterior", action="store_true", help="condition a prior on evidence")
    p.add_argument("--prior", metavar="STATE", help="prior state file (with --posterior)")
    p.add_argument(
        "--evidence",
        help="comma-separated place=0/1 observations on the outputs (with --posterior)",
    )

    p = sub.add_parser("configs", help="list the maximal recursively-stopped configurations")
    p.add_argument("net")

    p = sub.add_parser("oracle-check", help="diff the matrix pipeline against the oracle")
    p.add_argument("net")
    p.add_argument("delta")
    _wiring_options(p)

    p = sub.add_parser("diagram", help="emit the string diagram as DOT")
    p.add_argument("net")
    return parser


def _wiring_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in-order", help="comma-separated input wiring override")
    p.add_argument("--out-order", help="comma-separated output wiring override")
    p.add_argument(
        "--width-cap",
        type=int,
        default=DEFAULT_WIDTH_CAP,
        help=f"maximum interface width (default {DEFAULT_WIDTH_CAP})",
    )
    p.add_argument(
        "--allow-missing-delta",
        action="store_true",
        help="fall back to uniform distributions for uncovered constants",
    )


def _split_ids(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(x for x in raw.split(",") if x)


def _wiring(raw: str | None) -> Wiring | None:
    """An ``--in-order``/``--out-order`` wiring; None, for ``interpret``'s
    lexicographic default, when the option is not given."""
    return Wiring(_split_ids(raw)) if raw else None


def _load_delta(path: str, strict: bool) -> DeltaTable:
    with open(path, "r", encoding="utf-8") as handle:
        return load_delta(handle.read(), strict=strict)


def _arrow(args):
    marked = netfile.load_net(args.net)
    term = compile_net(marked)
    delta = _load_delta(args.delta, strict=not args.allow_missing_delta)
    report = validate_delta(delta, constants_of(term))
    if not report.ok:
        raise CellnetError(f"δ table rejected:\n{report}")
    if report.filled_uniform:
        print(f"note: δ missing for {len(report.filled_uniform)} constant(s); using uniform", file=sys.stderr)
    return marked, term, delta, interpret(
        term, delta, _wiring(args.in_order), _wiring(args.out_order), width_cap=args.width_cap
    )


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CellnetError as exc:
        print(f"cellnet {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cellnet {args.command}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # Only json.loads still recurses, on files nested thousands deep.
        print(
            f"cellnet {args.command}: the input nests too deeply for this command "
            "(Python recursion limit reached)",
            file=sys.stderr,
        )
        return 1


def _dispatch(args) -> int:
    if args.command == "validate":
        with open(args.net, "r", encoding="utf-8") as handle:
            net, marking = netfile.parse_net_parts(handle.read())
        report = validate_occurrence(net)
        print(str(report))
        if report.ok:
            try:
                MarkedNet(net, marking)
            except CellnetError as exc:
                print(f"bad marking: {exc}")
                return 1
        return 0 if report.ok else 1

    if args.command == "cells":
        marked = netfile.load_net(args.net)
        cells = scells(marked.net, marked.marking)
        order = cell_order(marked.net, cells)
        for i, cell in enumerate(cells):
            marking = render_place_set(cell.marking)
            print(
                f"C{i + 1}: members {render_place_set(cell.members)} "
                f"interface {render_place_set(cell.inputs)}->"
                f"{render_place_set(cell.max_places)} marking {marking}"
            )
        for i, j in sorted(order):
            print(f"C{i + 1} < C{j + 1}")
        return 0

    if args.command == "canon":
        marked = netfile.load_net(args.net)
        tree = canonical_form(marked)
        print(export_diagram(tree) if args.dot else render_tree(tree))
        return 0

    if args.command == "compile":
        marked = netfile.load_net(args.net)
        term = compile_net(marked)
        if args.emit_constants:
            _print_constants(term)
        else:
            print(render_term(term))
        return 0

    if args.command == "constants":
        term = compile_net(netfile.load_net(args.net))
        _print_constants(term)
        return 0

    if args.command == "check-term":
        with open(args.term, "r", encoding="utf-8") as handle:
            term = parse_term(handle.read())
        ty = typecheck(term)
        print(
            f"OK: {render_place_set(ty.inputs)} -> {render_place_set(ty.outputs)} "
            f"over {len(ty.nodes)} node(s)"
        )
        return 0

    if args.command == "matrix":
        _, _, _, arrow = _arrow(args)
        if args.keep:
            arrow = marginalize(arrow, frozenset(_split_ids(args.keep)))
        if args.fmt == "json":
            print(arrow_to_json(arrow), end="")
        elif args.fmt == "csv":
            print(arrow_to_csv(arrow), end="")
        else:
            print(format_arrow(arrow), end="")
        return 0

    if args.command == "infer":
        _, _, _, arrow = _arrow(args)
        did_something = False
        if args.marginal:
            arrow_m = marginalize(arrow, frozenset(_split_ids(args.marginal)))
            print(format_arrow(arrow_m), end="")
            did_something = True
        if args.forward:
            state = forward(load_state(args.forward), arrow)
            print(format_state(state), end="")
            did_something = True
        if args.posterior:
            if not args.prior or not args.evidence:
                raise CellnetError("--posterior needs both --prior and --evidence")
            prior = load_state(args.prior)
            evidence = _parse_evidence(args.evidence)
            q = Predicate.from_evidence(arrow.out_wiring, evidence)
            posterior = condition(prior, pullback(arrow, q))
            print(format_state(posterior), end="")
            did_something = True
        if not did_something:
            raise CellnetError("nothing to do: pass --marginal, --forward or --posterior")
        return 0

    if args.command == "configs":
        marked = netfile.load_net(args.net)
        for config in sorted(maximal_r_stopped(pes_of_net(marked)), key=sorted):
            print(render_place_set(config))
        return 0

    if args.command == "oracle-check":
        marked, term, delta, arrow = _arrow(args)
        ok = True
        correspondence = check_correspondence(marked)
        print("correspondence (term configurations vs event structure):")
        print(str(correspondence))
        ok &= correspondence.ok
        outcome = enumerate_outcome_distribution(marked, delta)
        state = forward(State.point(arrow.in_wiring, arrow.in_wiring.place_set), arrow)
        worst = 0.0
        for place in sorted(arrow.out_wiring.place_set):
            lhs = outcome.place_marginal(place)
            rhs = state.place_marginal(place)
            worst = max(worst, abs(lhs - rhs))
        agreement = worst <= TOLERANCE
        print(
            f"marking marginals (enumeration vs matrix, fully marked inputs): "
            f"worst |Δ| = {worst:.3e} -> {'OK' if agreement else 'MISMATCH'}"
        )
        ok &= agreement
        return 0 if ok else 1

    if args.command == "diagram":
        marked = netfile.load_net(args.net)
        print(export_diagram(canonical_form(marked)), end="")
        return 0

    raise CellnetError(f"unknown command {args.command!r}")


def _print_constants(term) -> None:
    keys = sorted(constants_of(term), key=lambda k: k.signature)
    for key in keys:
        print(
            f"{key.signature}  marked {render_place_set(key.marked)} "
            f"outputs {render_place_set(key.outputs)}"
        )


def _parse_evidence(raw: str) -> dict[str, bool]:
    evidence: dict[str, bool] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CellnetError(f"evidence must look like place=0 or place=1, got {chunk!r}")
        place, _, value = chunk.partition("=")
        if value not in ("0", "1"):
            raise CellnetError(f"evidence value must be 0 or 1, got {chunk!r}")
        evidence[place.strip()] = value == "1"
    if not evidence:
        raise CellnetError("empty evidence")
    return evidence


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
