"""Command-line interface.

Exit codes: 0 when the relation holds / the command succeeds, 1 when the
relation does not hold or a verification claim fails, 2 on usage or input
errors, a graph above the size cap included.  The cap is 14 vertices
unless the BIPMINOR_SIZE_CAP environment variable sets it; every search
checks it on its host, and ``admissible`` on the graph whose cycles it
enumerates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..families import FAMILIES
from ..graph_core import Graph, GraphError, check_size_cap
from ..relations import (
    WITNESS_SEARCHES,
    admissible_pairs,
    bipartite_minor_closure,
    compare_family,
)
from ..structure import KCONN_MODES, blocks, is_k_connected
from .harness import SUITE_NAMES, verify_harness
from .serialize import emit_dot, emit_graph6, parse_graph6, witness_document

# ``check`` takes each relation's own name, and ``bipminor`` as the one
# alias of ``bipartite_minor``.
CHECK_RELATIONS = {name: name for name in WITNESS_SEARCHES}
CHECK_RELATIONS["bipminor"] = "bipartite_minor"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipminor",
        description="Decide minor-like containment relations on small graphs "
        "and verify the library's headline facts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named family member")
    gen.add_argument("family", choices=list(FAMILIES))
    gen.add_argument("params", type=int, nargs="+", help="length, then appendages")
    gen.add_argument("--format", choices=["g6", "dot"], default="g6")
    gen.set_defaults(handler=_cmd_gen)

    check = sub.add_parser("check", help="decide whether H is below G")
    check.add_argument("relation", choices=sorted(CHECK_RELATIONS))
    check.add_argument("target", help="graph6 file for H")
    check.add_argument("source", help="graph6 file for G")
    check.add_argument("--witness", metavar="PATH", help="write witness JSON here")
    check.set_defaults(handler=_cmd_check)

    adm = sub.add_parser("admissible", help="list admissible contraction pairs")
    adm.add_argument("source", help="graph6 file")
    adm.set_defaults(handler=_cmd_admissible)

    clo = sub.add_parser("closure", help="print the bipartite-minor closure")
    clo.add_argument("source", help="graph6 file")
    clo.add_argument(
        "--two-connected",
        choices=KCONN_MODES,
        help="print only the members that are 2-connected in this reading",
    )
    clo.set_defaults(handler=_cmd_closure)

    blk = sub.add_parser("blocks", help="print the block decomposition")
    blk.add_argument("source", help="graph6 file")
    blk.set_defaults(handler=_cmd_blocks)

    anti = sub.add_parser("antichain", help="comparability matrix of a family")
    anti.add_argument("family_file", help="file with one graph6 value per line")
    anti.add_argument("--relation", choices=list(WITNESS_SEARCHES), required=True)
    anti.set_defaults(handler=_cmd_antichain)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=list(SUITE_NAMES))
    ver.set_defaults(handler=_cmd_verify)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    return parse_graph6(_read(path))


def _read_family(path: str) -> list[Graph]:
    lines = [line for line in _read(path).splitlines() if line.strip()]
    if not lines:
        raise GraphError(f"no graphs in {path}")
    return [parse_graph6(line) for line in lines]


def _cmd_gen(args: argparse.Namespace) -> int:
    builder, takes_appendages = FAMILIES[args.family]
    length, *appendages = args.params
    if appendages and not takes_appendages:
        raise GraphError(f"{args.family} takes no appendage lengths")
    g = builder(length, appendages) if takes_appendages else builder(length)
    if args.format == "g6":
        print(emit_graph6(g))
    else:
        print(emit_dot(g), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    relation = CHECK_RELATIONS[args.relation]
    target = _read_graph(args.target)
    source = _read_graph(args.source)
    evidence = WITNESS_SEARCHES[relation](target, source)
    holds = evidence is not None

    if args.witness:
        doc = witness_document(relation, holds, source, target, evidence)
        try:
            Path(args.witness).write_text(json.dumps(doc, indent=2) + "\n")
        except OSError as exc:
            raise GraphError(f"cannot write witness {args.witness}: {exc}") from exc
    print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_admissible(args: argparse.Namespace) -> int:
    g = _read_graph(args.source)
    check_size_cap(g)
    for p in admissible_pairs(g):
        cycle_text = ",".join(str(v) for v in p.cycle)
        print(f"u={p.u} v={p.v} w={p.w} cycle={cycle_text}")
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    g = _read_graph(args.source)
    members = bipartite_minor_closure(g)
    for cf in sorted(members):
        rep = cf.to_graph()
        if args.two_connected and not is_k_connected(rep, 2, args.two_connected):
            continue
        print(emit_graph6(rep))
    return 0


def _cmd_blocks(args: argparse.Namespace) -> int:
    g = _read_graph(args.source)
    decomposition = blocks(g)
    for i, block in enumerate(decomposition.blocks):
        verts = ",".join(str(v) for v in sorted(block.vertices))
        edges = " ".join(f"{u}-{v}" for u, v in sorted(block.edges))
        kind = "trivial" if block.trivial else "nontrivial"
        print(f"block {i} ({kind}): vertices={verts} edges={edges}")
    cuts = ",".join(str(v) for v in sorted(decomposition.cut_vertices))
    print(f"cut_vertices={cuts}")
    return 0


def _cmd_antichain(args: argparse.Namespace) -> int:
    family = _read_family(args.family_file)
    cm = compare_family(family, args.relation)
    for row in cm.matrix:
        print(" ".join("1" if cell else "0" for cell in row))
    print(f"antichain: {'true' if cm.is_antichain else 'false'}")
    return 0 if cm.is_antichain else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_harness(args.suite)
    print(report.render(), end="")
    print(report.render_timings(), end="", file=sys.stderr)
    return 0 if report.ok else 1


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
