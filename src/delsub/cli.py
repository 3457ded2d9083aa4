"""Command-line front end: construct, check, decode, ball, verify, table, examples.

Every subcommand takes --format json|text (default json) and emits a
single document on stdout.  Exit codes: 0 success, 1 a check failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Sequence

from .channel import error_ball
from .code import CodeParams, choose_params, is_codeword
from .decoder import list_decode
from .scenarios import replay
from .verifier import ALL_CHECKS, full_report, redundancy_table, smoke_report
from .words import Word, _check_length


def _parse_params(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected c0,c1,c2 got {text!r}")
    try:
        c0, c1, c2 = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers, got {text!r}")
    return c0, c1, c2


def _code(args: argparse.Namespace) -> CodeParams:
    """The class of --n and --params; like ball, check and decode stop at SCAN_CEILING."""
    p = CodeParams(args.n, *args.params)
    _check_length(p.n, args.command)
    return p


def _word(text: str, n: int, what: str) -> Word:
    w = Word.from_text(text)
    if w.n != n:
        raise ValueError(f"{what} must have length {n}, got {w.n}")
    return w


def _emit(doc, fmt: str, text: Callable[[], Iterable[str]]) -> None:
    """Print doc as one JSON line, or the lines of text(), rendered only for --format text."""
    if fmt == "json":
        print(json.dumps(doc))
    else:
        for line in text():
            print(line)


def cmd_construct(args: argparse.Namespace) -> int:
    p, stats = choose_params(args.n)
    doc = {**asdict(p), "size": stats.size, "redundancy": stats.redundancy}
    line = "n={n} params=({c0},{c1},{c2}) size={size} redundancy={redundancy}"
    _emit(doc, args.format, lambda: [line.format(**doc)])
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    p = _code(args)
    w = _word(args.word, args.n, "--word")
    ok = is_codeword(w, p)
    _emit(ok, args.format, lambda: ["true" if ok else "false"])
    return 0 if ok else 1


def cmd_decode(args: argparse.Namespace) -> int:
    p = _code(args)
    y = _word(args.word, args.n - 1, "--word (a received word)")
    result = list_decode(y, p)
    doc = {
        "candidates": [{"word": str(w), **ev._asdict()} for w, ev in result.candidates],
        "count": len(result.candidates),
    }
    lines = (f"{c['word']} d={c['d']} e={c['e']}" for c in doc["candidates"])
    _emit(doc, args.format, lambda: [f"count={doc['count']}", *lines])
    return 0


def cmd_ball(args: argparse.Namespace) -> int:
    w = _word(args.word, args.n, "--word")
    ball = sorted(error_ball(w))
    doc = {"n": args.n, "word": str(w), "size": len(ball), "ball": [str(y) for y in ball]}
    _emit(doc, args.format, lambda: [f"size={len(ball)}", *map(str, ball)])
    return 0


# verify's options whose defaults live in full_report and smoke_report, in the
# order the smoke conflict message names them; build_parser leaves each unset
# unless given.
_LIBRARY_DEFAULTED = ("checks", "max_collisions", "seed", "timing")


def cmd_verify(args: argparse.Namespace) -> int:
    given = {k: getattr(args, k) for k in _LIBRARY_DEFAULTED if k in args}
    if "seed" in given and args.smoke is None:
        raise ValueError("--seed only applies to the smoke-sampling mode (--smoke)")
    params = CodeParams(args.n, *args.params) if args.params else None
    if args.smoke is None:
        doc, passed = full_report(args.n, params, **given)
    else:
        exhaustive_only = ["--" + k.replace("_", "-") for k in given if k != "seed"]
        if exhaustive_only:
            raise ValueError(
                f"{', '.join(exhaustive_only)} cannot be combined with --smoke "
                "(they apply to the exhaustive checks only)"
            )
        doc, passed = smoke_report(args.n, params, samples=args.smoke, **given)
    _emit(doc, args.format, lambda: [f"{k}={v}" for k, v in doc.items()])
    return 0 if passed else 1


def cmd_table(args: argparse.Namespace) -> int:
    try:
        ns = [int(v) for v in args.n_list.split(",") if v]
    except ValueError:
        raise ValueError(f"--n-list expects comma-separated integers, got {args.n_list!r}") from None
    if not ns:
        raise ValueError(f"--n-list needs at least one length, got {args.n_list!r}")
    rows = redundancy_table(ns)
    doc = [asdict(r) for r in rows]

    def lines() -> Iterator[str]:
        yield f"{'n':>4} {'size':>10} {'redundancy':>12} {'bound':>8} {'margin':>8}"
        for r in rows:
            yield f"{r.n:>4} {r.size:>10} {r.redundancy:>12.4f} {r.bound:>8.4f} {r.margin:>8.4f}"

    _emit(doc, args.format, lines)
    return 0 if all(r.margin >= 0 for r in rows) else 1


def cmd_examples(args: argparse.Namespace) -> int:
    checks = replay()
    doc = [asdict(c) for c in checks]

    def lines() -> Iterator[str]:
        for c in checks:
            u_text = "(" + ",".join(str(v) for v in c.u) + ")"
            yield f"{c.name}: u={u_text} {'ok' if c.ok else 'FAILED ' + '; '.join(c.failures)}"

    _emit(doc, args.format, lines)
    return 0 if all(c.ok for c in checks) else 1


# Each flag shared by several subcommands, declared once.
_FLAGS = {
    "--n": {"type": int},
    "--params": {"type": _parse_params, "metavar": "c0,c1,c2"},
    "--word": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delsub",
        description="Construct, decode and verify binary codes for one deletion plus one substitution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(handler, help: str, *required: str) -> argparse.ArgumentParser:
        p = sub.add_parser(handler.__name__.removeprefix("cmd_"), help=help)
        for flag in required:
            p.add_argument(flag, required=True, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(handler=handler)
        return p

    command(cmd_construct, "pick the largest residue class at length n", "--n")
    command(cmd_check, "test one word for class membership", "--n", "--params", "--word")
    command(cmd_decode, "list-decode a received (n-1)-bit word", "--n", "--params", "--word")
    command(cmd_ball, "list every word one corruption away", "--n", "--word")
    p = command(cmd_verify, "run exhaustive checks against one class", "--n")
    p.add_argument("--params", **_FLAGS["--params"])
    # The defaults named in the help text, read through any wrapper of full_report.
    default = {k: v.default for k, v in inspect.signature(full_report).parameters.items()}
    for flag, spec in (
        ("--checks", {
            "type": lambda text: tuple(c for c in text.split(",") if c),
            "help": f"comma list from: {','.join(ALL_CHECKS)} (default {','.join(default['checks'])})",
        }),
        ("--max-collisions", {
            "type": int,
            "help": f"collision records to list (default {default['max_collisions']})",
        }),
        ("--smoke", {"type": int, "metavar": "SAMPLES", "help": "sampled spot checks instead of exhaustion"}),
        ("--seed", {"type": int, "help": "smoke-mode RNG seed"}),
        ("--timing", {"action": "store_true", "help": "include elapsed seconds in the report"}),
    ):
        if flag[2:].replace("-", "_") in _LIBRARY_DEFAULTED:
            spec["default"] = argparse.SUPPRESS
        p.add_argument(flag, **spec)
    p = command(cmd_table, "redundancy of the best class per length")
    p.add_argument("--n-list", required=True, metavar="N1,N2,...")
    command(cmd_examples, "replay the bundled corruption scenarios")
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on main's first call and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
