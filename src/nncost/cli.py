"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 input/validation error,
3 fit-check failure under --strict-fit, 64 usage error.  Reports go to
stdout, diagnostics to stderr, so output pipes cleanly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bundled import default_profile_text
from .errors import CostModelError
from .graph import DEFAULT_ENUMERATION_LIMIT, all_topological_orders, infer_shapes, parse_model
from .hwprofile import load_profile
from .liveness import peak_activation
from .report import AnalyzeOptions, analyze, compare, render
from .version import __version__

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nncost",
        description=(
            "Static per-inference runtime/energy/memory estimator for NN "
            "graphs on pre-characterized embedded targets."
        ),
    )
    parser.add_argument("--version", action="version", version=f"nncost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="estimate cost of one model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--profile", help="hardware profile CSV (default: bundled profile)")
    p.add_argument("--order", choices=["default", "min-peak"], default="default")
    p.add_argument("--format", choices=["table", "json", "csv", "svg"], default="table")
    p.add_argument(
        "--no-inplace",
        dest="in_place",
        action="store_false",
        help="disable in-place relu/add buffer reuse",
    )
    p.add_argument(
        "--strict-fit",
        action="store_true",
        help="exit with code 3 when the model exceeds the target budgets",
    )
    p.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
                   help="cap on search states for --order min-peak (exact DP; "
                        "refuses rather than approximates)")

    p = sub.add_parser("compare", help="compare several models on one target")
    p.add_argument("models", nargs="+", help="model JSON files (at least 2)")
    p.add_argument("--profile", help="hardware profile CSV (default: bundled profile)")
    p.add_argument("--format", choices=["table", "json", "csv", "svg"], default="table")
    p.add_argument("--no-inplace", dest="in_place", action="store_false")

    p = sub.add_parser("orders", help="list all execution orders by peak memory")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
                   help="cap on orders listed (refuses rather than truncates)")
    p.add_argument("--no-inplace", dest="in_place", action="store_false")

    p = sub.add_parser("validate", help="check that a model parses and infers shapes")
    p.add_argument("model", help="model JSON file")

    return parser


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CostModelError(f"cannot read '{path}': {e.strerror or e}") from None


def _load_profile_arg(path: str | None):
    if path is None:
        return load_profile(default_profile_text())
    return load_profile(_read_file(path))


def _cmd_analyze(args) -> int:
    profile = _load_profile_arg(args.profile)
    g = parse_model(_read_file(args.model))
    opts = AnalyzeOptions(
        order_policy=args.order,
        in_place=args.in_place,
        enumeration_limit=args.limit,
    )
    report = analyze(g, profile, opts)
    print(render(report, args.format))
    if args.strict_fit and not report.fit.fits:
        parts = []
        if not report.fit.flash_ok:
            parts.append(
                f"weights {report.footprint.weights_bytes} B exceed flash budget "
                f"{report.fit.flash_budget_bytes} B"
            )
        if not report.fit.sram_ok:
            parts.append(
                f"peak activation {report.footprint.peak_activation_bytes} B exceeds "
                f"sram budget {report.fit.sram_budget_bytes} B"
            )
        print("fit check failed: " + "; ".join(parts), file=sys.stderr)
        return EXIT_FIT
    return EXIT_OK


def _cmd_compare(args, parser: argparse.ArgumentParser) -> int:
    if len(args.models) < 2:
        parser.error("compare requires at least 2 models")
    profile = _load_profile_arg(args.profile)
    opts = AnalyzeOptions(in_place=args.in_place)
    reports = [analyze(parse_model(_read_file(p)), profile, opts) for p in args.models]
    print(render(compare(reports), args.format))
    return EXIT_OK


def _cmd_orders(args) -> int:
    g = parse_model(_read_file(args.model))
    shapes = infer_shapes(g)
    orders = all_topological_orders(g, args.limit)
    ranked = sorted(
        ((peak_activation(g, shapes, order, args.in_place).peak_bytes, order) for order in orders),
        key=lambda t: t[0],
    )
    for peak, order in ranked:
        print(f"{peak:>12d}  {' '.join(order)}".rstrip())
    return EXIT_OK


def _cmd_validate(args) -> int:
    g = parse_model(_read_file(args.model))
    infer_shapes(g)
    print("OK")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "compare":
            return _cmd_compare(args, parser)
        if args.command == "orders":
            return _cmd_orders(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except CostModelError as e:
        print(f"nncost: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as e:  # parser.error inside a command handler
        return int(e.code or 0)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
