"""``repro lint`` — the kernel-contract gate.

Text output for humans, ``--format=json`` for CI, and the exit-code
contract the workflows rely on: 0 clean, 1 findings, 2 engine error.
``--rules`` takes rule ids or two-letter families (``--rules KB,KC``).
One stateless pass: the command reads the sources and nothing else, and
writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subcommand on the top-level CLI."""
    p = sub.add_parser("lint", help="contract static analysis (KA/KB/KC/KD python, KE C kernels)")
    p.add_argument("paths", nargs="*", default=None,
                   help="files/directories to check (default: the installed repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids or families, e.g. KA001,KB,KC (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="describe the rules and exit")
    p.set_defaults(func=cmd_lint)


def _render_text(result) -> str:
    lines = [f.render() for f in result.findings]
    lines.append(
        f"repro lint: {result.files_checked} files, {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    lines.extend(f"error: {e}" for e in result.errors)
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    # loaded here, not with the parser: `repro --help` and every other
    # command build this subparser without the rule tables
    from repro.analysis import engine
    from repro.analysis.crules import C_RULE_DESCRIPTIONS, C_RULE_IDS
    from repro.analysis.rules import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id} ({rule.name}) [{rule.family}]")
            print(f"    {rule.description}")
        for rule_id in C_RULE_IDS:
            print(f"{rule_id} (c-kernel) [KE]")
            print(f"    {C_RULE_DESCRIPTIONS[rule_id]}")
        return 0

    paths = [Path(p) for p in args.paths] if args.paths else None
    enabled = None
    if args.rules:
        enabled = tuple(tok.strip() for tok in args.rules.split(",") if tok.strip())
        try:
            engine.expand_rule_selection(enabled)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    config = engine.LintConfig(enabled_rules=enabled)

    result = engine.run_lint(paths, config=config)
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(_render_text(result))
    return result.exit_code
