"""Docs lint: every link, anchor and repo path resolves; every named CLI
command and flag exists.

Four checks over ``README.md``, ``EXPERIMENTS.md``, ``DESIGN.md`` and
``docs/*.md``:

* every *relative* markdown link (``[text](path)``) must point at a
  file or directory that exists in the repository (``http(s)`` and
  ``mailto`` links are skipped);
* every ``#anchor`` on such a link (``path.md#anchor``, or ``#anchor``
  for the page itself) must name a heading of the target page under
  GitHub's slug rule: lowercase, drop every character except word
  characters, spaces and hyphens, spaces become hyphens; headings
  inside code fences do not count;
* every repo path in a code span or code block (``benchmarks/…``,
  ``tools/…``, ``src/…``, ``tests/…``, ``docs/…``, ``examples/…``; a
  ``::name`` or ``:line`` suffix is ignored) must exist, and so must
  every ``BENCH_<name>.json`` artifact named bare (it lives in
  ``benchmarks/output/``), so the docs cannot cite a deleted file;
* every ``repro`` CLI subcommand the docs mention — ``python -m repro
  <sub>`` or inline ``repro <sub>`` code spans — must be a real
  subcommand of :func:`repro.cli.build_parser`, and every ``--flag``
  that follows it in the same command (across ``\\`` line
  continuations) must be one of that subcommand's options, so the docs
  can never advertise a command or a flag the CLI does not have.

Run directly (``python tools/check_docs.py``) or via the tier-1 suite
(``tests/test_docs.py``); CI runs both.  Exit code 0 = clean.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Dict, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images; target captured up to ) or space
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

#: the rest of one command: up to the end of its line (a trailing ``\``
#: continues it), code span, pipe, redirect, ``;``/``&&`` or comment
_ARGS = r"((?:[^`|;&>#\\\n]|\\\n?)*)"

#: ``python -m repro <sub> [args]`` in any code block or prose
_MODULE_CMD = re.compile(
    r"python(?:3)?[ \t]+-m[ \t]+repro[ \t]+([a-z][a-z0-9-]*)" + _ARGS
)

#: inline code spans like ``repro campaign --workers 4`` or `repro detect`
_INLINE_CMD = re.compile(r"`+[ \t]*repro[ \t]+([a-z][a-z0-9-]*)" + _ARGS)

#: a long option such as ``--workers``
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: a code fence opening or closing line
_FENCE = re.compile(r"^\s*(```|~~~)")

#: an ATX heading: ``## Title``
_HEADING = re.compile(r"^#{1,6}[ \t]+(.*?)[ \t#]*$")

#: an inline code span on one line
_CODE_SPAN = re.compile(r"`([^`\n]+)`")

#: a repo path, or a bare ``BENCH_<name>.json`` artifact name
_REPO_PATH = re.compile(
    r"(?<![\w./-])(?:(?:benchmarks|tools|src|tests|docs|examples)/[\w./-]*"
    r"|BENCH_\w+\.json)"
)


def doc_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _subparsers(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _flags(parser: argparse.ArgumentParser) -> set:
    """The option strings *parser* and its nested subcommands accept."""
    flags = set(parser._option_string_actions)
    for child in _subparsers(parser).values():
        flags |= _flags(child)
    return flags


def cli_options() -> Dict[str, set]:
    """Each ``repro`` subcommand -> the option strings it accepts."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    return {name: _flags(sub) for name, sub in _subparsers(build_parser()).items()}


def _display(path: pathlib.Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _lines(path: pathlib.Path) -> List[Tuple[int, str, bool]]:
    """``(number, line, inside_code_fence)`` for every line of *path*."""
    rows, fenced = [], False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fence = bool(_FENCE.match(line))
        fenced ^= fence
        rows.append((number, line, fenced or fence))
    return rows


def slug(heading: str) -> str:
    """GitHub's anchor for *heading*."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def anchors(path: pathlib.Path) -> Set[str]:
    """The anchors of every heading in *path* outside code fences."""
    return {
        slug(match.group(1))
        for _, line, fenced in _lines(path)
        if not fenced and (match := _HEADING.match(line))
    }


def check_links(path: pathlib.Path) -> List[str]:
    errors = []
    for number, line, _ in _lines(path):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (path.parent / file_part).resolve()
            where = f"{_display(path)}:{number}"
            if not resolved.exists():
                errors.append(f"{where}: broken link -> {target}")
            elif anchor and resolved.suffix == ".md" and anchor not in anchors(resolved):
                errors.append(f"{where}: no heading for anchor -> {target}")
    return errors


def check_paths(path: pathlib.Path) -> List[str]:
    """Repo paths in code spans and code blocks that do not exist."""
    errors = []
    for number, line, fenced in _lines(path):
        for code in [line] if fenced else _CODE_SPAN.findall(line):
            for name in _REPO_PATH.findall(code):
                if name.startswith("BENCH_"):
                    name = f"benchmarks/output/{name}"
                if not (REPO_ROOT / name).exists():
                    errors.append(
                        f"{_display(path)}:{number}: no such repo path -> {name}"
                    )
    return errors


def check_cli_mentions(path: pathlib.Path, options: Dict[str, set]) -> List[str]:
    """Phantom subcommands and unknown flags; *options* as from :func:`cli_options`."""
    text = path.read_text(encoding="utf-8")
    errors = []
    for match in [*_MODULE_CMD.finditer(text), *_INLINE_CMD.finditer(text)]:
        name, args = match.groups()
        where = f"{_display(path)}:{text.count(chr(10), 0, match.start()) + 1}"
        if name not in options:
            errors.append(
                f"{where}: docs name a 'repro {name}' subcommand the CLI "
                f"does not have (known: {', '.join(sorted(options))})"
            )
            continue
        errors.extend(
            f"{where}: docs pass '{flag}' to 'repro {name}', which has no such option"
            for flag in _FLAG.findall(args) if flag not in options[name]
        )
    return errors


def run_checks() -> List[str]:
    options = cli_options()
    errors: List[str] = []
    for path in doc_files():
        errors.extend(check_links(path))
        errors.extend(check_paths(path))
        errors.extend(check_cli_mentions(path, options))
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(error, file=sys.stderr)
    checked = ", ".join(_display(p) for p in doc_files())
    if errors:
        print(f"{len(errors)} docs problem(s) in: {checked}", file=sys.stderr)
        return 1
    print(f"docs clean: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
