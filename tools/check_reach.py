"""Reach gate: every ``src/repro`` module must run under some ``repro`` command.

The scan runs a fixed list of small ``repro.cli.main`` invocations in
this process under :func:`sys.setprofile` and records every Python
function that was called.  It then parses each module under
``src/repro`` and collects the functions it defines (``def`` and
``async def`` at any depth, found by AST).  A module that defines at
least one function, none of which ran, is *unreached*: no command
needs it, so it either reproduces a paper claim and should be wired
into a command, or it should go.

An unreached module fails the check unless :data:`ALLOWED` names it
with a reason.  A stale entry fails too: one whose module now runs, or
no longer exists, so the allow-list cannot outlive its reasons.

The commands use the CI smoke sizes plus ``repro report`` and the
``--format`` variants that reach the exporters.  Campaigns that use a
worker pool run its parent side here; the workers themselves run in
child processes and are not profiled.

Run directly (``python tools/check_reach.py``); CI runs it in the
``static`` job.  Exit code 0 = every module is reached or allowed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Modules (relative to ``src/repro``) that no command reaches, each with
#: the north-star aim or the test that keeps it.
ALLOWED: Dict[str, str] = {
    "fuzz/strategies.py": (
        "hypothesis strategies for sequence generation; correctness aim: "
        "tests/test_fuzz_engine.py and tests/test_properties*.py drive them"
    ),
}

#: The scanned commands; ``{tmp}`` is a fresh scratch directory.
COMMANDS: Sequence[Sequence[str]] = (
    ("table1",),
    ("table2",),
    ("table3",),
    ("table3", "--format", "json"),
    ("table3", "--format", "csv"),
    ("table3", "--format", "markdown"),
    ("fig1", "--vendor", "TP-LINK"),
    ("fig2",),
    ("fig3",),
    ("fig4",),
    ("attack", "E-Link Smart", "A4-1"),
    ("audit", "D-LINK"),
    ("entropy",),
    ("witness", "OZWI"),
    ("fix", "OZWI"),
    ("sweep",),
    ("secure",),
    ("report",),
    ("obs", "--households", "4", "--probes", "16"),
    ("obs", "--mode", "mass-unbind", "--households", "4", "--probes", "16",
     "--format", "json"),
    ("obs", "--mode", "attacks", "--vendor", "D-LINK"),
    ("slo", "--households", "4", "--seconds", "60"),
    ("slo", "--households", "4", "--seconds", "60", "--chaos",
     "cloud-brownout", "--format", "json"),
    ("campaign", "--workers", "2", "--households", "8", "--probes", "16"),
    ("campaign", "--mode", "shadow-probe", "--workers", "2", "--households",
     "8", "--probes", "16", "--repeat", "2", "--format", "json"),
    ("campaign", "--mode", "mass-unbind", "--build", "clone", "--households",
     "8", "--probes", "16"),
    ("campaign", "--households", "8", "--probes", "16", "--chaos",
     "lossy-lan"),
    ("campaign", "--mode", "mass-rebind", "--households", "8", "--probes",
     "16", "--detect"),
    ("chaos", "list"),
    ("chaos", "describe", "flaky-wan"),
    ("chaos", "run", "cloud-restart", "--households", "4", "--seconds", "120"),
    ("chaos", "run", "lossy-lan", "--households", "4", "--seconds", "60",
     "--format", "json"),
    ("detect", "--households", "4", "--probes", "8"),
    ("detect", "--households", "4", "--probes", "8", "--attack", "A4",
     "--format", "json"),
    ("designs", "list", "--format", "json"),
    ("designs", "describe", "OZWI"),
    ("designs", "enumerate", "--limit", "64"),
    ("designs", "diff", "--limit", "64"),
    ("snapshot", "save", "{tmp}/cloud.json", "--vendor", "OZWI",
     "--households", "3"),
    ("snapshot", "inspect", "{tmp}/cloud.json"),
    ("snapshot", "load", "{tmp}/cloud.json"),
    ("fuzz", "list"),
    ("fuzz", "replay"),
    ("fuzz", "score"),
)


def defined_functions(path: pathlib.Path) -> Set[int]:
    """Every line a code object of one of *path*'s functions may start on.

    A decorated function's code object starts on its first decorator,
    an undecorated one on its ``def`` line; both are returned.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.add(node.lineno)
            lines.update(d.lineno for d in node.decorator_list)
    return lines


def unreached_modules(src_root: pathlib.Path,
                      called: Mapping[str, Set[int]]) -> List[str]:
    """Modules under *src_root* that define functions none of which ran.

    *called* maps a resolved file path to the first lines of the code
    objects that ran in it.
    """
    unreached = []
    for path in sorted(src_root.rglob("*.py")):
        functions = defined_functions(path)
        if functions and not functions & called.get(str(path.resolve()), set()):
            unreached.append(path.relative_to(src_root).as_posix())
    return unreached


def check(src_root: pathlib.Path, called: Mapping[str, Set[int]],
          allowed: Mapping[str, str]) -> List[str]:
    """Every problem: unreached and unlisted, or listed but stale."""
    unreached = unreached_modules(src_root, called)
    problems = [
        f"{module}: no command reaches it; wire it into a command, delete "
        f"it, or name its reason in ALLOWED"
        for module in unreached if module not in allowed
    ]
    for module in sorted(allowed):
        if not (src_root / module).is_file():
            problems.append(f"{module}: listed in ALLOWED but no longer exists")
        elif module not in unreached:
            problems.append(f"{module}: listed in ALLOWED but a command now "
                            f"reaches it; drop the entry")
    return problems


def trace_calls(run: Callable[[], None]) -> Dict[str, Set[int]]:
    """Run *run* under a profiler; file path -> first lines of called code."""
    seen: Set[object] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called: Dict[str, Set[int]] = {}
    for code in seen:
        called.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    return {
        str(pathlib.Path(name).resolve()): lines
        for name, lines in called.items()
        if not name.startswith("<")
    }


def run_commands(commands: Iterable[Sequence[str]]) -> None:
    """Run every command in-process; a non-zero exit aborts the scan."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            argv = [arg.replace("{tmp}", tmp) for arg in command]
            start = time.monotonic()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(f"  {time.monotonic() - start:6.1f}s  repro {' '.join(argv)}",
                  file=sys.stderr)
            if code != 0:
                raise SystemExit(f"repro {' '.join(argv)} exited {code}")


def main() -> int:
    sys.path.insert(0, str(SRC_ROOT.parent))
    os.chdir(REPO_ROOT)  # fuzz replay/score/list default to a repo-relative corpus
    called = trace_calls(lambda: run_commands(COMMANDS))
    problems = check(SRC_ROOT, called, ALLOWED)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} reach problem(s) over {len(COMMANDS)} commands",
              file=sys.stderr)
        return 1
    print(f"every src/repro module is reached by {len(COMMANDS)} commands "
          f"or allowed ({len(ALLOWED)} allowed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
