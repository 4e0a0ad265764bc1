"""Self-test of the reach gate (tools/check_reach.py) on synthetic modules.

The full scan runs every command under a profiler and lives in CI's
``static`` job; these tests check the verdict logic on a throwaway
source tree, so they cost milliseconds.
"""

import importlib.util
import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_reach  # noqa: E402


def write_tree(root):
    """A tiny package: one reached module, one unreached, one data-only."""
    (root / "pkg").mkdir()
    (root / "pkg" / "reached.py").write_text(
        "import functools\n"
        "\n"
        "@functools.lru_cache()\n"
        "def used():\n"
        "    return 1\n"
    )
    (root / "pkg" / "orphan.py").write_text(
        "class Orphan:\n"
        "    def method(self):\n"
        "        return 2\n"
    )
    (root / "pkg" / "data.py").write_text("TABLE = {'a': 1}\n")
    return root / "pkg"


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_module_fails_and_reached_ones_pass(tmp_path):
    src = write_tree(tmp_path)
    reached = load(src / "reached.py")
    orphan = load(src / "orphan.py")  # imported, but no function runs
    assert orphan.Orphan  # class body ran; that is not reach
    called = check_reach.trace_calls(reached.used)
    assert check_reach.unreached_modules(src, called) == ["orphan.py"]
    problems = check_reach.check(src, called, {})
    assert len(problems) == 1 and problems[0].startswith("orphan.py: no command")


def test_allowed_module_passes_with_its_reason(tmp_path):
    src = write_tree(tmp_path)
    called = check_reach.trace_calls(load(src / "reached.py").used)
    assert check_reach.check(src, called, {"orphan.py": "kept for a test"}) == []


def test_stale_allow_list_entries_fail(tmp_path):
    src = write_tree(tmp_path)
    called = check_reach.trace_calls(load(src / "reached.py").used)
    problems = check_reach.check(src, called, {
        "orphan.py": "still unreached, fine",
        "reached.py": "but a command now runs it",
        "gone.py": "deleted since",
    })
    assert problems == [
        "gone.py: listed in ALLOWED but no longer exists",
        "reached.py: listed in ALLOWED but a command now reaches it; "
        "drop the entry",
    ]


def test_every_allow_list_entry_names_an_existing_module():
    for module, reason in check_reach.ALLOWED.items():
        assert (check_reach.SRC_ROOT / module).is_file(), module
        assert reason.strip(), module
