"""Self-test of the reach gate (tools/check_reach.py) on synthetic modules.

The full scan runs every entry point under a profiler and lives in CI's
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
    """A tiny package: a partly reached module, an unreached one, a data-only one."""
    (root / "pkg").mkdir()
    (root / "pkg" / "reached.py").write_text(
        "import functools\n"
        "\n"
        "@functools.lru_cache()\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "def unused():\n"
        "    return 3\n"
        "\n"
        "def at_import():\n"
        "    return 4\n"
        "\n"
        "TABLE = at_import()\n"
    )
    (root / "pkg" / "orphan.py").write_text(
        "class Orphan:\n"
        "    def method(self):\n"
        "        return 2\n"
        "\n"
        "    def other(self):\n"
        "        def inner():\n"
        "            return 5\n"
        "        return inner\n"
    )
    (root / "pkg" / "data.py").write_text("TABLE = {'a': 1}\n")
    return root / "pkg"


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scan(src):
    """Import both modules and call ``used`` under the profiler."""
    def run():
        reached = load(src / "reached.py")
        orphan = load(src / "orphan.py")  # imported, but no function runs
        assert orphan.Orphan  # class body ran; that is not reach
        reached.used()

    return check_reach.trace_calls(run)


def test_unreached_module_fails_and_reached_ones_pass(tmp_path):
    src = write_tree(tmp_path)
    called = scan(src)
    assert check_reach.unreached_functions(src, called) == {
        "orphan.py::Orphan.method": 2,
        "orphan.py::Orphan.other": 4,
        "orphan.py::Orphan.other.<locals>.inner": 2,
        "reached.py::unused": 2,
    }
    problems = check_reach.check(src, called, {"reached.py::unused": "kept"})
    assert [problem.split(": ")[0] for problem in problems] == [
        "orphan.py::Orphan.method",
        "orphan.py::Orphan.other",
        "orphan.py::Orphan.other.<locals>.inner",
    ]
    assert all("no entry point reaches it" in p for p in problems)


def test_unreached_function_in_a_reached_module_fails(tmp_path):
    src = write_tree(tmp_path)
    problems = check_reach.check(src, scan(src), {"orphan.py::Orphan": "kept"})
    assert problems == [
        "reached.py::unused: no entry point reaches it; wire it into one, "
        "delete it, or name its reason in ALLOWED",
    ]


def test_function_called_only_at_import_time_counts_as_reached(tmp_path):
    src = write_tree(tmp_path)
    unreached = check_reach.unreached_functions(src, scan(src))
    assert "reached.py::at_import" not in unreached
    assert "reached.py::used" not in unreached  # decorated: starts on "@"


def test_allowed_module_passes_with_its_reason(tmp_path):
    src = write_tree(tmp_path)
    assert check_reach.check(src, scan(src), {
        "orphan.py::Orphan.method": "kept for a test",
        "orphan.py::Orphan.other": "kept for a test",
        "reached.py::unused": "kept for a test",
    }) == []


def test_class_key_allow_entry_covers_its_methods(tmp_path):
    src = write_tree(tmp_path)
    assert check_reach.check(src, scan(src), {
        "orphan.py::Orphan": "one reason fits every method",
        "reached.py::unused": "kept for a test",
    }) == []


def test_stale_allow_list_entries_fail(tmp_path):
    src = write_tree(tmp_path)
    problems = check_reach.check(src, scan(src), {
        "orphan.py::Orphan": "still unreached, fine",
        "reached.py::unused": "still unreached, fine",
        "reached.py::used": "but a command now runs it",
        "gone.py::anything": "deleted since",
    })
    assert problems == [
        "gone.py::anything: listed in ALLOWED but no longer exists",
        "reached.py::used: listed in ALLOWED but an entry point now "
        "reaches it; drop the entry",
    ]


def test_stale_function_entry_fails(tmp_path):
    src = write_tree(tmp_path)
    problems = check_reach.check(src, scan(src), {
        "orphan.py::Orphan": "still unreached, fine",
        "reached.py::unused": "still unreached, fine",
        "reached.py::renamed": "the function it named is gone",
        "data.py::TABLE": "not a function",
    })
    assert problems == [
        "data.py::TABLE: listed in ALLOWED but no longer exists",
        "reached.py::renamed: listed in ALLOWED but no longer exists",
    ]


def test_every_allow_list_entry_names_an_existing_module():
    for key, reason in check_reach.ALLOWED.items():
        module, _, qualname = key.partition("::")
        path = check_reach.SRC_ROOT / module
        assert path.is_file(), key
        assert any(name == qualname or name.startswith(qualname + ".")
                   for name in check_reach.defined_functions(path)), key
        assert reason.strip(), key
