"""The docs lint (tools/check_docs.py) as a tier-1 test.

Every relative link and ``#anchor`` in README.md, EXPERIMENTS.md,
DESIGN.md and docs/*.md must resolve, every repo path they quote must
exist, and every ``repro`` CLI subcommand the docs mention, and every
``--flag`` they pass it, must exist in ``repro.cli.build_parser`` — so
the docs cannot drift from the code.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_docs_have_no_broken_links_or_phantom_commands():
    errors = check_docs.run_checks()
    assert not errors, "\n".join(errors)


def test_lint_actually_scans_the_docs():
    files = check_docs.doc_files()
    names = {path.name for path in files}
    assert "README.md" in names
    assert "EXPERIMENTS.md" in names
    assert "DESIGN.md" in names
    assert "parallelism.md" in names
    assert "performance.md" in names


def test_lint_catches_a_broken_link(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see [missing](./no-such-file.md)\n", encoding="utf-8")
    errors = check_docs.check_links(page)
    assert len(errors) == 1
    assert "no-such-file.md" in errors[0]


def test_lint_catches_a_broken_anchor(tmp_path):
    (tmp_path / "other.md").write_text(
        "# The kernel hot path\n\n```\n# Not a heading\n```\n", encoding="utf-8"
    )
    page = tmp_path / "page.md"
    page.write_text(
        "## Local (part 1)\n"
        "[ok](other.md#the-kernel-hot-path) [ok](#local-part-1)\n"
        "[stale](other.md#the-kernel-hot-path-bench_kerneljson)\n"
        "[fenced](other.md#not-a-heading)\n",
        encoding="utf-8",
    )
    errors = check_docs.check_links(page)
    assert len(errors) == 2
    assert "page.md:3: no heading for anchor" in errors[0]
    assert "#not-a-heading" in errors[1]


def test_lint_catches_a_missing_repo_path(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "see `tools/check_docs.py` and `tests/test_docs.py::test_x`;\n"
        "`benchmarks/no_such_bench.py` is gone, and so is `BENCH_nothing.json`\n"
        "```bash\npython tools/no_such_tool.py\n```\n",
        encoding="utf-8",
    )
    errors = check_docs.check_paths(page)
    assert len(errors) == 3
    assert "page.md:2: no such repo path -> benchmarks/no_such_bench.py" in errors[0]
    assert "benchmarks/output/BENCH_nothing.json" in errors[1]
    assert "page.md:4: no such repo path -> tools/no_such_tool.py" in errors[2]


def test_lint_catches_a_phantom_cli_command(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("run `repro frobnicate` to fix it\n", encoding="utf-8")
    errors = check_docs.check_cli_mentions(page, {"campaign": set()})
    assert len(errors) == 1
    assert "frobnicate" in errors[0]


def test_lint_catches_an_unknown_flag_across_continuations(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("python -m repro campaign --workers 2 \\\n  --pool > out\n")
    errors = check_docs.check_cli_mentions(page, check_docs.cli_options())
    assert len(errors) == 1
    assert "page.md:1: docs pass '--pool' to 'repro campaign'" in errors[0]


def test_lint_accepts_known_commands_and_external_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "run `python -m repro campaign --workers 2 --repeat 3` and see "
        "[the paper](https://example.com/paper.pdf)\n",
        encoding="utf-8",
    )
    assert check_docs.check_links(page) == []
    known = {"campaign": {"--workers", "--repeat"}}
    assert check_docs.check_cli_mentions(page, known) == []
