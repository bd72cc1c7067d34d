"""The ``scripts/`` entry points stay runnable from a bare checkout and are
thin shims over importable, unit-tested library modules."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def run(script, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PATH": "/usr/bin:/bin"},  # deliberately no PYTHONPATH
    )


class TestSpmdLintScript:
    def test_help_runs_without_pythonpath(self):
        result = run("spmd_lint.py", "--help")
        assert result.returncode == 0
        assert "SPMD001" in result.stdout

    def test_gate_against_committed_baseline(self):
        # the ISSUE's acceptance command, run exactly as CI runs it
        result = run(
            "spmd_lint.py", "src", "examples", "tests",
            cwd=SCRIPTS.parent,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_is_a_shim_over_the_library(self):
        from repro.analysis.cli import main  # noqa: F401

        text = (SCRIPTS / "spmd_lint.py").read_text()
        assert "from repro.analysis.cli import main" in text

    def test_bad_tree_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        result = run("spmd_lint.py", str(bad), "--no-baseline", cwd=tmp_path)
        assert result.returncode == 1
        assert "SPMD001" in result.stdout


class TestTraceSchemaScript:
    def test_help_runs_without_pythonpath(self):
        result = run("check_trace_schema.py", "--help")
        assert result.returncode == 0

    def test_is_a_shim_over_the_library(self):
        from repro.obs.schema_check import main  # noqa: F401

        text = (SCRIPTS / "check_trace_schema.py").read_text()
        assert "from repro.obs.schema_check import main" in text

    def test_validates_real_artifact(self, tmp_path):
        from repro.obs import Tracer, write_jsonl

        class FakeClock:
            now = 0.0

        tracer = Tracer(clock=FakeClock(), rank=0)
        with tracer.span("query"):
            FakeClock.now = 1.0
        path = write_jsonl(tracer.export(), tmp_path / "t.jsonl")
        result = run("check_trace_schema.py", str(path))
        assert result.returncode == 0, result.stderr


class TestStoreLocScript:
    """``store_loc.py`` is the counting rule of the ``repro.store`` shrink
    (ROADMAP) made executable; CI gates the package's size with it."""

    FIXTURE = (
        '"""Module docstring,\n'          # docstring lines never count
        '\n'
        'over three lines."""\n'
        "import os  # a trailing comment does not hide the statement\n"  # 1
        "\n"
        "# a comment line\n"
        "def f(a,\n"                       # 2
        "      b):\n"                      # 3
        '    """Function docstring."""\n'
        "    x = (\n"                      # 4
        "        a\n"                      # 5
        "    )\n"                          # 6
        '    s = """a string that is\n'    # 7
        'not a docstring"""\n'             # 8
        "    return x, s\n"                # 9
        "class C:\n"                       # 10
        "    'Class docstring.'\n"
        "    y = 1\n"                      # 11
    )

    def test_counts_token_lines_minus_docstrings(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "m.py").write_text(self.FIXTURE)
        (tmp_path / "pkg" / "empty.py").write_text("# nothing but a comment\n")
        result = run("store_loc.py", "pkg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "0", "pkg/empty.py", "11", "pkg/m.py", "11", "total",
        ]

    def test_max_is_a_gate(self, tmp_path):
        (tmp_path / "m.py").write_text(self.FIXTURE)
        assert run("store_loc.py", "m.py", "--max", "11", cwd=tmp_path).returncode == 0
        over = run("store_loc.py", "m.py", "--max", "10", cwd=tmp_path)
        assert over.returncode == 1
        assert "11 logical lines exceed --max 10" in over.stderr

    def test_store_and_package_stay_within_the_ci_budgets(self):
        # the gates exactly as the spmd-lint job of ci.yml runs them
        workflow = (SCRIPTS.parent / ".github" / "workflows" / "ci.yml").read_text()
        commands = [
            line.split("run:")[1].split()
            for line in workflow.splitlines()
            if "scripts/store_loc.py" in line
        ]
        assert [command[:4] for command in commands] == [
            ["python", "scripts/store_loc.py", path, "--max"]
            for path in ("src/repro/store", "src/repro")
        ]
        for command in commands:
            result = run("store_loc.py", *command[2:], cwd=SCRIPTS.parent)
            assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize(
    "script", sorted(p.name for p in SCRIPTS.glob("*.py"))
)
def test_every_script_compiles(script):
    source = (SCRIPTS / script).read_text()
    compile(source, script, "exec")
