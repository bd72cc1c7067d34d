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


class TestCensusScript:
    """``census.py`` fails on a public name that only its own tests reach."""

    def test_gate_as_ci_runs_it(self):
        workflow = (SCRIPTS.parent / ".github" / "workflows" / "ci.yml").read_text()
        command = next(
            line.split("run:")[1].split()
            for line in workflow.splitlines()
            if "scripts/census.py" in line
        )
        assert command == [
            "python", "scripts/census.py", "src/repro", "--exclude", "bench",
        ]
        result = run("census.py", *command[2:], cwd=SCRIPTS.parent)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_flags_a_dead_name(self, tmp_path):
        pkg = tmp_path / "src" / "pkgx"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from .mod import Store, dead, used\n"
            '__all__ = ["Store", "dead", "used"]\n'
        )
        (pkg / "mod.py").write_text(
            '__all__ = ["Store", "Helper", "dead", "used", "typed"]\n'
            "class Helper:\n"
            "    pass\n"
            "class typed:\n"
            "    pass\n"
            "class Store:\n"
            "    def helper(self):\n"
            "        return Helper()\n"
            "def dead():\n"
            '    """Recursion and its own docstring: dead() is not reached."""\n'
            "    return dead()\n"
            "def used(x: typed) -> typed:\n"
            "    return x\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from pkgx import Store, used\nused(Store())\n"
        )
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 1
        flagged = sorted(line.split(":")[1] for line in result.stdout.splitlines())
        # Helper's only mention is in a method nothing calls; typed is only
        # an annotation
        assert flagged == ["Helper", "dead", "typed"]

    @staticmethod
    def _unreached_package(root, sub=""):
        """``src/pkgx`` (its module in ``src/pkgx/<sub>`` when given)
        exporting one function, ``name``, that nothing calls yet."""
        pkg = root / "src" / "pkgx"
        home = pkg / sub if sub else pkg
        home.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (home / "__init__.py").write_text("")
        (home / "mod.py").write_text('__all__ = ["name"]\ndef name():\n    return 1\n')

    @pytest.mark.parametrize("root", ["src", "perf", "examples", "scripts", "benchmarks"])
    def test_every_search_root_reaches(self, tmp_path, root):
        self._unreached_package(tmp_path)
        user = tmp_path / root / "user.py"
        user.parent.mkdir(exist_ok=True)
        user.write_text("from pkgx.mod import name\nname()\n")
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_tests_do_not_reach(self, tmp_path):
        self._unreached_package(tmp_path)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text("from pkgx.mod import name\nname()\n")
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout.split(": ")[0] == "pkgx.mod:name"

    def test_a_string_literal_reaches(self, tmp_path):
        # the form the perf/spans.py wrap table names its targets in
        self._unreached_package(tmp_path)
        (tmp_path / "perf").mkdir()
        (tmp_path / "perf" / "spans.py").write_text('TARGETS = ["pkgx.mod:name"]\n')
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_exclude_skips_a_package(self, tmp_path):
        self._unreached_package(tmp_path, sub="bench")
        assert run("census.py", "src/pkgx", cwd=tmp_path).returncode == 1
        result = run("census.py", "src/pkgx", "--exclude", "bench", cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_stale_keep_entry_fails(self, tmp_path):
        # KEEP holds repro.mpisim.ops:LOR as unreached; once something
        # reaches it the entry is stale
        pkg = tmp_path / "src" / "repro" / "mpisim"
        pkg.mkdir(parents=True)
        (pkg.parent / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "ops.py").write_text('__all__ = ["LOR"]\nLOR = object()\n')
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from repro.mpisim.ops import LOR\nprint(LOR)\n"
        )
        result = run("census.py", "src/repro", cwd=tmp_path)
        assert result.returncode == 1
        assert "repro.mpisim.ops:LOR: stale keep entry" in result.stdout


@pytest.mark.parametrize(
    "script", sorted(p.name for p in SCRIPTS.glob("*.py"))
)
def test_every_script_compiles(script):
    source = (SCRIPTS / script).read_text()
    compile(source, script, "exec")
