"""The ``scripts/`` entry points stay runnable from a bare checkout and are
thin shims over importable, unit-tested library modules."""

import importlib.util
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

    def test_gate_passes_on_the_repo(self):
        # run exactly as CI runs it
        result = run(
            "spmd_lint.py", "src", "examples", "tests", "benchmarks",
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
        result = run("spmd_lint.py", str(bad), cwd=tmp_path)
        assert result.returncode == 1
        assert "SPMD001" in result.stdout

    def test_a_reasonless_suppression_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()  # spmd: ignore[SPMD001]\n"
        )
        result = run("spmd_lint.py", str(bad), cwd=tmp_path)
        assert result.returncode == 1
        assert "SPMD001" in result.stdout

    def test_a_suppression_in_a_string_literal_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            '        comm.barrier(); msg = "# spmd: ignore[*] not a comment"\n'
        )
        result = run("spmd_lint.py", str(bad), cwd=tmp_path)
        assert result.returncode == 1
        assert "SPMD001" in result.stdout

    def test_a_path_that_does_not_exist_fails(self, tmp_path):
        result = run("spmd_lint.py", "no_such_dir", cwd=tmp_path)
        assert result.returncode == 2
        assert "no_such_dir" in result.stderr


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
    """``census.py`` fails on a public name, class member or defaulted
    keyword that only its own tests reach."""

    def test_gate_as_ci_runs_it(self):
        workflow = (SCRIPTS.parent / ".github" / "workflows" / "ci.yml").read_text()
        command = next(
            line.split("run:")[1].split()
            for line in workflow.splitlines()
            if "scripts/census.py" in line
        )
        assert command == ["python", "scripts/census.py", "src/repro"]
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
        # Helper's only mention is in a method nothing calls (so that method
        # is flagged too); typed is only an annotation
        assert flagged == ["Helper", "Store.helper", "dead", "typed"]

    @staticmethod
    def _unreached_package(root):
        """``src/pkgx`` exporting one function, ``name``, that nothing calls
        yet."""
        pkg = root / "src" / "pkgx"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text('__all__ = ["name"]\ndef name():\n    return 1\n')

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

    def test_prose_in_a_string_literal_does_not_reach(self, tmp_path):
        # only the module:name form counts: a name an error message tells
        # the reader to call is not a caller
        self._unreached_package(tmp_path)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            'raise SystemExit("rewrite it with pkgx.mod.name(fs) or name first")\n'
        )
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout.split(": ")[0] == "pkgx.mod:name"

    def test_every_subpackage_is_censused(self, tmp_path):
        # no package is set aside: an unreached name in a subpackage is
        # flagged, and there is no option to exclude it
        self._unreached_package(tmp_path)
        sub = tmp_path / "src" / "pkgx" / "bench"
        sub.mkdir()
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text('__all__ = ["figure"]\ndef figure():\n    return 1\n')
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text("from pkgx.mod import name\nname()\n")
        result = run("census.py", "src/pkgx", cwd=tmp_path)
        assert result.returncode == 1
        assert [line.split(": ")[0] for line in result.stdout.splitlines()] == [
            "pkgx.bench.mod:figure"
        ]
        result = run("census.py", "src/pkgx", "--exclude", "bench", cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments: --exclude" in result.stderr

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

    # --- class members and defaulted keywords ------------------------------ #
    @staticmethod
    def _member_package(root, body, **users):
        """``src/pkgx/mod.py`` holding *body* (``Store`` is reached through
        ``__all__`` by ``examples/demo.py``), plus one file per
        ``dir__file_py=source`` in *users*; returns the census's findings."""
        pkg = root / "src" / "pkgx"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text('__all__ = ["Store"]\n' + body)
        (root / "examples").mkdir()
        (root / "examples" / "demo.py").write_text("from pkgx.mod import Store\nStore()\n")
        for name, source in users.items():
            path = root / (name.replace("__", "/")[: -len("_py")] + ".py")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        result = run("census.py", "src/pkgx", cwd=root)
        return result.returncode, sorted(line.split(": ")[0] for line in result.stdout.splitlines())

    def test_a_method_only_its_own_tests_reach_is_flagged(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def used(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        return self.dead()\n",  # recursion is its own definition
            tests__test_mod_py="from pkgx.mod import Store\nStore().dead()\n",
            examples__use_py="def f(store):\n    return store.used()\n",
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store.dead"])

    def test_an_attribute_access_in_another_module_reaches_a_method(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n",
            src__pkgx__other_py="def size_of(store):\n    return store.size\n",
        )
        assert (code, flagged) == (0, [])

    def test_a_helper_only_a_reached_sibling_calls_is_reached(self, tmp_path):
        body = (
            "class Store:\n"
            "    def serve(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
        )
        code, flagged = self._member_package(
            tmp_path, body, perf__run_py="def go(store):\n    store.serve()\n"
        )
        assert (code, flagged) == (0, [])
        # once nothing calls serve, neither method is reached
        code, flagged = self._member_package(tmp_path / "unreached", body)
        assert (code, flagged) == (1, ["pkgx.mod:Store.helper", "pkgx.mod:Store.serve"])

    def test_a_keyword_no_caller_passes_is_flagged(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def __init__(self, cache=1, strict=False):\n"
            "        self._cache = cache\n"
            "def load(store, retries=3, *, lazy=False):\n"
            "    return store\n",
            examples__use_py=(
                "from pkgx.mod import Store, load\n"
                "load(Store(cache=2), retries=5)\n"
            ),
            tests__test_mod_py="from pkgx.mod import Store, load\nload(Store(strict=True), lazy=True)\n",
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store(strict)", "pkgx.mod:load(lazy)"])

    @pytest.mark.parametrize("call", [
        "Store(2, True)",                      # by position
        "Store(*[2, True])",                   # spread positionally
        "Store(**{'strict': True})",           # forwarded **kwargs
        "make(strict=True)",                   # through an inherited __init__
    ])
    def test_a_keyword_passed_by_position_or_forwarded_is_reached(self, tmp_path, call):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def __init__(self, cache=1, strict=False):\n"
            "        self._cache = cache\n"
            "class Mid(Store):\n"
            "    pass\n"
            "class Sub(Mid):\n"
            "    pass\n",
            examples__use_py=(
                "from pkgx.mod import Store, Sub\n"
                "def make(**kwargs):\n"
                "    return Sub(cache=2, **kwargs)\n"
                f"{call}\n"
            ),
        )
        assert (code, flagged) == (0, [])

    def test_a_call_inside_an_unreached_method_passes_nothing(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def warm(self):\n"
            "        return load(self, lazy=True)\n"
            "def load(store, lazy=False):\n"
            "    return store\n",
            examples__use_py="from pkgx.mod import Store, load\nload(Store())\n",
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store.warm", "pkgx.mod:load(lazy)"])

    def test_a_module_name_string_reaches_a_member(self, tmp_path):
        # the perf/spans.py wrap table names its targets module:Class.member
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n    def serve(self):\n        return 1\n",
            perf__spans_py='TARGETS = ["pkgx.mod:Store.serve"]\n',
        )
        assert (code, flagged) == (0, [])

    def test_cls_and_super_calls_reach_init_keywords(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def __init__(self, cache=1, strict=False):\n"
            "        self._cache = cache\n"
            "    @classmethod\n"
            "    def open(cls):\n"
            "        return cls(strict=True)\n"
            "class Sub(Store):\n"
            "    def __init__(self):\n"
            "        super().__init__(cache=2)\n",
            examples__use_py="from pkgx.mod import Store, Sub\nStore.open()\nSub()\n",
        )
        assert (code, flagged) == (0, [])

    def test_dunder_and_private_members_are_not_checked(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def __len__(self):\n"
            "        return self._count(strict=True)\n"
            "    def _count(self, strict=False):\n"
            "        return 0\n",
        )
        assert (code, flagged) == (0, [])

    def test_a_keyword_keep_entry_that_becomes_passed_is_stale(self, tmp_path):
        # KEEP holds repro.store.writer:bulk_load(read_replicas) as unpassed
        pkg = tmp_path / "src" / "repro" / "store"
        pkg.mkdir(parents=True)
        (pkg.parent / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "writer.py").write_text(
            '__all__ = ["bulk_load"]\ndef bulk_load(fs, read_replicas=0):\n    return fs\n'
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from repro.store.writer import bulk_load\nbulk_load(None, read_replicas=1)\n"
        )
        result = run("census.py", "src/repro", cwd=tmp_path)
        assert result.returncode == 1
        assert "repro.store.writer:bulk_load(read_replicas): stale keep entry" in result.stdout

    # --- dataclass fields and write-only attributes ----------------------- #
    def test_a_dataclass_field_no_caller_passes_is_flagged(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Store:\n"
            "    name: str = 'x'\n"
            "    cache: int = 1\n"
            "    strict: bool = False\n",
            examples__use_py="from pkgx.mod import Store\nStore(cache=2)\n",
            tests__test_mod_py="from pkgx.mod import Store\nStore(strict=True)\n",
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store(name)", "pkgx.mod:Store(strict)"])

    @pytest.mark.parametrize("call", [
        "Store(2, True)",                      # by position, in field order
        "Store(strict=True)",                  # by name
        "Store(**{'strict': True})",           # forwarded **kwargs
        "Sub(strict=True)",                    # through an inherited __init__
    ])
    def test_a_dataclass_field_passed_is_reached(self, tmp_path, call):
        code, flagged = self._member_package(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Store:\n"
            "    cache: int = 1\n"
            "    strict: bool = False\n"
            "class Sub(Store):\n"
            "    pass\n",
            examples__use_py=f"from pkgx.mod import Store, Sub\nStore(cache=2)\n{call}\n",
        )
        assert (code, flagged) == (0, [])

    def test_a_dataclass_field_that_is_state_is_not_checked(self, tmp_path):
        # a field(...) default, a field some code assigns through an
        # attribute and one its own methods assign are state, not settings;
        # a self.strict store in another class sets that class's attribute
        code, flagged = self._member_package(
            tmp_path,
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Store:\n"
            "    pages: list = field(default_factory=list)\n"
            "    hits: int = 0\n"
            "    misses: int = 0\n"
            "    strict: bool = False\n"
            "    def miss(self):\n"
            "        self.misses += 1\n",
            examples__use_py=(
                "from pkgx.mod import Store\n"
                "store = Store()\n"
                "store.hits += 1\n"
                "store.miss()\n"
                "print(store.hits, store.misses)\n"
                "class Other:\n"
                "    def __init__(self):\n"
                "        self.strict = True\n"
            ),
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store(strict)"])

    def test_a_field_keep_entry_that_becomes_passed_is_stale(self, tmp_path):
        # KEEP holds repro.core.partition:PartitionConfig(info) as unpassed
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg.parent / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "partition.py").write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class PartitionConfig:\n"
            "    info: object = None\n"
            "    max_geometry_size: int = 11\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from repro.core.partition import PartitionConfig\n"
            "PartitionConfig(info={}, max_geometry_size=12)\n"
        )
        result = run("census.py", "src/repro", cwd=tmp_path)
        assert result.returncode == 1
        assert "repro.core.partition:PartitionConfig(info): stale keep entry" in result.stdout

    def test_a_write_only_attribute_is_flagged(self, tmp_path):
        code, flagged = self._member_package(
            tmp_path,
            "class Store:\n"
            "    def __init__(self):\n"
            "        self.dead = 1\n"
            "        self.loaded = 2\n"
            "        self.by_getattr = 3\n"
            "        self.by_attrgetter = 4\n"
            "        self.by_target = 5\n"
            "        self._private = 6\n",
            examples__use_py=(
                "import operator\n"
                "from pkgx.mod import Store\n"
                "store = Store()\n"
                "print(store.loaded, getattr(store, 'by_getattr'))\n"
                "print(operator.attrgetter('by_attrgetter')(store))\n"
            ),
            perf__spans_py='TARGETS = ["pkgx.mod:Store.by_target"]\n',
        )
        assert (code, flagged) == (1, ["pkgx.mod:Store.dead"])

    def test_a_keep_entry_needs_a_known_rule_and_a_reason(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("census_script", SCRIPTS / "census.py")
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
        self._unreached_package(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(census, "KEEP", {
            "pkgx.mod:name": ("test helper", ""),
            "pkgx.mod:other": ("tidy", "a reason"),
        })
        assert census.main(["src/pkgx"]) == 1
        out = capsys.readouterr().out
        assert "pkgx.mod:name: keep entry gives no reason" in out
        assert "pkgx.mod:other: keep rule 'tidy' is not one of" in out

    def test_a_member_keep_entry_that_becomes_reached_is_stale(self, tmp_path):
        # KEEP holds repro.mpisim.comm:Communicator.exscan as unreached
        pkg = tmp_path / "src" / "repro" / "mpisim"
        pkg.mkdir(parents=True)
        (pkg.parent / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "comm.py").write_text(
            "class Communicator:\n    def exscan(self, value):\n        return value\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "def prefix(comm):\n    return comm.exscan(1)\n"
        )
        result = run("census.py", "src/repro", cwd=tmp_path)
        assert result.returncode == 1
        assert "repro.mpisim.comm:Communicator.exscan: stale keep entry" in result.stdout


@pytest.mark.parametrize(
    "script", sorted(p.name for p in SCRIPTS.glob("*.py"))
)
def test_every_script_compiles(script):
    source = (SCRIPTS / script).read_text()
    compile(source, script, "exec")
