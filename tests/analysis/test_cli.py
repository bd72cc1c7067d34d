"""Inline suppressions and the ``spmd_lint`` CLI gate: a finding has a
reasoned ``#`` comment or the run fails."""

import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.suppress import parse_suppressions, suppressed_rules

BAD = textwrap.dedent(
    """
    def prog(comm):
        if comm.rank == 0:
            comm.barrier()
    """
)

GOOD = textwrap.dedent(
    """
    def prog(comm):
        comm.barrier()
    """
)


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_parse_rules_and_reason(self):
        (sup,) = parse_suppressions(
            "x = 1  # spmd: ignore[SPMD001, spmd003] matched in caller\n"
        )
        assert sup.rules == {"SPMD001", "SPMD003"}
        assert sup.reason == "matched in caller"
        assert not sup.standalone

    def test_standalone_covers_next_line(self):
        source = "# spmd: ignore[*] demo\ncomm.barrier()\n"
        (sup,) = parse_suppressions(source)
        assert sup.standalone
        covered = suppressed_rules([sup])
        assert covered[1] == {"*"} and covered[2] == {"*"}

    def test_trailing_covers_only_its_line(self):
        source = "comm.barrier()  # spmd: ignore[SPMD001] demo\n"
        covered = suppressed_rules(parse_suppressions(source))
        assert set(covered) == {1}

    def test_a_reasonless_suppression_covers_nothing(self):
        (sup,) = parse_suppressions("comm.barrier()  # spmd: ignore[SPMD001]\n")
        assert sup.reason == ""
        assert suppressed_rules([sup]) == {}

    def test_a_string_literal_is_not_a_suppression(self):
        source = 'msg = "# spmd: ignore[*] not a comment"\n'
        assert parse_suppressions(source) == []

    def test_a_docstring_is_not_a_suppression(self):
        source = '"""\n# spmd: ignore[SPMD001] inside a docstring\n"""\n'
        assert parse_suppressions(source) == []


# --------------------------------------------------------------------- #
# the CLI gate
# --------------------------------------------------------------------- #
@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A fake repo tree with one bad and one good module, cwd pinned."""
    pkg = tmp_path / "src" / "repro" / "fake"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD)
    (pkg / "good.py").write_text(GOOD)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def test_findings_fail(self, tree, capsys):
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "SPMD001" in out and "bad.py:4" in out

    def test_a_clean_tree_passes(self, tree):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(GOOD)
        assert main(["src"]) == 0

    def test_a_clean_tree_reports_zero_findings(self, tree, capsys):
        assert main(["src/repro/fake/good.py"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err

    def test_single_file_argument(self, tree):
        assert main(["src/repro/fake/good.py"]) == 0
        assert main(["src/repro/fake/bad.py"]) == 1

    def test_a_reasonless_suppression_does_not_silence(self, tree, capsys):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(BAD.replace(
            "comm.barrier()", "comm.barrier()  # spmd: ignore[SPMD001]"
        ))
        assert main(["src"]) == 1
        assert "SPMD001" in capsys.readouterr().out

    def test_a_string_literal_does_not_silence(self, tree, capsys):
        # the suppression text inside a string on the flagged line is data,
        # not a comment: the divergent barrier still fails the gate
        target = tree / "src" / "repro" / "fake" / "bad.py"
        target.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            '        comm.barrier(); msg = "# spmd: ignore[*] not a comment"\n'
        )
        assert main(["src"]) == 1
        assert "bad.py:3" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["no_such_dir", "src/repro/fake/nope.py"])
    def test_a_path_that_does_not_exist_is_a_usage_error(self, tree, capsys, path):
        with pytest.raises(SystemExit) as exit_:
            main(["src", path])
        assert exit_.value.code == 2
        assert path in capsys.readouterr().err

    def test_a_non_python_file_is_a_usage_error(self, tree, capsys):
        (tree / "notes.txt").write_text("comm.barrier()\n")
        with pytest.raises(SystemExit) as exit_:
            main(["notes.txt"])
        assert exit_.value.code == 2
        assert "notes.txt" in capsys.readouterr().err

    def test_a_reasoned_suppression_silences(self, tree):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(BAD.replace(
            "comm.barrier()", "comm.barrier()  # spmd: ignore[SPMD001] demo"
        ))
        assert main(["src"]) == 0

    def test_a_standalone_suppression_silences_the_next_line(self, tree):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(BAD.replace(
            "        comm.barrier()",
            "        # spmd: ignore[SPMD001] demo\n        comm.barrier()",
        ))
        assert main(["src"]) == 0

    def test_a_wildcard_suppression_silences(self, tree):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(BAD.replace(
            "comm.barrier()", "comm.barrier()  # spmd: ignore[*] demo"
        ))
        assert main(["src"]) == 0

    def test_a_suppression_of_another_rule_does_not_silence(self, tree, capsys):
        (tree / "src" / "repro" / "fake" / "bad.py").write_text(BAD.replace(
            "comm.barrier()", "comm.barrier()  # spmd: ignore[SPMD003] demo"
        ))
        assert main(["src"]) == 1
        assert "SPMD001" in capsys.readouterr().out
