"""Fixture battery for the static SPMD linter: one known-bad and one
known-good snippet per rule, pinning both the hits and the non-hits.

Every snippet is linted through :func:`repro.analysis.lint_source` with a
path inside ``src/repro/`` so SPMD004's scope applies; the good twins are
the minimal repairs the fix hints describe.
"""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.spmd import RULES, SEVERITIES


def lint(snippet, path="src/repro/fake/module.py"):
    return lint_source(textwrap.dedent(snippet), path)


def rules_of(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------- #
# SPMD001 — divergent collective in a rank-conditional branch
# --------------------------------------------------------------------- #
class TestSPMD001:
    def test_collective_without_sibling_match(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()
                comm.bcast(None, root=0)
            """
        )
        assert rules_of(findings) == ["SPMD001"]
        assert findings[0].line == 4
        assert "barrier" in findings[0].message

    def test_matched_siblings_pass(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    data = comm.bcast(payload, root=0)
                else:
                    data = comm.bcast(None, root=0)
            """
        )
        assert findings == []

    def test_elif_chain_compares_all_branches(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.gather(1, root=0)
                elif comm.rank == 1:
                    comm.gather(2, root=0)
                else:
                    pass
            """
        )
        assert rules_of(findings) == ["SPMD001", "SPMD001"]

    def test_rank_alias_is_tracked(self):
        findings = lint(
            """
            def prog(comm):
                is_root = comm.rank == 0
                if is_root:
                    comm.barrier()
            """
        )
        assert rules_of(findings) == ["SPMD001"]

    def test_uniform_parameter_branch_is_not_rank_conditional(self):
        # branching on a plain argument (same value on every rank) is the
        # bench-harness pattern and must not be flagged
        findings = lint(
            """
            def prog(comm, use_scan):
                if use_scan:
                    comm.scan(1, op)
                else:
                    comm.allreduce(1, op)
            """
        )
        assert findings == []

    def test_bcast_result_is_uniform_not_tainted(self):
        # a value that came out of a bcast is identical on every rank even
        # when the bcast's arguments mention comm.rank (the serve() header)
        findings = lint(
            """
            def prog(comm, batches):
                header = comm.bcast(
                    len(batches) if comm.rank == 0 else None, root=0
                )
                if header is None:
                    raise ValueError("no batches")
                comm.barrier()
            """
        )
        assert findings == []

    def test_non_comm_receiver_is_ignored(self):
        # store.scan() is a datastore method, not Communicator.scan
        findings = lint(
            """
            def prog(comm, store):
                if comm.rank == 0:
                    store.scan()
                    store.gather()
            """
        )
        assert findings == []

    def test_nested_function_is_its_own_scope(self):
        findings = lint(
            """
            def outer(comm):
                if comm.rank == 0:
                    def helper(c):
                        c.comm.barrier()
                    return helper
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# SPMD002 — literal tag mismatches
# --------------------------------------------------------------------- #
class TestSPMD002:
    def test_orphan_send_tag(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.send("x", dest=1, tag=7)
                else:
                    comm.recv(source=0, tag=8)
            """
        )
        assert "SPMD002" in rules_of(findings)
        tags = [f for f in findings if f.rule == "SPMD002"]
        assert len(tags) == 2  # orphan send AND orphan recv

    def test_matching_module_constant_passes(self):
        findings = lint(
            """
            RING_TAG = 71

            def prog(comm):
                comm.send("x", dest=1, tag=RING_TAG)
                return comm.recv(source=0, tag=RING_TAG)
            """
        )
        assert rules_of(findings) == []

    def test_any_tag_receive_matches_everything(self):
        findings = lint(
            """
            from repro.mpisim import ANY_TAG

            def prog(comm):
                comm.send("x", dest=1, tag=99)
                return comm.recv(source=0, tag=ANY_TAG)
            """
        )
        assert rules_of(findings) == []

    def test_default_tags_match(self):
        # send defaults to tag=0, recv defaults to ANY_TAG
        findings = lint(
            """
            def prog(comm):
                comm.send("x", dest=1)
                return comm.recv(source=0)
            """
        )
        assert rules_of(findings) == []

    def test_dynamic_tags_disable_orphan_detection(self):
        # computed tags (the frontend's _plan_tag pattern) can't be matched
        # statically, so literal receives must not be reported as orphans
        findings = lint(
            """
            def prog(comm, b):
                comm.send("x", dest=1, tag=base + b)
                return comm.recv(source=0, tag=17)
            """
        )
        assert rules_of(findings) == []

    def test_sendrecv_tags_participate(self):
        findings = lint(
            """
            def prog(comm, peer):
                return comm.sendrecv("x", dest=peer, sendtag=3, source=peer, recvtag=4)
            """
        )
        assert len([f for f in findings if f.rule == "SPMD002"]) == 2

    def test_positional_tags(self):
        findings = lint(
            """
            def prog(comm):
                comm.send("x", 1, 5)
                return comm.recv(0, 5)
            """
        )
        assert rules_of(findings) == []


# --------------------------------------------------------------------- #
# SPMD003 — root disagreement across sibling branches
# --------------------------------------------------------------------- #
class TestSPMD003:
    def test_different_literal_roots(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.bcast(data, root=0)
                else:
                    comm.bcast(None, root=1)
            """
        )
        assert "SPMD003" in rules_of(findings)
        f = next(f for f in findings if f.rule == "SPMD003")
        assert "root=1" in f.message and "root=0" in f.message

    def test_same_root_passes(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.scatter(payload, root=0)
                else:
                    comm.scatter(None, root=0)
            """
        )
        assert findings == []

    def test_module_constant_roots_resolve(self):
        findings = lint(
            """
            ROOT = 0

            def prog(comm):
                if comm.rank == ROOT:
                    comm.gather(x, root=ROOT)
                else:
                    comm.gather(x, root=1)
            """
        )
        assert "SPMD003" in rules_of(findings)

    def test_variable_roots_are_not_compared(self):
        findings = lint(
            """
            def prog(comm, root):
                if comm.rank == root:
                    comm.bcast(data, root=root)
                else:
                    comm.bcast(None, root=root)
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# SPMD004 — wall-clock leaks into the virtual-clock codebase
# --------------------------------------------------------------------- #
class TestSPMD004:
    def test_time_time_in_src_repro(self):
        findings = lint(
            """
            import time

            def measure():
                return time.time()
            """
        )
        assert rules_of(findings) == ["SPMD004"]
        assert findings[0].severity == "warning"

    def test_time_sleep_and_from_import(self):
        findings = lint(
            """
            from time import sleep

            def wait():
                sleep(1)
            """
        )
        assert rules_of(findings) == ["SPMD004"]

    def test_datetime_now(self):
        findings = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert rules_of(findings) == ["SPMD004"]

    def test_thread_time_is_allowed(self):
        # the VirtualClock's calibrated seam — CPU effort, not wall time
        findings = lint(
            """
            import time

            def effort():
                return time.thread_time()
            """
        )
        assert findings == []

    def test_out_of_scope_paths_are_exempt(self):
        source = """
        import time

        def measure():
            return time.time()
        """
        assert lint(source, path="benchmarks/test_x.py") == []
        assert lint(source, path="src/repro/bench/harness.py") == []
        assert lint(source, path="src/repro/mpisim/clock.py") == []


# --------------------------------------------------------------------- #
# SPMD005 — rank-dependent early exit before a collective
# --------------------------------------------------------------------- #
class TestSPMD005:
    def test_raise_before_collective(self):
        findings = lint(
            """
            def prog(comm, data):
                if comm.rank == 0 and data is None:
                    raise ValueError("root got nothing")
                comm.bcast(data, root=0)
            """
        )
        assert rules_of(findings) == ["SPMD005"]

    def test_return_between_collectives(self):
        findings = lint(
            """
            def prog(comm):
                comm.barrier()
                if comm.rank == 0:
                    return None
                comm.barrier()
            """
        )
        assert rules_of(findings) == ["SPMD005"]

    def test_exit_after_last_collective_is_fine(self):
        findings = lint(
            """
            def prog(comm):
                values = comm.allgather(comm.rank)
                if comm.rank == 0:
                    return values
                return None
            """
        )
        assert findings == []

    def test_uniform_exit_is_fine(self):
        findings = lint(
            """
            def prog(comm, data):
                if data is None:
                    raise ValueError("everyone sees this")
                comm.bcast(data, root=0)
            """
        )
        assert findings == []

    def test_exit_inside_try_in_rank_branch(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    try:
                        raise ValueError("boom")
                    finally:
                        pass
                comm.barrier()
            """
        )
        assert rules_of(findings) == ["SPMD005"]


# --------------------------------------------------------------------- #
# cross-cutting
# --------------------------------------------------------------------- #
class TestInfrastructure:
    def test_rule_catalog_is_complete(self):
        assert set(RULES) == {f"SPMD00{i}" for i in range(1, 6)}
        assert set(SEVERITIES) == set(RULES)

    def test_findings_carry_location_and_hint(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        (finding,) = findings
        assert finding.path == "src/repro/fake/module.py"
        assert finding.context == "prog"
        assert finding.hint
        assert "src/repro/fake/module.py:4" in finding.render()

    def test_suppression_silences_and_scopes(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[SPMD001] intentional demo
                if comm.rank == 1:
                    comm.barrier()
            """
        )
        assert [f.line for f in findings] == [6]

    def test_standalone_suppression_covers_next_line(self):
        findings = lint(
            """
            def prog(comm):
                if comm.rank == 0:
                    # spmd: ignore[*] demo
                    comm.barrier()
            """
        )
        assert findings == []

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint("def broken(:\n")
