"""Regressions for the dynamic lockstep verifier.

The headline property (the ISSUE's acceptance criterion): a deliberately
rank-divergent collective program under ``enable_collective_check()`` fails
*immediately* with a ``CollectiveMismatchError`` naming the mismatched
callsites — at 2 and 4 ranks — where the unarmed run sits in the mixed
rendezvous until the mpisim deadlock timeout kills it.
"""

import pytest

import repro.mpisim as mpisim
from repro.analysis import (
    CollectiveMismatchError,
    collective_check,
    collective_check_default,
    set_collective_check_default,
)
from repro.mpisim import ops


def divergent_ops(comm):
    """Rank 0 slips an extra barrier in before everyone's bcast."""
    if comm.rank == 0:
        comm.barrier()  # spmd: ignore[SPMD001] deliberate divergence under test
    return comm.bcast("payload" if comm.rank == 0 else None, root=0)


def divergent_root(comm):
    half = 0 if comm.rank < comm.size // 2 else 1
    return comm.bcast("payload", root=half)  # spmd: ignore[SPMD003] deliberate


def lockstep(comm):
    comm.barrier()
    total = comm.allreduce(comm.rank, ops.SUM)
    return comm.allgather(total)


@pytest.mark.parametrize("nprocs", [2, 4])
class TestDivergenceDetection:
    def test_armed_raises_naming_both_callsites(self, nprocs):
        with collective_check():
            with pytest.raises(CollectiveMismatchError) as excinfo:
                mpisim.run_spmd(divergent_ops, nprocs)
        message = str(excinfo.value)
        # both divergent ops and their callsites are named, per rank
        assert "barrier()" in message and "bcast()" in message
        assert message.count("test_runtime_check.py") >= 2
        assert "rank 0" in message and "rank 1" in message

    def test_unarmed_hits_the_deadlock_timeout(self, nprocs):
        assert not collective_check_default()
        with pytest.raises(mpisim.MPIError, match="deadlock"):
            # rank 0's lone barrier rendezvouses with the others' bcast
            # (the engine can't tell ops apart), then its own bcast waits
            # for peers that already returned — the classic hang, cut
            # short by a tiny timeout instead of the default 300s
            mpisim.run_spmd(divergent_ops, nprocs, timeout=2)

    def test_root_disagreement_is_reported(self, nprocs):
        with collective_check():
            with pytest.raises(CollectiveMismatchError) as excinfo:
                mpisim.run_spmd(divergent_root, nprocs)
        message = str(excinfo.value)
        assert "root=0" in message and "root=1" in message

    def test_lockstep_program_is_untouched(self, nprocs):
        with collective_check():
            armed = mpisim.run_spmd(lockstep, nprocs)
        unarmed = mpisim.run_spmd(lockstep, nprocs)
        assert armed.values == unarmed.values


class TestArming:
    def test_default_is_off(self):
        assert not collective_check_default()

        def prog(comm):
            return comm._check_enabled

        assert mpisim.run_spmd(prog, 2).values == [False, False]

    def test_context_manager_arms_and_restores(self):
        def prog(comm):
            return comm._check_enabled

        with collective_check():
            assert collective_check_default()
            assert mpisim.run_spmd(prog, 2).values == [True, True]
        assert not collective_check_default()

    def test_set_default_returns_previous(self):
        previous = set_collective_check_default(True)
        try:
            assert previous is False
            assert set_collective_check_default(True) is True
        finally:
            set_collective_check_default(previous)

    def test_per_communicator_arming(self):
        def prog(comm):
            comm.enable_collective_check()
            if comm.rank == 0:
                comm.barrier()  # spmd: ignore[SPMD001] deliberate divergence
            comm.bcast(None, root=0)

        with pytest.raises(CollectiveMismatchError):
            mpisim.run_spmd(prog, 2)

    def test_partial_arming_is_itself_a_mismatch(self):
        def prog(comm):
            if comm.rank == 0:
                comm.enable_collective_check()
            comm.barrier()

        with pytest.raises(CollectiveMismatchError, match="not armed"):
            mpisim.run_spmd(prog, 2)

    def test_split_and_dup_inherit_arming(self):
        def prog(comm):
            comm.enable_collective_check()
            sub = comm.split(comm.rank % 2)
            dup = comm.dup()
            return sub._check_enabled, dup._check_enabled

        assert mpisim.run_spmd(prog, 4).values == [(True, True)] * 4

    def test_extra_collective_is_an_exit_imbalance(self):
        # an extra collective of the SAME op is invisible to the piggyback
        # compare (rank 0's g-th call always meets rank 1's g-th call), but
        # it leaves rank 0 waiting in a final rendezvous after rank 1 has
        # returned — the armed check turns that tail-end deadlock into an
        # immediate mismatch error naming the stuck callsite
        def prog(comm):
            if comm.rank == 0:
                comm.allgather(0)  # spmd: ignore[SPMD001] deliberate divergence
            comm.allgather(1)
            comm.allgather(2)

        with collective_check():
            with pytest.raises(
                CollectiveMismatchError, match="already returned"
            ) as excinfo:
                mpisim.run_spmd(prog, 2)
        assert "allgather()" in str(excinfo.value)

    def test_unarmed_extra_collective_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                comm.allgather(0)  # spmd: ignore[SPMD001] deliberate divergence
            comm.allgather(1)

        with pytest.raises(mpisim.MPIError, match="deadlock"):
            mpisim.run_spmd(prog, 2, timeout=2)


class TestStrictMode:
    def test_branch_sited_collectives_pass_non_strict(self):
        # the sharded-server pattern: the *same* scatter issued from the
        # root branch and the worker branch of a rank-conditional — a
        # legitimate matched pair that non-strict mode must accept
        def prog(comm):
            comm.enable_collective_check()
            if comm.rank == 0:
                value = comm.scatter(list(range(comm.size)), root=0)
            else:
                value = comm.scatter(None, root=0)
            return value

        assert mpisim.run_spmd(prog, 4).values == [0, 1, 2, 3]

    def test_strict_mode_flags_callsite_divergence(self):
        def prog(comm):
            comm.enable_collective_check(strict=True)
            if comm.rank == 0:
                value = comm.scatter(list(range(comm.size)), root=0)
            else:
                value = comm.scatter(None, root=0)
            return value

        with pytest.raises(CollectiveMismatchError):
            mpisim.run_spmd(prog, 4)

    def test_strict_mode_accepts_single_sited_collectives(self):
        def prog(comm):
            comm.enable_collective_check(strict=True)
            return comm.allreduce(comm.rank, ops.SUM)

        assert mpisim.run_spmd(prog, 4).values == [6, 6, 6, 6]


class TestErrorShape:
    def test_error_is_an_mpi_error(self):
        assert issubclass(CollectiveMismatchError, mpisim.MPIError)

    def test_importable_from_both_homes(self):
        from repro.analysis.runtime import (
            CollectiveMismatchError as from_analysis,
        )
        from repro.mpisim.errors import (
            CollectiveMismatchError as from_mpisim,
        )

        assert from_analysis is from_mpisim
