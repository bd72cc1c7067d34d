"""Point-to-point communication and runtime tests for the simulated MPI."""

import pytest

from repro import mpisim
from repro.mpisim import ANY_SOURCE, ANY_TAG, MPIAbortError, MPIError, Status


class TestRuntime:
    def test_single_rank(self):
        res = mpisim.run_spmd(lambda comm: comm.rank, 1)
        assert res.values == [0]

    def test_rank_and_size(self):
        def prog(comm):
            return (comm.rank, comm.size, comm.Get_rank(), comm.Get_size())

        res = mpisim.run_spmd(prog, 5)
        assert res.values == [(r, 5, r, 5) for r in range(5)]

    def test_extra_args_passed(self):
        def prog(comm, a, b=0):
            return a + b + comm.rank

        res = mpisim.run_spmd(prog, 3, 10, b=5)
        assert res.values == [15, 16, 17]

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            mpisim.run_spmd(lambda comm: None, 0)

    def test_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                # spmd: ignore[SPMD005] deliberate divergence: this test IS the abort machinery
                raise ValueError("boom")
            # other ranks block so the abort machinery has to wake them
            comm.barrier()

        with pytest.raises(ValueError, match="boom"):
            mpisim.run_spmd(prog, 4)

    def test_exception_while_peer_waits_on_recv(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("rank0 died")
            comm.recv(source=0)

        with pytest.raises(RuntimeError, match="rank0 died"):
            mpisim.run_spmd(prog, 2)

    def test_shared_state_visible(self):
        def prog(comm):
            return comm.world.shared["value"] + comm.rank

        res = mpisim.run_spmd(prog, 2, shared={"value": 100})
        assert res.values == [100, 101]

    def test_clock_results_exposed(self):
        def prog(comm):
            comm.clock.advance(1.5, category="io")
            comm.barrier()

        res = mpisim.run_spmd(prog, 3)
        assert res.max_time >= 1.5
        assert res.max_category("io") == pytest.approx(1.5)
        assert "io" in res.breakdown()


class TestPointToPoint:
    def test_send_recv_pair(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == {"a": 7, "b": 3.14}

    def test_ring_exchange(self):
        """The even/odd send-recv ring of Algorithm 1."""

        def prog(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1 + comm.size) % comm.size
            payload = f"fragment-from-{comm.rank}"
            if comm.rank % 2 == 0:
                comm.send(payload, dest)
                got = comm.recv(source=src)
            else:
                got = comm.recv(source=src)
                comm.send(payload, dest)
            return got

        res = mpisim.run_spmd(prog, 6)
        for rank, got in enumerate(res.values):
            assert got == f"fragment-from-{(rank - 1) % 6}"

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("tag5", dest=1, tag=5)
                comm.send("tag9", dest=1, tag=9)
                return None
            first = comm.recv(source=0, tag=9)
            second = comm.recv(source=0, tag=5)
            return (first, second)

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == ("tag9", "tag5")

    def test_any_source_any_tag(self):
        def prog(comm):
            if comm.rank == 0:
                received = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(comm.size - 1)]
                return sorted(received)
            comm.send(comm.rank, dest=0, tag=comm.rank)
            return None

        res = mpisim.run_spmd(prog, 5)
        assert res.values[0] == [1, 2, 3, 4]

    def test_status_and_get_count(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"x" * 1234, dest=1, tag=3)
                return None
            status = Status()
            data = comm.recv(source=0, tag=3, status=status)
            return (len(data), status.Get_source(), status.Get_tag(), status.Get_count())

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == (1234, 0, 3, 1234)

    def test_get_count_with_datatype(self):
        from repro.mpisim import MPI_DOUBLE

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"\x00" * 80, dest=1)
                return None
            status = Status()
            comm.recv(source=0, status=status)
            return status.Get_count(MPI_DOUBLE)

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == 10

    def test_probe(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"payload-bytes", dest=1, tag=7)
                return None
            status = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            nbytes = status.nbytes
            data = comm.recv(source=status.source, tag=status.tag)
            return (nbytes, data)

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == (13, b"payload-bytes")

    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=1)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=1)
            assert not req.completed
            return req.wait()

        res = mpisim.run_spmd(prog, 2)
        assert res.values[1] == [1, 2, 3]

    def test_sendrecv(self):
        def prog(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1 + comm.size) % comm.size
            return comm.sendrecv(comm.rank, dest=dest, source=src)

        res = mpisim.run_spmd(prog, 4)
        assert res.values == [3, 0, 1, 2]

    def test_invalid_destination(self):
        def prog(comm):
            comm.send(1, dest=99)

        with pytest.raises(MPIError):
            mpisim.run_spmd(prog, 2)

    def test_send_advances_clock(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"x" * 10_000_000, dest=1)
                return comm.clock.now
            comm.recv(source=0)
            return comm.clock.now

        res = mpisim.run_spmd(prog, 2)
        sender_t, recv_t = res.values
        assert sender_t > 0
        # the receiver sees the arrival time, which includes the transfer
        assert recv_t > sender_t

    @pytest.mark.parametrize(
        "call",
        [
            lambda comm: comm.recv(source=7),
            lambda comm: comm.probe(source=7),
            lambda comm: comm.irecv(source=7),
        ],
        ids=["recv", "probe", "irecv"],
    )
    def test_invalid_source(self, call):
        # a source outside the communicator can never send, so the call
        # fails at once instead of waiting for the deadlock timeout
        with pytest.raises(MPIError, match="invalid source rank 7"):
            mpisim.run_spmd(call, 2, timeout=3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda comm: comm.recv(source=-3),
            lambda comm: comm.probe(source=-3),
            lambda comm: comm.irecv(source=-3),
        ],
        ids=["recv", "probe", "irecv"],
    )
    def test_negative_source_other_than_any_source(self, call):
        with pytest.raises(MPIError, match="invalid source rank -3"):
            mpisim.run_spmd(call, 2, timeout=3)

    def test_source_is_checked_against_the_derived_communicator(self):
        def prog(comm):
            sub = comm.split(comm.rank)  # one rank per sub-communicator
            with pytest.raises(MPIError, match="invalid source rank 1"):
                sub.recv(source=1)  # a world rank, but not a rank of sub
            return sub.size

        assert mpisim.run_spmd(prog, 2, timeout=10).values == [1, 1]


class TestCommunicatorIsolation:
    """A message is only received on the communicator it was sent on."""

    def test_split_does_not_read_the_parents_mail(self):
        def prog(comm):
            sub = comm.split(0, key=-comm.rank)  # world rank 1 is sub rank 0
            if comm.rank == 0:
                comm.send("parent", dest=1, tag=5)
                return None
            comm.probe(source=0, tag=5)  # the parent's message is queued first
            sub.send("own", dest=0, tag=5)
            return sub.recv(source=0, tag=5), comm.recv(source=0, tag=5)

        res = mpisim.run_spmd(prog, 2, timeout=10)
        assert res.values[1] == ("own", "parent")

    def test_dup_and_parent_traffic_stay_apart(self):
        def prog(comm):
            d = comm.dup()
            if comm.rank == 0:
                comm.send("parent", dest=1)
                d.send("dup", dest=1)
                return None
            return d.recv(source=0), comm.recv(source=0)

        res = mpisim.run_spmd(prog, 2, timeout=10)
        assert res.values[1] == ("dup", "parent")

    def test_wildcards_stay_on_their_communicator(self):
        def prog(comm):
            d = comm.dup()
            if comm.rank == 0:
                comm.send("parent", dest=1, tag=3)
                d.send("dup", dest=1, tag=4)
                return None
            return (
                d.recv(source=ANY_SOURCE, tag=ANY_TAG),
                comm.recv(source=ANY_SOURCE, tag=ANY_TAG),
            )

        res = mpisim.run_spmd(prog, 2, timeout=10)
        assert res.values[1] == ("dup", "parent")

    def test_probe_reports_its_own_communicators_message(self):
        def prog(comm):
            d = comm.dup()
            if comm.rank == 0:
                comm.send(b"p" * 10, dest=1, tag=2)
                d.send(b"d" * 20, dest=1, tag=2)
                return None
            status = d.probe(source=0, tag=2)
            return status.nbytes, d.recv(source=0, tag=2), comm.recv(source=0, tag=2)

        res = mpisim.run_spmd(prog, 2, timeout=10)
        assert res.values[1] == (20, b"d" * 20, b"p" * 10)

    def test_irecv_matches_on_its_communicator(self):
        def prog(comm):
            d = comm.dup()
            if comm.rank == 0:
                comm.send("parent", dest=1)
                d.send("dup", dest=1)
                return None
            req = d.irecv(source=0)
            return req.wait(), comm.recv(source=0)

        res = mpisim.run_spmd(prog, 2, timeout=10)
        assert res.values[1] == ("dup", "parent")
