"""The retired collective serving skeleton and its rank-0 router, kept as the
identity oracle of the one pipelined loop (``DistributedStoreServer._serve``).

``range_query_batch`` and ``join`` used to run route → ``scatter`` →
local_query → ``gather`` → assemble with the communicator's collectives, one
synchronised step per batch, and rank 0 routed every batch: per window it
pruned the shard list by extent (``shards_for``) and sent each rank only the
entries that met one of its shards, 48 bytes per range entry.  This module is
that loop and that router over the live server's own shard-serving loop
(``_serve_shards``), local-query phase and merge (``_assemble``), so a
comparison with it checks the transport and the routing: tagged
point-to-point messages carrying the whole batch, each rank picking its own
queries, must answer exactly what the routed collectives answered.

Every rank calls these (collective); rank 0 supplies the input and gets the
answer, the other ranks pass ``None`` and get ``None``.
"""

from contextlib import ExitStack

from repro.geometry import Envelope
from repro.store import shard_assignment
from repro.store.sharded import SizedList, body_nbytes

#: wire bytes of a routed range entry: its batch position, its query id and
#: the window (four doubles)
WINDOW_ENTRY_BYTES = 8 + 8 + 32


def shards_for(manifest, window):
    """Shard-level pruning: the shards whose non-empty data extent meets
    *window* (none for an empty window)."""
    if window.is_empty:
        return []
    return [s for s in manifest.shards if not s.extent.is_empty and s.extent.intersects(window)]


def entry_nbytes(entry):
    """Wire bytes of one entry ``(batch position, query id, window)``: an
    envelope window is a range entry; a geometry window is a join entry,
    whose query id is its position, so it ships the position and the
    probe."""
    return WINDOW_ENTRY_BYTES if isinstance(entry[2], Envelope) else 8 + body_nbytes(entry[2])


def plan(manifest, queries, nranks):
    """Per-rank scatter plan of ``(query id, window)`` *queries*: each
    rank's sized list of the ``(batch position, *query)`` entries whose
    window's envelope meets one of its shards — once per rank, however many
    of its shards it meets."""
    assignment = shard_assignment(manifest.num_shards, nranks)
    out = [[] for _ in range(nranks)]
    for idx, (qid, window) in enumerate(queries):
        entry = (idx, qid, window)
        box = window if isinstance(window, Envelope) else window.envelope
        for rank in sorted({assignment[s.shard_id] for s in shards_for(manifest, box)}):
            out[rank].append(entry)
    return [SizedList(entries, sum(map(entry_nbytes, entries))) for entries in out]


def collective_serve(server, build_plan, serve, assemble):
    """route → scatter → local_query → gather → assemble, charged to the
    server's phases like the live loop."""
    comm = server.comm
    clock = comm.clock
    tracer = server.tracer
    is_root = comm.rank == 0
    t = clock.now
    payload = None
    with ExitStack() as stack:
        if is_root and tracer.enabled:
            tracer.new_trace()
            stack.enter_context(tracer.span("query", phase="serve"))
        if is_root:
            with tracer.span("route"):
                with clock.compute(category="route"):
                    lists = build_plan()
            ctx = tracer.context() if tracer.enabled else None
            payload = [(ctx, entries) for entries in lists]
        t = server._charge_phase("route", t)

        mine_ctx, mine = comm.scatter(payload, root=0)
        server._charge_phase("scatter", t)

        # rank 0's spans already nest under its own query span
        local = server._local_phase(mine, None if is_root else mine_ctx, serve)
        t = clock.now

        gathered = comm.gather(local, root=0)
        result = None
        if is_root:
            with tracer.span("gather"):
                with clock.compute(category="gather"):
                    result = assemble(gathered)
        server._charge_phase("gather", t)
    return result


def range_query_batch(server, queries, partial_ok=False, deadline=None):
    """One batch of ``(query_id, window)`` range queries."""
    return collective_serve(
        server,
        lambda: plan(server.manifest, queries, server.comm.size),
        lambda mine: server._serve_shards(
            mine, partial_ok or deadline is not None, deadline
        ),
        lambda payloads: server._assemble(payloads, partial_ok, deadline),
    )


def join(server, probes):
    """The ``intersects`` join of in-memory *probes* against the shards."""
    return collective_serve(
        server,
        lambda: plan(server.manifest, list(enumerate(probes)), server.comm.size),
        lambda mine: server._serve_shards(mine),
        lambda payloads: [
            (probes[hit.query_id], hit) for hit in server._assemble(payloads, False, None)
        ],
    )
