"""The retired collective serving skeleton, kept as the identity oracle of the
one pipelined loop (``DistributedStoreServer._serve``).

``range_query_batch`` and ``join`` used to run route → ``scatter`` →
local_query → ``gather`` → assemble with the communicator's collectives, one
synchronised step per batch.  This module is that loop over the live
server's own pieces — its plan (``_plan`` / ``_plan_windows``), its
shard-serving loop (``_serve_shards``), its local-query phase and its merge
(``_assemble``) — so the only thing a comparison with it checks is the
transport: tagged point-to-point messages with a routing window must answer
exactly what the collectives answered.

Every rank calls these (collective); rank 0 supplies the input and gets the
answer, the other ranks pass ``None`` and get ``None``.
"""

from contextlib import ExitStack

from repro.geometry import predicates


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
                    plan = build_plan()
            ctx = tracer.context() if tracer.enabled else None
            payload = [(ctx, entries) for entries in plan]
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


def range_query_batch(server, queries, exact=True, partial_ok=False, deadline=None):
    """One batch of ``(query_id, window)`` range queries."""
    qids = []

    def build_plan():
        qids.extend(qid for qid, _ in queries)
        return server._plan_windows(queries)

    return collective_serve(
        server,
        build_plan,
        lambda mine: server._serve_shards(
            mine, exact, partial_ok or deadline is not None, deadline
        ),
        lambda payloads: server._assemble(payloads, qids, partial_ok, deadline),
    )


def join(server, probes):
    """The ``intersects`` join of in-memory *probes* against the shards."""

    def refine(probe, hits):
        return [h for h in hits if predicates.intersects(probe, h.geometry)]

    return collective_serve(
        server,
        lambda: server._plan([(p, p.envelope) for p in probes]),
        lambda mine: server._serve_shards(mine, exact=False, action="join", refine=refine),
        lambda payloads: [
            (probes[hit.query_id], hit)
            for hit in server._assemble(payloads, range(len(probes)), False, None)
        ],
    )
