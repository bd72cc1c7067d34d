"""The retired post-filter join, kept as the differential oracle of the one
join refine (``RefineExecutor.refine``'s geometry-window path).

``SpatialDataStore.join`` used to serve its probes as an MBR-only range
batch — each probe's envelope the window, every candidate decoded through
its page's memo — and then keep the hits whose geometry ``intersects`` the
probe; ``DistributedStoreServer.join`` ran the same MBR-only pass on every
shard and filtered each entry's hits by its probe the same way.  This is
that join over a live store's batch entry point.
"""

from repro.geometry import predicates


def post_filter_join(store, probes):
    """``(probe, hit)`` pairs of *probes* against *store*, in probe order."""
    probes = list(probes)
    per_probe = store.range_query_batch(
        [(i, probe.envelope) for i, probe in enumerate(probes)], exact=False
    )
    pairs = []
    for probe, hits in zip(probes, per_probe):
        for hit in hits:
            if predicates.intersects(probe, hit.geometry):
                pairs.append((probe, hit))
    return pairs
