"""The ``decode`` span's account, recounted a slot at a time by the live
refine rules — what ``RefineExecutor.refine`` must report and decode for a
plan entry, with no sets and no columns.  Shared by
``tests/store/test_refine_hot_path.py`` and ``benchmarks/test_hot_path.py``.
"""

from repro.geometry import Envelope


def side_proved(window, env):
    """The refine loop's side proof, a side at a time: one whole side of the
    slot MBR, as a degenerate envelope, inside the closed window.  An empty,
    inverted or NaN MBR has no sides."""
    x0, y0, x1, y1 = env.as_tuple()
    if not (x0 <= x1 and y0 <= y1):
        return False
    sides = (Envelope(x0, y0, x0, y1), Envelope(x1, y0, x1, y1),
             Envelope(x0, y0, x1, y0), Envelope(x0, y1, x1, y1))
    return any(window.contains(side) for side in sides)


def reference_accounting(executor, entry, pages, exact):
    """What the ``decode`` span must report, by the scalar loop's rules — a
    slot at a time, no sets, no columns.  A rectangular window proves a slot
    by containment (``rect_shortcuts``) or else by one whole MBR side
    (``side_proofs``); an exact query decodes only the slots neither proof
    settles, an MBR-only query every survivor.  Peeks at the decode memo,
    so it has to run *before* the refine it predicts."""
    rect = entry.env if exact and entry.geom is None and not entry.env.is_empty else None
    counts = dict.fromkeys(
        ("superseded", "tombstone_drops", "records_decoded", "rect_shortcuts",
         "side_proofs", "slots_scanned", "bulk_filter_batches"), 0,
    )
    seen = set()
    for key in sorted(entry.by_page, key=lambda k: (-k[0], k[1])):
        page = pages[key]
        counts["bulk_filter_batches"] += 1
        for slot in entry.by_page[key]:
            counts["slots_scanned"] += 1
            rid = page.record_ids[slot]
            if rid in seen:
                counts["superseded"] += 1
                continue
            if executor._tombstone_gen.get(rid, -1) > key.generation:
                counts["tombstone_drops"] += 1
                continue
            seen.add(rid)
            if rect is not None and rect.contains(page.envelope(slot)):
                counts["rect_shortcuts"] += 1
            elif rect is not None and side_proved(rect, page.envelope(slot)):
                counts["side_proofs"] += 1
            elif page.memo[slot] is None:
                counts["records_decoded"] += 1
    return counts
