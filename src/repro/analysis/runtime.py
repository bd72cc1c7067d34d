"""Dynamic lockstep verification — the runtime half of :mod:`repro.analysis`.

The static linter (:mod:`repro.analysis.spmd`) only sees lexical structure;
a collective reached through a helper function, a data-dependent branch, or
a miscounted loop iteration is invisible to it.  The lockstep verifier
covers that remainder at run time: with the check armed, every collective
on a :class:`~repro.mpisim.comm.Communicator` piggybacks an
``(op, callsite, seq, root)`` record on the rendezvous it already performs,
and any disagreement across ranks raises
:class:`~repro.mpisim.errors.CollectiveMismatchError` *immediately*, naming
the divergent ranks and both callsites — instead of the virtual-clock
deadlock timeout ("all live ranks blocked in communication") the same bug
produces unarmed, minutes later and with no pointer to the divergence.

:func:`collective_check` is the one switch: it arms every communicator
constructed inside its block (``tests/store/conftest.py`` arms the
1/2/4-rank equality batteries this way, the CI smoke wraps its armed
serving runs in it)::

    with collective_check():
        result = mpisim.run_spmd(prog, nprocs=4)
"""

from __future__ import annotations

from ..mpisim.comm import collective_check
from ..mpisim.errors import CollectiveMismatchError

__all__ = ["CollectiveMismatchError", "collective_check"]
