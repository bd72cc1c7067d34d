"""Store-suite fixtures: every test here runs with the lockstep collective
check armed (the dynamic half of ``repro.analysis``).

The 1/2/4-rank equality batteries in this directory are exactly the
programs the verifier is meant to guard — rank-conditional serving logic
around collectives — so arming them by default means any divergence a
future change introduces fails immediately with a
``CollectiveMismatchError`` naming both callsites, instead of hanging the
suite until the mpisim deadlock timeout fires.
"""

import pytest

from repro.analysis import collective_check


@pytest.fixture(autouse=True)
def armed_collective_check():
    """Arm the lockstep verifier for every communicator these tests build."""
    with collective_check():
        yield
