"""Property: both network engines expose the *same* choice tree.

The indexed network and the reference network are two implementations
of one semantics; the explorer relies on them presenting identical
delivery menus (ready messages in ascending send order, λ last) at
every choice point.  If that holds, whole explorations are
bit-identical: same run count, same states, same decision vectors,
same violations with the same choice traces.  Hypothesis drives random
small configurations — target, depth, seed, optional crash — through
full exhaustion on both engines and compares everything, down to the
dedup key of every visited state and the messages each engine reports
as in flight (:meth:`in_flight`) at the end of a controlled run.
"""

from hypothesis import given, settings, strategies as st

from repro.explore import ENGINES, ExploreCase, explore_case, run_controlled

TARGETS = ("paxos", "ct", "qc", "nbac", "register", "hastycommit")


@st.composite
def cases(draw):
    target = draw(st.sampled_from(TARGETS))
    depth = draw(st.integers(min_value=3, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=1))
    crashes = ()
    if draw(st.booleans()):
        pid = draw(st.integers(min_value=0, max_value=1))
        time = draw(st.integers(min_value=1, max_value=depth))
        crashes = ((pid, time),)
    return ExploreCase(
        target=target, n=2, depth=depth, seed=seed, crashes=crashes
    )


@settings(max_examples=12, deadline=None)
@given(case=cases())
def test_exploration_identical_on_both_engines(case):
    indexed_log, reference_log = [], []
    indexed = explore_case(case, engine="indexed", digest_log=indexed_log)
    reference = explore_case(
        case, engine="reference", digest_log=reference_log
    )
    assert indexed_log == reference_log
    assert indexed.stats() == reference.stats()
    assert indexed.decision_vectors == reference.decision_vectors
    assert [
        (v.choices, v.violated, v.decisions) for v in indexed.violations
    ] == [
        (v.choices, v.violated, v.decisions) for v in reference.violations
    ]
    # Buffer contents through the public accessor: same messages on
    # both engines (each engine keeps its own internal order).
    systems = [run_controlled(case, engine=e)[0] for e in ENGINES]
    for dest in range(case.n):
        flights = [_in_flight(system.network, dest) for system in systems]
        assert flights[0] == flights[1]
        assert len(flights[0]) == systems[0].network.pending_count(dest)


def _in_flight(network, dest):
    return sorted(
        (m.msg_id, m.sender, m.dest, m.component, repr(m.payload))
        for m in network.in_flight(dest)
    )

