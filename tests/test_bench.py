import tracemalloc
from functools import reduce
from itertools import combinations
from operator import add

from hypothesis import given
from hypothesis import strategies as st

from pcf_engine import bench, corpus, engine


def reference_sweep(state, epsilons):
    """The sweep as a list of every same-object pair, folded once per epsilon."""
    ix = engine.build_index(state)
    pairs = [
        (ix.facts[low].pcf, ix.facts[high].pcf)
        for group in ix.groups
        for low, high in combinations(group, 2)
    ]
    rows = []
    for eps in epsilons:
        factors = (engine.implication_factor(p1, p2, eps) for p1, p2 in pairs)
        rows.append((eps, reduce(add, factors, 0.0) / len(pairs) if pairs else 0.0))
    return rows


def facts_state(objects_and_pcf):
    """A state of facts only, fact ids ascending in the order given."""
    facts = {
        fid: corpus.FactRecord(fid, obj, (f"name {fid}",), pcf=pcf)
        for fid, (obj, pcf) in enumerate(objects_and_pcf, start=1)
    }
    return corpus.TrustState(facts=facts)


# Includes the pairs 0.9/0.5 and 0.6/0.2, exactly 0.4 apart, and 0.0 beside -0.0.
pcf_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.2, 0.5, 0.6, 0.9, 1.0, 1 / 3]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestEpsilonSweep:
    @given(
        facts=st.lists(st.tuples(st.sampled_from("abc"), pcf_values), max_size=40),
        epsilons=st.lists(st.sampled_from([0.0, 0.2, 0.25, 0.4, 1.0]), min_size=1, max_size=4),
    )
    def test_equals_the_pair_list_exactly(self, facts, epsilons):
        state = facts_state(facts)
        got = bench.epsilon_sweep(state, epsilons)
        expected = reference_sweep(state, epsilons)
        assert [(e, m.hex()) for e, m in got] == [(e, m.hex()) for e, m in expected]

    def test_one_large_object_keeps_no_pair_list(self):
        # 1000 facts on one object make 499 500 pairs: as a list of pcf pairs
        # that is over 30 MB, while the facts and their index take well under 1 MB.
        state = facts_state(("1", k % 10 / 9) for k in range(1000))
        tracemalloc.start()
        try:
            rows = bench.epsilon_sweep(state, [0.0, 0.4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert rows == reference_sweep(state, [0.0, 0.4])
