"""Property-based tests (hypothesis) for invariants stated in docstrings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gravnet.netstats import STAT_KINDS, WEIGHT_TRANSFORMS, TradeNetwork, all_statistics
from gravnet.prediction import LinkProbabilityMatrix, threshold_by_manhattan

# a small value set makes tied probabilities, and ties with the observed
# links, common
_XI_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def probabilities_and_observed(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    cells = st.lists(st.sampled_from(_XI_VALUES), min_size=n * n, max_size=n * n)
    flags = st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    xi = np.array(draw(cells)).reshape(n, n)
    observed = np.array(draw(flags)).reshape(n, n)
    np.fill_diagonal(xi, 0.0)
    np.fill_diagonal(observed, 0)
    return xi, observed


@settings(max_examples=300, deadline=None)
@given(probabilities_and_observed())
def test_manhattan_cutoff_matches_brute_force_scan(case):
    xi, observed = case
    n = xi.shape[0]
    off = ~np.eye(n, dtype=bool)
    candidates = sorted({0.0, *xi[off].tolist()})
    distances = [int(((xi[off] > s) != (observed[off] != 0)).sum()) for s in candidates]
    best = min(distances)

    got = threshold_by_manhattan(
        LinkProbabilityMatrix(tuple(f"c{k}" for k in range(n)), xi), observed
    )
    assert got.manhattan_distance == best
    assert got.threshold in candidates
    assert distances[candidates.index(got.threshold)] == best
    # ties go to the smallest cutoff
    assert all(d > best for s, d in zip(candidates, distances) if s < got.threshold)
    np.testing.assert_array_equal(got.adjacency, (xi > got.threshold) & off)


@st.composite
def network_and_permutation(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    # weights of at least 1 keep log_positive sums free of cancellation,
    # so a reordered summation moves values by a few ulps at most
    cell = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e3))
    w = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    perm = np.array(draw(st.permutations(range(n))))
    return w, perm


@settings(max_examples=200, deadline=None)
@given(network_and_permutation())
def test_relabelling_nodes_permutes_every_statistic(case):
    w, perm = case
    relabelled = TradeNetwork(w[np.ix_(perm, perm)])  # P W P^T
    original = TradeNetwork(w)
    for transform in WEIGHT_TRANSFORMS:
        want = all_statistics(original, STAT_KINDS, transform)
        got = all_statistics(relabelled, STAT_KINDS, transform)
        for kind in STAT_KINDS:
            np.testing.assert_array_equal(got[kind].defined, want[kind].defined[perm], kind)
            np.testing.assert_allclose(
                got[kind].values, want[kind].values[perm], rtol=1e-12, err_msg=kind
            )
