"""Property-based tests (hypothesis) for invariants stated in docstrings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravnet.compare import REPORT_KINDS, ensemble_summary, ks_two_sample
from gravnet.errors import ValidationError
from gravnet.netstats import STAT_KINDS, WEIGHT_TRANSFORMS, TradeNetwork, all_statistics
from gravnet.prediction import (
    LinkProbabilityMatrix,
    PredictedWeights,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    stream_bernoulli_ensemble,
    stream_weighted_ensemble,
    threshold_by_manhattan,
)

from oracles import loop_ensemble_summary

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


@st.composite
def sampler_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))

    def grid(elements):
        cells = draw(st.lists(elements, min_size=n * n, max_size=n * n))
        g = np.array(cells, dtype=float).reshape(n, n)
        np.fill_diagonal(g, 0.0)
        return g

    xi = grid(st.floats(min_value=0.05, max_value=0.95))
    level = grid(st.floats(min_value=0.0, max_value=30.0))
    mask = grid(st.integers(0, 1)).astype(np.int8)
    sigma2 = draw(st.floats(min_value=0.0, max_value=2.0))
    m = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return xi, level, mask, sigma2, m, seed


def stream_and_stack(tag, case):
    """The stream of one sampler and the eager ensemble of the same draws."""
    xi, level, mask, sigma2, m, seed = case
    n = xi.shape[0]
    ids = tuple(f"c{k}" for k in range(n))
    lp = LinkProbabilityMatrix(ids, xi)
    if tag == "BERNOULLI":
        return stream_bernoulli_ensemble(lp, m, seed), sample_bernoulli_ensemble(lp, m, seed)
    off = (~np.eye(n, dtype=bool)).astype(np.int8)
    if tag == "OLS":
        # log-scale values of either sign on a partial support
        pred = PredictedWeights(tag, ids, (level - 15.0) * mask, sigma2 * mask, mask)
    elif tag == "PPML":
        pred = PredictedWeights(tag, ids, level, level, off)
    else:
        pred = PredictedWeights(tag, ids, level * xi, level, off)
    return (
        stream_weighted_ensemble(pred, m, seed, link_probs=lp),
        sample_weighted_ensemble(pred, m, seed, link_probs=lp),
    )


@pytest.mark.parametrize("transform", WEIGHT_TRANSFORMS)
@pytest.mark.parametrize("tag", ["BERNOULLI", "OLS", "PPML", "ZIP"])
@settings(max_examples=40, deadline=None)
@given(case=sampler_inputs())
def test_streamed_summary_equals_stacked_summary(tag, transform, case):
    stream, stack = stream_and_stack(tag, case)
    assert stream.m == stack.m
    assert (stream.mask is None) == (stack.mask is None) == (tag != "OLS")
    # two passes over a stream draw the same replications the stack holds
    for _ in range(2):
        drawn = list(stream)
        assert len(drawn) == stack.m
        for w, want in zip(drawn, stack.replications):
            np.testing.assert_array_equal(w, want)

    kinds = REPORT_KINDS + ("density",)
    want = {}
    for kind in kinds:
        try:
            want[kind] = loop_ensemble_summary(stack, kind, transform)
        except ValidationError:
            pass  # undefined in every replication, e.g. clustering at n = 2
    defined = tuple(want)
    got_stream = ensemble_summary(stream, defined, transform)
    got_stack = ensemble_summary(stack, defined, transform)
    assert got_stream == got_stack == tuple(want.values())
    if len(defined) < len(kinds):
        for ens in (stream, stack):
            with pytest.raises(ValidationError, match="undefined in every replication"):
                ensemble_summary(ens, kinds, transform)


# a coarse grid keeps distinct values distinct after exp() and cubing,
# so a strictly increasing transform keeps every order and tie
_KS_VALUES = st.integers(min_value=-160, max_value=160).map(lambda k: k / 8.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_KS_VALUES, min_size=1, max_size=30),
    st.lists(_KS_VALUES, min_size=1, max_size=30),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_ks_is_symmetric_and_invariant_under_increasing_maps(x, y, c):
    x, y = np.array(x), np.array(y)
    forward = ks_two_sample(x, y)
    backward = ks_two_sample(y, x)
    assert (backward.d_statistic, backward.p_value) == (forward.d_statistic, forward.p_value)
    assert (backward.n1, backward.n2) == (forward.n2, forward.n1)
    for transform in (np.exp, lambda v: v**3 + c):
        mapped = ks_two_sample(transform(x), transform(y))
        assert mapped.d_statistic == forward.d_statistic
        assert mapped.p_value == forward.p_value
