"""Property-based tests (hypothesis) for invariants stated in docstrings."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import qr
from scipy.special import expit, gammaln, kolmogorov, log_expit, ndtr

import gravnet.netstats as netstats
import gravnet.panel as panel_module
from gravnet.cli import _significance
from gravnet.compare import (
    REPORT_KINDS,
    REPORT_VERSION,
    ComparisonReport,
    CorrelationComparison,
    EnsembleSummary,
    KsResult,
    StatComparison,
    _KOLMOGOROV_CUTOVER_MIN,
    _kolmogorov_sf,
    _percentiles,
    ensemble_summary,
    ks_two_sample,
    report_as_dict,
    report_from_dict,
)
from gravnet.errors import SingularDesignError, ValidationError
from gravnet.estimation import (
    EM_TOL,
    FitResult,
    ZipFitResult,
    _check_design,
    _expit,
    _log_expit,
    _log_factorial,
    _two_sided_p,
    fit_from_dict,
    fit_logit,
    fit_ols,
    fit_poisson_pml,
    fit_zip,
)
from gravnet.netstats import (
    BINARY_KINDS,
    STAT_KINDS,
    TradeNetwork,
    all_statistics,
    log_positive,
    population_average,
)
from gravnet.panel import (
    COUNTRY_COLUMNS,
    COUNTRY_FIELDS,
    DYAD_COLUMNS,
    DYAD_DUMMIES,
    CrossSection,
    DyadPanel,
    build_cross_section,
    build_design_matrix,
    load_panel,
    read_panel,
)
from gravnet.prediction import (
    BinaryPrediction,
    EnsembleStream,
    LinkProbabilityMatrix,
    PredictedWeights,
    binary_as_dict,
    binary_from_dict,
    link_probabilities,
    predict_ols,
    predict_ppml,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    stream_bernoulli_ensemble,
    stream_weighted_ensemble,
    threshold_by_manhattan,
)
from gravnet.synth import (
    GENERATOR_COVARIATES,
    SynthSpec,
    _csv_text,
    _write_json,
    write_synth_panel,
)

from oracles import (
    loop_diag_of_product,
    loop_ensemble_summary,
    loop_load_panel,
    loop_replication_summary,
    rendered_csv_text,
    transform_weight,
)

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
    for scale in (lambda net: net, log_positive):
        want = all_statistics(scale(original), STAT_KINDS)
        got = all_statistics(scale(relabelled), STAT_KINDS)
        for kind in STAT_KINDS:
            np.testing.assert_array_equal(got[kind].defined, want[kind].defined[perm], kind)
            np.testing.assert_allclose(
                got[kind].values, want[kind].values[perm], rtol=1e-12, err_msg=kind
            )


@st.composite
def level_weights(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    # a weight of 1 is a link whose log is 0
    cell = st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    )
    w = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    return w


@settings(max_examples=200, deadline=None)
@given(level_weights())
def test_log_positive_keeps_the_adjacency_and_logs_each_weight(w):
    """The log scale is the same network in logs: its adjacency and so
    every binary statistic are the level network's, byte for byte, and
    each weight is the oracle's log to 1e-15 relative (numpy's log and
    ``math.log`` may differ in the last bit)."""
    net = TradeNetwork(w)
    logs = log_positive(net)
    assert logs.adjacency.tobytes() == net.adjacency.tobytes()
    want = all_statistics(net, BINARY_KINDS)
    got = all_statistics(logs, BINARY_KINDS)
    for kind in BINARY_KINDS:
        assert got[kind].values.tobytes() == want[kind].values.tobytes(), kind
        assert got[kind].defined.tobytes() == want[kind].defined.tobytes(), kind
    oracle = [[transform_weight(v, "log_positive") for v in row] for row in w.tolist()]
    np.testing.assert_allclose(logs.weights, oracle, rtol=1e-15, atol=0.0)


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
    if tag == "OLS":
        # log-scale values of either sign on a partial support
        pred = PredictedWeights(tag, ids, (level - 15.0) * mask, mask, sigma2)
    elif tag == "PPML":
        pred = PredictedWeights(tag, ids, level)
    else:
        pred = PredictedWeights(tag, ids, level * xi)
    return (
        stream_weighted_ensemble(pred, m, seed, link_probs=lp),
        sample_weighted_ensemble(pred, m, seed, link_probs=lp),
    )


@pytest.mark.parametrize("tag", ["BERNOULLI", "OLS", "PPML", "ZIP"])
@settings(max_examples=40, deadline=None)
@given(case=sampler_inputs())
def test_streamed_summary_equals_stacked_summary(tag, case):
    stream, stack = stream_and_stack(tag, case)
    assert stream.m == stack.m
    assert (stream.mask is None) == (stack.mask is None) == (tag != "OLS")
    # two passes over a stream draw the same replications the stack holds
    for _ in range(2):
        drawn = list(stream)
        assert len(drawn) == stack.m
        for w, want in zip(drawn, stack.replications):
            np.testing.assert_array_equal(w, want)

    kinds = REPORT_KINDS
    want = {}
    for kind in kinds:
        try:
            want[kind] = loop_ensemble_summary(stack, kind)
        except ValidationError:
            pass  # undefined in every replication, e.g. clustering at n = 2
    defined = tuple(want)
    got_stream = ensemble_summary(stream, defined)
    got_stack = ensemble_summary(stack, defined)
    assert got_stream == got_stack == tuple(want.values())
    if len(defined) < len(kinds):
        for ens in (stream, stack):
            with pytest.raises(ValidationError, match="undefined in every replication"):
                ensemble_summary(ens, kinds)


@pytest.mark.parametrize("tag", ["BERNOULLI", "OLS", "PPML", "ZIP"])
@settings(max_examples=40, deadline=None)
@given(case=sampler_inputs())
def test_stream_replication_r_is_keyed_by_seed_and_r_alone(tag, case):
    stream, _ = stream_and_stack(tag, case)
    drawn = list(stream)
    assert len(drawn) == stream.m
    for r, w in enumerate(drawn):
        # a generator built here, not by the stream
        fresh = stream.draw(np.random.default_rng([stream.seed, r]))
        assert w.dtype == fresh.dtype and w.tobytes() == fresh.tobytes()
    # two passes in lock step share no generator state
    pairs = list(zip(stream, stream))
    assert len(pairs) == stream.m
    for (a, b), want in zip(pairs, drawn):
        assert a.tobytes() == b.tobytes() == want.tobytes()


# one draw per generator method the samplers use, and integers; int32
# leaves half a 64-bit word cached, and the normal and Poisson samplers
# leave the bit generator mid-stream, so a replication that inherited its
# predecessor's generator would differ
RAW_DRAWS = {
    "random": lambda g: g.random(5),
    "poisson": lambda g: g.poisson(3.5, 7),
    "standard_normal": lambda g: g.standard_normal(3),
    "integers": lambda g: g.integers(0, 1000, 3, dtype=np.int32),
}


@pytest.mark.parametrize("method", sorted(RAW_DRAWS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), m=st.integers(1, 6))
def test_replication_draws_what_a_fresh_generator_draws(method, seed, m):
    """Replication r draws what ``default_rng([seed, r])`` draws (PCG64
    seeded by ``SeedSequence([seed, r])``), and nothing of r - 1's state."""
    draw = RAW_DRAWS[method]
    drawn = list(EnsembleStream(("c0",), m, seed, draw))
    assert len(drawn) == m
    for r, w in enumerate(drawn):
        fresh = draw(np.random.default_rng([seed, r]))
        assert w.dtype == fresh.dtype and w.tobytes() == fresh.tobytes()


@st.composite
def summary_streams(draw):
    """``(stream, kinds)``: a stream of 0/1 weights (as bool draws or as
    floats), of levels, or of signed logs on a mask, on a support with an
    isolated node (0) and a degree-1 node (1, which exports to 2 only).
    Unmasked, a replication is empty now and then, so the partner averages
    and clusterings are dropped in some replications; a sparse support
    leaves some undefined in every one."""
    n = draw(st.integers(min_value=4, max_value=10))
    m = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scale = draw(st.sampled_from(("bool", "zero_one", "levels", "logs")))
    masked = scale == "logs" or (scale != "bool" and draw(st.booleans()))
    density = draw(st.sampled_from((0.0, 0.5, 0.7, 0.9)))
    p_empty = draw(st.sampled_from((0.0, 0.3)))
    kinds = draw(st.sampled_from((REPORT_KINDS, STAT_KINDS)))
    support = np.random.default_rng(seed).random((n, n)) < density
    np.fill_diagonal(support, False)
    support[:2, :] = support[:, :2] = False
    support[1, 2] = True

    def draw_weights(g):
        links = support if masked else support & (g.random((n, n)) < 0.7)
        if not masked and g.random() < p_empty:
            links = np.zeros((n, n), dtype=bool)
        if scale == "bool":
            return links
        if scale == "zero_one":
            # half the draws weigh every link 1, so the weights are the
            # adjacency; the others leave some links at weight 0
            keep = g.random((n, n)) < (1.0 if g.random() < 0.5 else 0.9)
            return (links & keep).astype(float)
        if scale == "levels":
            return np.where(links, g.poisson(2.0, (n, n)) * g.exponential(size=(n, n)), 0.0)
        return np.where(links, g.normal(scale=2.0, size=(n, n)), 0.0)

    mask = support.astype(np.int8) if masked else None
    ids = tuple(f"c{i}" for i in range(n))
    stream = EnsembleStream(ids, m, seed, draw_weights, mask)
    return stream, kinds


def _summary_bits(summary) -> tuple:
    return tuple(
        np.float64(v).tobytes() if isinstance(v, float) else v
        for v in dataclasses.astuple(summary)
    )


@settings(max_examples=200, deadline=None)
@given(summary_streams())
def test_ensemble_summary_equals_the_fresh_network_loop_bit_for_bit(case):
    """A masked ensemble's adjacency is validated once and handed on with
    its intermediates; every summary equals, bit for bit, the former loop's,
    which built and validated a fresh network per draw, and a kind that is
    undefined in every replication is refused with the same message (and
    the others are then compared without it)."""
    stream, kinds = case
    kinds = list(kinds)
    while True:
        try:
            want = loop_replication_summary(stream, kinds)
            break
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                ensemble_summary(stream, kinds)
            # the rest of the kinds without the one refused
            kinds.remove(str(exc).split(":")[0])
    got = ensemble_summary(stream, kinds)
    assert [_summary_bits(s) for s in got] == [_summary_bits(s) for s in want]


@st.composite
def network_blocks(draw):
    """(weights, adjacency): a block of 1-5 networks of 2-12 nodes, with
    level weights each on its own support, signed weights on one shared
    support, or 0/1 weights, in some networks times 2 on some links."""
    n = draw(st.integers(min_value=2, max_value=12))
    b = draw(st.integers(min_value=1, max_value=5))
    layout = draw(st.sampled_from(("own", "shared", "zero_one")))
    density = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9)))
    g = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    off = ~np.eye(n, dtype=bool)
    if layout == "shared":
        support = (g.random((n, n)) < density) & off
        return np.where(support, g.normal(scale=2.0, size=(b, n, n)), 0.0), support.astype(np.int8)
    links = (g.random((b, n, n)) < density) & off
    if layout == "own":
        return np.where(links, g.exponential(size=(b, n, n)) * 10.0 ** g.integers(-3, 4), 0.0), None
    doubled = (g.random((b, 1, 1)) < 0.5) & (g.random((b, n, n)) < 0.3)
    return np.where(doubled, 2.0, 1.0) * links, None


@settings(max_examples=300, deadline=None)
@given(network_blocks())
def test_a_block_gives_each_network_the_statistics_it_has_alone(case):
    """Each of the 26 kinds on a block holds, for each of its networks, the
    values and defined flags the network alone has, bit for bit, and each
    network's population average is the one it has alone; a binary kind on
    a shared support is the one network's that every network of it has."""
    w, adjacency = case
    b, n = w.shape[:2]
    block = all_statistics(TradeNetwork(w, adjacency), STAT_KINDS)
    alone = [all_statistics(TradeNetwork(w[r], adjacency), STAT_KINDS) for r in range(b)]
    for kind in STAT_KINDS:
        got = block[kind]
        values = np.broadcast_to(got.values, (b, n))
        defined = np.broadcast_to(got.defined, (b, n))
        for r in range(b):
            assert values[r].tobytes() == alone[r][kind].values.tobytes(), (kind, r)
            assert defined[r].tobytes() == alone[r][kind].defined.tobytes(), (kind, r)
        # each network's average where it has one, in order; a binary kind
        # on a shared support is averaged once, for the one network it is
        want = [population_average(stats[kind])[0] for stats in alone if stats[kind].defined.any()]
        if got.values.ndim == 1:
            want = want[:1]
        averages = netstats.population_averages(got)
        assert averages.tobytes() == np.array(want, dtype=float).tobytes(), kind


@st.composite
def zero_one_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    a = (np.random.default_rng(seed).random((n, n)) < density).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


@settings(max_examples=100, deadline=None)
@given(zero_one_graphs())
def test_one_product_motif_counts_equal_the_triple_product_diagonal(a):
    at, s = a.T, a + a.T
    factors = {
        "cyc": (a, a, a), "mid": (a, at, a), "in": (at, a, a), "out": (a, a, at), "tot": (s, s, s)
    }
    for variant, (x, y, z) in factors.items():
        want = np.diag(x @ y @ z).tobytes()
        for dtype in (np.float32, np.float64):
            got = netstats._diag_of_product(*(f.astype(dtype) for f in (x, y, z)))
            assert got.astype(float).tobytes() == want, (variant, dtype)
    # through the statistic: binary clustering counts in float32, the
    # weighted path on the same 0/1 weights in float64
    net = TradeNetwork(a)
    assert net._support.a_counts.dtype == np.float32
    for variant in factors:
        binary = netstats._clustering(f"BCC_{variant}", net, variant, weighted=False)
        weighted = netstats._clustering(f"WCC_{variant}", net, variant, weighted=True)
        assert binary.defined.tobytes() == weighted.defined.tobytes(), variant
        assert binary.values.tobytes() == weighted.values.tobytes(), variant


@st.composite
def signed_weights(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    # log-scale weights: negative below a flow of 1; magnitudes from 1e-3
    # keep every product of cube roots clear of underflow
    magnitude = st.floats(min_value=1e-3, max_value=30.0)
    cell = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    w = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    return w


@settings(max_examples=200, deadline=None)
@given(signed_weights())
def test_weighted_motif_sums_are_within_rounding_of_the_triple_loop(w):
    """On cube-rooted weights of either sign, one product and a row-wise
    dot give each motif sum within n * eps * diag(|x| @ |y| @ |z|) of the
    exactly summed triple loop: two dot products of length n round that
    much at most."""
    m = np.cbrt(w)
    mt, s = m.T, m + m.T
    factors = {
        "cyc": (m, m, m), "mid": (m, mt, m), "in": (mt, m, m), "out": (m, m, mt), "tot": (s, s, s)
    }
    eps = np.finfo(float).eps
    for variant, (x, y, z) in factors.items():
        got = netstats._diag_of_product(x, y, z)
        want = np.array(loop_diag_of_product(x.tolist(), y.tolist(), z.tolist()))
        bound = len(w) * eps * np.diag(np.abs(x) @ np.abs(y) @ np.abs(z))
        assert (np.abs(got - want) <= bound).all(), variant


@st.composite
def values_and_defined_mask(draw):
    # sizes past 128 reach the blocked pairwise summation of add.reduce
    n = draw(st.integers(min_value=1, max_value=300))
    values = draw(arrays(np.float64, n, elements=st.floats(allow_nan=True, allow_infinity=True)))
    defined = draw(arrays(np.bool_, n))
    defined[draw(st.integers(min_value=0, max_value=n - 1))] = True
    return values, defined


@settings(max_examples=300, deadline=None)
@given(values_and_defined_mask())
def test_population_average_equals_ndarray_mean_bit_for_bit(case):
    values, defined = case
    stat = netstats.NodeStatVector("NS_tot", values, defined)
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the domain
        got, n_excluded = netstats.population_average(stat)
        want = float(values[defined].mean())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert n_excluded == int((~defined).sum())


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(min_value=2, max_value=300),
              elements=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0]))))
def test_ensemble_percentiles_equal_numpys_bit_for_bit(values):
    """The 2.5 and 97.5 percentiles of an ensemble summary are
    ``np.percentile``'s, ties, signed zeros, infinities and NaN included."""
    with np.errstate(all="ignore"):  # inf - inf is part of the domain
        want = np.percentile(values, [2.5, 97.5])
    got = np.array(_percentiles(values, (2.5, 97.5)))
    assert got.tobytes() == want.tobytes()


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


# scipy's two cutover points and their float neighbours, the smallest
# subnormal, and the ends of the line
_KOLMOGOROV_EDGES = (
    *(
        np.nextafter(c, toward)
        for c in (_KOLMOGOROV_CUTOVER_MIN, 0.82)
        for toward in (-np.inf, np.inf)
    ),
    _KOLMOGOROV_CUTOVER_MIN, 0.82, 0.0, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan,
)


@settings(max_examples=300, deadline=None)
@example(_KOLMOGOROV_EDGES)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(min_value=0.0, max_value=4.0),
    ),
    min_size=1, max_size=20,
))
def test_kolmogorov_sf_equals_scipy_bit_for_bit(xs):
    """Any float, NaN and ±inf included; most draws land where the
    Kolmogorov tail is neither 0 nor 1."""
    for x in xs:
        assert np.float64(_kolmogorov_sf(x)).tobytes() == kolmogorov(x).tobytes(), x


def test_kolmogorov_sf_equals_scipy_on_the_ks_lattice():
    """Every argument ``ks_two_sample`` can form for these sample sizes:
    sqrt(n1 n2 / (n1 + n2)) D with D = |i/n1 - j/n2|."""
    for n1 in (20, 30, 50, 60, 100, 200):
        for n2 in (1, 2, 3, 7, 19, 20, 49, 50, 60, 99, 100, 101, 199, 200):
            d = np.abs(np.arange(n1 + 1)[:, None] / n1 - np.arange(n2 + 1) / n2)
            x = math.sqrt(n1 * n2 / (n1 + n2)) * np.unique(d)
            got = np.array([_kolmogorov_sf(v) for v in x.tolist()])
            np.testing.assert_array_equal(got.view(np.uint64), kolmogorov(x).view(np.uint64))


# ---------------------------------------------------------------- panel


_PANEL_IDS = ("AAA", "BBB", "CCC")
_POSITIVE = st.sampled_from(("0.5", "12", "3e2", " 7 ", "1_000"))


@st.composite
def panel_rows(draw):
    """Valid country and dyad rows (lists of text) for one to two years."""
    years = draw(st.lists(st.sampled_from(("1999", "2000")), min_size=1,
                          max_size=2, unique=True))
    flag = st.sampled_from(("0", "1"))
    countries = [
        [cid, year, draw(_POSITIVE), draw(_POSITIVE), draw(_POSITIVE),
         draw(flag), draw(st.sampled_from(("1", "2", "-3")))]
        for year in years for cid in _PANEL_IDS
    ]
    dyads = [
        [e, i, year, draw(st.sampled_from(("0", "-0", "1.5", "2e1", "inf"))),
         draw(_POSITIVE), *(draw(flag) for _ in range(5)),
         draw(st.sampled_from(("0", "0.25", "1"))), *(draw(flag) for _ in range(3))]
        for year in years for e in _PANEL_IDS for i in _PANEL_IDS
        if e != i and draw(st.booleans())
    ]
    return countries, dyads


#: (file, column, text) of one bad field; text None copies the exporter
_FAULTS = (
    ("dyads", "exporter", ""),
    ("dyads", "importer", "  "),
    ("dyads", "importer", None),
    ("dyads", "year", "20x0"),
    ("dyads", "flow", "abc"),
    ("dyads", "flow", "-1"),
    ("dyads", "flow", "nan"),
    ("dyads", "distance", "1.0.0"),
    ("dyads", "distance", "0"),
    ("dyads", "comrelig", "1.5"),
    ("dyads", "contig", "2"),
    ("dyads", "rta", "1.0"),
    ("countries", "country", "   "),
    ("countries", "year", "x"),
    ("countries", "gdp", "0"),
    ("countries", "gdp", "x"),
    ("countries", "area", "-1"),
    ("countries", "area", "1e"),
    ("countries", "population", "nan"),
    ("countries", "landlocked", "2"),
    ("countries", "continent", "2.0"),
)


@st.composite
def faulty_panel(draw):
    """The text of the two files of a small panel with up to three injected
    faults, often in one row; blank lines and quoted multi-line fields
    shift physical lines."""
    tables = dict(zip(("countries", "dyads"), draw(panel_rows())))
    headers = {"countries": COUNTRY_COLUMNS, "dyads": DYAD_COLUMNS}
    faults = st.sampled_from(("duplicate", "short row", *_FAULTS))
    for fault in draw(st.lists(faults, max_size=3)):
        name = fault[0] if isinstance(fault, tuple) else draw(st.sampled_from(tuple(tables)))
        rows = tables[name]
        if not rows:
            continue
        k = draw(st.just(0) | st.integers(0, len(rows) - 1))
        if fault == "duplicate":
            rows.insert(draw(st.integers(k + 1, len(rows))), list(rows[k]))
        elif fault == "short row":
            # cut to nothing, a row is a blank line
            rows[k] = rows[k][: draw(st.integers(0, max(len(rows[k]) - 1, 0)))]
        else:
            column = headers[name].index(fault[1])
            if column < len(rows[k]):
                rows[k][column] = rows[k][0] if fault[2] is None else fault[2]
    texts = {}
    for name, rows in tables.items():
        for row in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else ():
            # a trailing newline inside a quoted field converts as before
            if row:
                k = draw(st.integers(0, len(row) - 1))
                row[k] = row[k] + "\n"
        lines = [headers[name], *rows]
        for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=3)),
                         reverse=True):
            lines.insert(at, [])  # a blank line
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        texts[name] = buf.getvalue()
    return texts


def _outcome(load, paths):
    try:
        return load(paths["dyads"], paths["countries"])
    except Exception as exc:  # compared by type and message
        return exc


def _hex(value):
    return value.hex() if isinstance(value, float) else value


@settings(max_examples=400, deadline=None)
@given(faulty_panel(), st.sampled_from((1, 2, 5, panel_module._BLOCK_ROWS)))
def test_load_panel_matches_record_loader(texts, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.csv")
            with open(paths[name], "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
        want = _outcome(loop_load_panel, paths)
        # small blocks put faults and repeats in different blocks
        with mock.patch.object(panel_module, "_BLOCK_ROWS", block_rows):
            got = _outcome(load_panel, paths)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, Exception), got
    assert got.n_rows == want.n_rows
    assert got.years == tuple(sorted(set(want.dyads) | set(want.countries)))
    ids = got.ids
    assert ids == tuple(sorted(
        {cid for table in want.countries.values() for cid in table}
        | {cid for table in want.dyads.values() for pair in table for cid in pair}
    ))
    countries, dyads = {}, {}
    for k in range(len(got.countries["year"])):
        record = [_hex(got.countries[c][k].item()) for c in COUNTRY_COLUMNS[1:]]
        countries.setdefault(record[0], {})[ids[got.countries["country"][k]]] = record[1:]
    for k in range(got.n_rows):
        record = [_hex(got.dyads[c][k].item()) for c in DYAD_COLUMNS[2:]]
        pair = (ids[got.dyads["exporter"][k]], ids[got.dyads["importer"][k]])
        dyads.setdefault(record[0], {})[pair] = record
    assert countries == {
        year: {cid: [_hex(v) for v in dataclasses.astuple(rec)[1:]]
               for cid, rec in table.items()}
        for year, table in want.countries.items()
    }
    assert dyads == {
        year: {pair: [_hex(v) for v in dataclasses.astuple(rec)[2:]]
               for pair, rec in table.items()}
        for year, table in want.dyads.items()
    }


def assert_same_panel(got: DyadPanel, want: DyadPanel) -> None:
    """Equal field by field: the ids, and per table the column names in
    order and each column's dtype, shape and bytes."""
    assert got.ids == want.ids
    for table in ("countries", "dyads"):
        columns, expected = getattr(got, table), getattr(want, table)
        assert list(columns) == list(expected), table
        for name, array in expected.items():
            assert (columns[name].dtype, columns[name].shape) == (array.dtype, array.shape), name
            assert columns[name].tobytes() == array.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(faulty_panel())
def test_stored_panel_copy_equals_a_fresh_parse(texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.csv")
            with open(paths[name], "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
        cache = os.path.join(tmp, "panel.cache")
        fresh = _outcome(load_panel, paths)
        if isinstance(fresh, Exception):
            got = _outcome(lambda dyads, countries: read_panel(dyads, countries, cache), paths)
            assert (type(got), str(got)) == (type(fresh), str(fresh))
            return
        parsed, source, copy = read_panel(paths["dyads"], paths["countries"], cache)
        with open(cache, "wb") as fh:
            fh.write(copy)
        cached, again, no_copy = read_panel(paths["dyads"], paths["countries"], cache)
    assert source["cached"] is False
    assert again == {**source, "cached": True} and no_copy is None
    assert_same_panel(parsed, fresh)
    assert_same_panel(cached, fresh)
    # a copy's bytes depend on nothing but the panel and the digests
    assert cached.as_bytes(source) == copy


_COPY_SOURCES = {"dyads": "d" * 64, "countries": "c" * 64}
_COPY_PANEL = DyadPanel(
    ids=("A", "C\u00f4te"),
    countries={"country": np.arange(2), "gdp": np.array([1.5, -0.0])},
    dyads={"flow": np.array([0.0, 3.25, math.inf]), "contig": np.array([0, 1, 1], np.int8)},
)
_COPY = _COPY_PANEL.as_bytes(_COPY_SOURCES)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_COPY) - 1), st.integers(0, 7), st.booleans())
def test_a_damaged_panel_copy_reads_as_a_miss(at, bit, truncate):
    damaged = _COPY[:at] if truncate else (
        _COPY[:at] + bytes([_COPY[at] ^ (1 << bit)]) + _COPY[at + 1:]
    )
    assert DyadPanel.from_bytes(damaged, _COPY_SOURCES) is None


def test_a_panel_copy_reads_back_only_for_its_own_files():
    assert_same_panel(DyadPanel.from_bytes(_COPY, _COPY_SOURCES), _COPY_PANEL)
    for name in _COPY_SOURCES:
        assert DyadPanel.from_bytes(_COPY, {**_COPY_SOURCES, name: "e" * 64}) is None


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from((-0.0, math.nan, math.inf, -math.inf, "C\u00f4te d'Ivoire"))
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_writer_writes_what_json_dumps_writes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload.json")
        _write_json(path, payload)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


_LAYOUT_COLUMNS = ("const", "ln_gdp_i", "ln_dist")


@st.composite
def layout_cases(draw):
    """A cross-section with random ids and random zero flows, the in-memory
    panel its dyad rows point into, and whether to keep positive flows only."""
    n = draw(st.integers(2, 8))
    ids = sorted(draw(st.sets(st.text("ABCXYZ", min_size=1, max_size=3), min_size=n, max_size=n)))
    flows = draw(st.lists(st.sampled_from((0.0, 0.5, 2.0, 7.0)), min_size=n * n, max_size=n * n))
    weights = np.array(flows).reshape(n, n)
    np.fill_diagonal(weights, 0.0)
    off = ~np.eye(n, dtype=bool)
    dyad_rows = np.full((n, n), -1)
    dyad_rows[off] = np.arange(n * (n - 1))
    countries = {name: np.ones(n) for name in COUNTRY_FIELDS}
    countries["gdp"] = np.arange(1.0, n + 1.0)
    cs = CrossSection(2000, tuple(ids), countries, weights, (weights > 0).astype(np.int8), dyad_rows)
    panel = DyadPanel(tuple(ids), {}, {"distance": np.arange(1.0, n * (n - 1) + 1.0)})
    return cs, panel, draw(st.booleans())


def _placed(dm, values):
    """Row k's value at the grid cell of the pair ``dm.dyad(k)`` names."""
    index = {c: k for k, c in enumerate(dm.country_ids)}
    grid = np.zeros((len(index), len(index)))
    for k in range(dm.n_obs):
        exporter, importer = dm.dyad(k)
        grid[index[exporter], index[importer]] = values[k]
    return grid


def _layout_fit(tag, coefficients):
    p = len(coefficients)
    return FitResult(tag, _LAYOUT_COLUMNS, coefficients, np.zeros((p, p)),
                     0.0, 0.0, 0, True, 1, sigma2=1.0)


@settings(max_examples=100, deadline=None)
@given(layout_cases())
def test_design_rows_carry_their_grid_positions(case):
    cs, panel, positive_only = case
    dm = build_design_matrix(cs, panel, _LAYOUT_COLUMNS, positive_only=positive_only)
    pairs = list(zip(dm.exporter.tolist(), dm.importer.tolist()))
    for k, (exporter, importer) in enumerate(pairs):
        assert cs.weights[exporter, importer] == dm.y[k]
        assert dm.dyad(k) == (cs.country_ids[exporter], cs.country_ids[importer])
    # exporter-major: every wanted ordered pair once, in sorted order
    wanted = [(e, i) for e in range(cs.n) for i in range(cs.n)
              if e != i and (cs.weights[e, i] > 0 or not positive_only)]
    assert pairs == wanted

    beta, theta = np.array([0.5, 0.2, -0.3]), np.array([0.1, -0.4, 0.2])
    on_rows = _placed(dm, np.ones(dm.n_obs))
    if positive_only:
        ols = predict_ols(_layout_fit("OLS", beta), dm)
        np.testing.assert_array_equal(ols.value, _placed(dm, dm.X @ beta))
        np.testing.assert_array_equal(ols.mask, on_rows)
        return
    ppml = predict_ppml(_layout_fit("PPML", beta), dm)
    np.testing.assert_array_equal(ppml.value, _placed(dm, np.exp(dm.X @ beta)))
    assert ppml.mask is None
    lp = link_probabilities(_layout_fit("LOGIT", theta), dm)
    np.testing.assert_array_equal(lp.xi, _placed(dm, 1.0 - _expit(dm.X @ theta)))


# ``_expit`` against scipy's ``expit``: the largest gap measured on 2 * 10^6
# normal x of each sd 1, 10 and 300, and on uniform x over exp's lower
# range, was 4 ulp.  Both take the logistic 1 / (1 + exp(-x)), numpy's
# vectorised exp and the C library's, so the bound has margin for another
# SIMD dispatch.  The edges add both sides of exp's overflow at
# log(DBL_MAX), where the logistic turns subnormal and then 0
_EXPIT_ULPS = 8
_EXPIT_EDGES = (0.0, 708.4, 709.78, 709.782712893384, 709.7827128933841, 710.0, 745.2, 1e308,
                np.inf)

# long enough for any SIMD loop numpy may run, wide enough to reach both
# tails, and a strided view of it
_WIDE_NORMALS = np.random.default_rng(20261020).normal(0.0, 300.0, 4099)


@settings(max_examples=300, deadline=None)
@example(np.array([*_EXPIT_EDGES, *(-v for v in _EXPIT_EDGES), np.nan, -np.nan]))
@example(_WIDE_NORMALS)
@example(_WIDE_NORMALS.reshape(-1, 1)[::3, 0])
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_expit_is_within_ulps_of_scipy(x):
    """NaN, ±0, subnormals, ±inf and the edges of ``exp``'s overflow
    included, with no warning: NaN stays NaN and inf, and 0, match."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    want = expit(x)
    assert got.shape == want.shape == x.shape
    np.testing.assert_array_max_ulp(got, want, maxulp=_EXPIT_ULPS)


# scipy's branch point, the tails where log1p(exp(x)) rounds to exp(x) or
# to x, the edges of exp's range, and the smallest normal and subnormal
_LOG_EXPIT_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-17, 36.7, 37.0, 709.78, 710.0,
                    745.2, 1e308, np.inf)


@settings(max_examples=300, deadline=None)
@example(np.array([*_LOG_EXPIT_EDGES, *(-v for v in _LOG_EXPIT_EDGES), np.nan, -np.nan]))
@example(_WIDE_NORMALS)
@example(_WIDE_NORMALS.reshape(-1, 1)[::3, 0])
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_log_expit_equals_scipy_bit_for_bit(x):
    """NaN payloads and signs, ±0, subnormals, ±inf and the edges of
    ``exp``'s range included, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_expit(x)
    want = log_expit(x)
    assert got.shape == want.shape == x.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _float_neighbours(v, steps=3):
    """``v`` and the ``steps`` floats on each side of it."""
    out = [v]
    below = above = v
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


# ``_log_factorial`` against scipy's ``gammaln(y + 1)``: the largest gap
# measured on 2 * 10^6 uniform y in each of [0, 1e-6], [0, 3], [0, 200] and
# [1e3, 1e9], 10^6 fractions in [0, 20], integers up to 2^53 and y
# log-uniform over the floats, was 10 ulp of max(|gammaln|, 1): libm's
# lgamma and cephes' lgam, behind scipy's, are different approximations.
# The floor of 1 keeps the bound absolute near lgamma's zeros at y = 0
# and 1.  Above y + 1 = 2.556348e305 cephes returns inf, while libm's
# lgamma stays finite up to 2.5599833e305, within 0.15 % of the largest
# float
_LGAMMA_ULPS = 16
_LGAM_OVERFLOW = 2.556348e305

# y + 1 at and around cephes lgam's branch points 13, 1000 and 1e8 (each y
# exact: y and y + 1 share a binade), lgamma's zeros, 2^53 and its
# neighbours, both ends of the gap between the two overflows, inf and NaN
_LOG_FACTORIAL_EDGES = (
    *(v - 1.0 for b in (13.0, 1000.0, 1e8) for v in _float_neighbours(b)),
    0.0, 5e-324, 0.5, 1.0, 2.0, 11.0, 2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, 2e17,
    2.5e305, 2.557e305, 2.5599833278516383e305, 2.5599833278516387e305, 2.6e305, 1e308,
    np.inf, np.nan,
)


@settings(max_examples=300, deadline=None)
@example(np.array(_LOG_FACTORIAL_EDGES))
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=60),
              elements=st.one_of(
                  st.integers(min_value=0, max_value=2**53).map(float),
                  st.floats(min_value=0.0, max_value=20.0),
                  st.floats(min_value=0.0, max_value=2000.0),
                  st.floats(min_value=0.0, max_value=1e17),
                  st.floats(min_value=0.0, allow_infinity=True, allow_subnormal=True),
              )))
def test_log_factorial_is_within_ulps_of_scipy(y):
    """Integers up to 2^53, fractions, subnormals, inf and NaN, with no
    warning: every y past libm's overflow gives inf, not an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_factorial(y)
    want = gammaln(y + 1.0)
    assert got.shape == want.shape == y.shape
    gap = np.isfinite(got) & ~np.isfinite(want)  # where only cephes overflows
    assert np.all((y[gap] + 1.0 > _LGAM_OVERFLOW) & (got[gap] > 0.9985 * np.finfo(float).max))
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite & ~gap], want[~finite & ~gap])
    spacing = np.spacing(np.maximum(np.abs(want[finite]), 1.0))
    assert np.all(np.abs(got[finite] - want[finite]) <= _LGAMMA_ULPS * spacing)


# ``_two_sided_p`` against scipy's 2 * ndtr(-|z|): the largest relative gap
# measured on 10^7 uniform z in [0, 38] was 5.7e-14, growing with z.  Below
# the smallest normal float the two underflow differently: scipy's cephes
# returns 0 once z^2 / 2 passes MAXLOG (z > 37.68), erfc steps down through
# the subnormals to 0 at z ~ 38.6, and both lie below 2.3e-308 from
# z ~ 37.54 on.  The edges add scipy's branch points, z = 1, sqrt(2) and
# 8 sqrt(2)
_TWO_SIDED_P_RTOL = 1e-13
_TWO_SIDED_P_EDGES = (
    0.0, -0.0, 5e-324, 1.0, -1.0, math.sqrt(2.0), 8.0 / math.sqrt(0.5),
    37.5, -37.5, 37.54, 37.68, 38.0, 38.5, -38.5, 39.0, 1e308, -1e308,
    np.inf, -np.inf, np.nan,
)


@settings(max_examples=300, deadline=None)
@example(_TWO_SIDED_P_EDGES)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(min_value=-40.0, max_value=40.0),
    ),
    min_size=1, max_size=20,
))
def test_two_sided_p_is_scipys_within_1e_13(zs):
    """Any float: NaN gives NaN, +-inf give 0, and the underflow tail stays
    below the smallest normal float on both sides."""
    for z in zs:
        got, want = _two_sided_p(z), float(2.0 * ndtr(-abs(z)))
        if math.isnan(z):
            assert math.isnan(got) and math.isnan(want)
        elif math.isinf(z):
            assert got == want == 0.0
        elif want >= np.finfo(float).tiny:
            assert abs(got - want) <= _TWO_SIDED_P_RTOL * want, z
        else:
            assert 0.0 <= got < 2.3e-308, z


_STAR_THRESHOLDS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def _scipy_stars(estimate, se):
    """The stars of ``coefficients.csv`` from scipy's normal tail."""
    if not np.isfinite(se) or se <= 0.0:
        return ""
    p = 2.0 * ndtr(-abs(estimate / se))
    return next((stars for level, stars in _STAR_THRESHOLDS if p < level), "")


@settings(max_examples=300, deadline=None)
@example(1.0, 0.0)
@example(1.0, -0.5)
@example(1.0, np.nan)
@example(1.0, np.inf)
@example(-1.0, -np.inf)
@example(np.nan, 1.0)
@example(np.inf, 1.0)
@example(-3.2905267314919255 * (1.0 - 1e-8), 1.0)
@example(-3.2905267314919255 * (1.0 + 1e-8), 1.0)
@example(2.5758293035489004 * (1.0 - 1e-8), 1.0)
@example(2.5758293035489004 * (1.0 + 1e-8), 1.0)
@example(1.959963984540054 * (1.0 - 1e-8), 1.0)
@example(1.959963984540054 * (1.0 + 1e-8), 1.0)
@given(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(-5.0, 5.0)),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(0.1, 5.0)),
)
def test_significance_stars_are_scipys(estimate, se):
    """Stars from ``_two_sided_p`` equal stars from scipy's p wherever that
    p lies more than twice ``_TWO_SIDED_P_RTOL`` (relative) from a
    threshold; nearer, the two tails may round to opposite sides.  An ``se`` of 0,
    below 0, NaN or inf gives no stars.  The examples sit within about
    1e-8 (relative) of the z of each threshold, on both sides."""
    if np.isfinite(se) and se > 0.0:
        p = 2.0 * ndtr(-abs(estimate / se))
        assume(all(abs(p - level) > 2 * _TWO_SIDED_P_RTOL * level
                   for level, _ in _STAR_THRESHOLDS))
    assert _significance(estimate, se) == _scipy_stars(estimate, se)


def _scipy_rank(X):
    """The rank ``_check_design`` decides, from scipy's pivoted QR, and the
    columns it would name."""
    _, r, pivot = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    threshold = diag[0] * max(X.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int((diag > threshold).sum()) if diag.size and diag[0] > 0.0 else 0
    return rank, sorted(pivot[rank:].tolist())


def _named_columns(X):
    """The column positions ``_check_design`` names as collinear."""
    names = [f"x{j}" for j in range(X.shape[1])]
    try:
        _check_design(SimpleNamespace(X=X, y=np.zeros(len(X)), columns=names))
    except SingularDesignError as err:
        return sorted(names.index(name) for name in err.columns)
    return []


@st.composite
def _designs(draw):
    """(collinearity, X): small integers times a power of two per column,
    then one exact collinearity of the given kind, if any."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(max(p, 6), 40))
    X = draw(arrays(np.float64, (n, p), elements=st.integers(-3, 3).map(float)))
    X = X * draw(arrays(np.float64, p, elements=st.sampled_from([0.125, 1.0, 64.0])))
    kind = draw(st.sampled_from(["none", "zero", "scaled", "reversed", "sum", "dummies"]))
    j, k, l = draw(st.permutations(range(max(p, 3))))[:3]
    if kind == "zero":
        X[:, j % p] = 0.0
    elif kind == "scaled" and p >= 2:
        X[:, j % p] = draw(st.sampled_from([1.0, 2.0, -3.0])) * X[:, k % p]
    elif kind == "reversed" and p >= 2:
        # column k's rows in reverse: two columns of tied norms, which
        # pivot in column order, not in scipy's rounding order; collinear
        # only where the reversal is a multiple of column k
        j, k = j % p, (j + 1) % p
        X[:, j] = X[::-1, k]
        kind = "none" if np.linalg.matrix_rank(X[:, [j, k]]) == 2 else "scaled"
    elif kind == "sum" and p >= 3:
        X[:, j] = X[:, k] + X[:, l]
    elif kind == "dummies" and p >= 3:
        dummy = draw(arrays(np.bool_, n))
        X[:, j], X[:, k], X[:, l] = 1.0, dummy, ~dummy
    return kind, X


@settings(max_examples=400, deadline=None)
@given(_designs())
def test_rank_check_decides_scipys_rank(design):
    """The rank equals scipy's on every design.  Where no column is
    collinear with others (none, or a zero column) the named columns are
    scipy's too; where rounding decides which of exactly collinear columns
    is named, the choice may differ, but dropping the named columns
    always leaves a full-rank design."""
    kind, X = design
    named = _named_columns(X)
    want_rank, want_named = _scipy_rank(X)
    assert X.shape[1] - len(named) == want_rank
    if kind in ("none", "zero"):
        assert named == want_named
    kept = [j for j in range(X.shape[1]) if j not in named]
    assert _named_columns(X[:, kept]) == []
    assert np.linalg.matrix_rank(X[:, kept]) == len(kept)


# ----------------------------------------------------------------- csv cells

_CELLS = st.one_of(
    st.text(st.characters(codec="utf-8"), max_size=12)
    | st.sampled_from([",", '"', "a,b", 'say "hi"', "two\nlines", "cr\r", " ", "C\u00f4te"]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 1e16, 1e-5, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@example([[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5],
          [np.float64(-0.0), np.float64(1e16), np.float64(1e-5), np.float64(5e-324),
           np.float64(math.nan), np.int64(-3), None, ""],
          [None], [""], ['a,"b"\nc', "C\u00f4te", 2**64, -1]])
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=8))
def test_csv_text_equals_the_rendered_oracle(rows):
    """``_csv_text`` hands each row to ``csv.writer`` as it is and writes
    the text the former per-cell renderer wrote, for every cell type the
    row producers hand it."""
    header = ("a", "b,c")
    assert _csv_text(header, rows) == rendered_csv_text(header, rows)


# ---------------------------------------------------------------- estimation


@pytest.fixture(scope="module")
def synth_designs(tmp_path_factory):
    """(positive-flow, full) designs of one n = 15 synth year, with each
    estimator's fit on them."""
    out = tmp_path_factory.mktemp("rescale")
    spec = SynthSpec(n_countries=15, years=(2000,), noise="zip", seed=21)
    paths = write_synth_panel(spec, str(out))
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm_pos, dm_full = (
        build_design_matrix(cs, panel, GENERATOR_COVARIATES, positive_only=positive)
        for positive in (True, False)
    )
    return dm_pos, dm_full, _fits(dm_pos, dm_full)


def _fits(dm_pos, dm_full):
    zip_fit = fit_zip(dm_full)
    return {
        "OLS": fit_ols(dm_pos),
        "PPML": fit_poisson_pml(dm_full),
        "LOGIT": fit_logit(dm_full),
        "ZIP_poisson": zip_fit.poisson_part,
        "ZIP_logit": zip_fit.logit_part,
    }


def _rescaled(column, c):
    scale = np.ones(len(GENERATOR_COVARIATES))
    scale[column] = c
    return scale


@settings(max_examples=25, deadline=None)
@given(
    column=st.integers(1, len(GENERATOR_COVARIATES) - 1),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_rescaling_a_column_rescales_its_coefficient(synth_designs, column, c):
    dm_pos, dm_full, want = synth_designs
    scale = _rescaled(column, c)
    got = _fits(*(replace(dm, X=dm.X * scale) for dm in (dm_pos, dm_full)))
    for label, fit in got.items():
        # EM stops on a relative log-likelihood change of EM_TOL, so the ZIP
        # optimum is pinned only that closely; the IRLS fits far closer
        rtol = EM_TOL if label.startswith("ZIP") else 1e-9
        np.testing.assert_allclose(
            fit.coefficients * scale, want[label].coefficients, rtol=rtol, err_msg=label
        )
        np.testing.assert_allclose(
            fit.std_errors * scale, want[label].std_errors, rtol=rtol, err_msg=label
        )
        assert fit.loglik == pytest.approx(want[label].loglik, rel=rtol), label


def test_rescaling_a_column_by_1e_3_keeps_poisson_converging(synth_designs):
    # the divergence ceiling bounds X @ beta, which rescaling leaves alone
    _, dm_full, want = synth_designs
    scale = _rescaled(GENERATOR_COVARIATES.index("contig"), 1e-3)
    rescaled = replace(dm_full, X=dm_full.X * scale)
    fit = fit_poisson_pml(rescaled)
    np.testing.assert_allclose(fit.coefficients * scale, want["PPML"].coefficients, rtol=1e-9)
    zip_fit = fit_zip(rescaled)
    for label, part in (("ZIP_poisson", zip_fit.poisson_part), ("ZIP_logit", zip_fit.logit_part)):
        np.testing.assert_allclose(
            part.coefficients * scale, want[label].coefficients, rtol=EM_TOL, err_msg=label
        )


# ------------------------------------------------------ artifact codecs

# every float64, NaN, infinities and -0.0 included
_FLOATS = st.floats()
_COUNTS = st.integers(min_value=0, max_value=10**9)
_LABELS = st.text(min_size=1, max_size=6)


def _square(n, dtype=np.float64, elements=_FLOATS):
    return arrays(dtype, (n, n), elements=elements)


@st.composite
def fit_results(draw, tags=("OLS", "PPML", "LOGIT")):
    names = tuple(draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True)))
    p = len(names)
    vcov = draw(_square(p))
    # a non-negative diagonal keeps the encoded standard errors real
    np.fill_diagonal(vcov, np.abs(np.diag(vcov)))
    return FitResult(
        draw(st.sampled_from(tags)),
        names,
        draw(arrays(np.float64, p, elements=_FLOATS)),
        vcov,
        draw(_FLOATS),
        draw(_FLOATS),
        draw(_COUNTS),
        draw(st.booleans()),
        draw(_COUNTS),
        draw(st.none() | _FLOATS),
    )


@st.composite
def zip_fit_results(draw):
    return ZipFitResult(
        draw(fit_results(("ZIP_LOGIT",))),
        draw(fit_results(("ZIP_POISSON",))),
        draw(_FLOATS),
        draw(st.none() | _FLOATS),
    )


_COUNTRY_IDS = st.lists(_LABELS, min_size=1, max_size=5, unique=True).map(tuple)


@st.composite
def predicted_weights(draw):
    ids = draw(_COUNTRY_IDS)
    n = len(ids)
    tag = draw(st.sampled_from(("OLS", "PPML", "ZIP")))
    if tag != "OLS":
        return PredictedWeights(tag, ids, draw(_square(n)))
    mask = draw(_square(n, np.int8, st.integers(0, 1)))
    return PredictedWeights(tag, ids, draw(_square(n)), mask, draw(_FLOATS))


@st.composite
def link_probability_matrices(draw):
    ids = draw(_COUNTRY_IDS)
    return LinkProbabilityMatrix(ids, draw(_square(len(ids))))


@st.composite
def binary_predictions(draw):
    """``(country_ids, density_induced)``, what :func:`binary_from_dict` gives back."""
    ids = draw(st.lists(_LABELS, min_size=2, max_size=5, unique=True).map(tuple))
    adjacency = draw(_square(len(ids), np.int8, st.integers(0, 1)))
    return ids, BinaryPrediction(adjacency, draw(_FLOATS))


def _binary_as_dict(value):
    # the decoder reads back the country ids and the density-induced rule;
    # the other two rules are stored without their adjacency
    ids, induced = value
    return binary_as_dict(ids, induced, induced, induced)


@st.composite
def stat_comparisons(draw):
    kind = draw(st.sampled_from(REPORT_KINDS))
    summary = st.builds(
        EnsembleSummary, st.just(kind), *[_FLOATS] * 6, _COUNTS, _COUNTS
    )
    return StatComparison(
        kind,
        draw(_FLOATS),
        draw(_FLOATS),
        draw(summary),
        draw(st.builds(KsResult, _FLOATS, _FLOATS, _COUNTS, _COUNTS)),
    )


_correlations = st.builds(
    CorrelationComparison,
    st.sampled_from(REPORT_KINDS),
    st.sampled_from(REPORT_KINDS),
    _FLOATS | st.just(math.nan),
    _FLOATS | st.just(math.nan),
)

_comparison_reports = st.builds(
    ComparisonReport,
    _COUNTS,
    st.lists(stat_comparisons(), max_size=4).map(tuple),
    st.lists(_correlations, max_size=4).map(tuple),
    st.just(REPORT_VERSION),
)


def _as_dict(value):
    return value.as_dict()


#: artifact -> (values, encoder, decoder, arrays kept bit for bit)
_CODECS = {
    "fit": (fit_results(), _as_dict, fit_from_dict, False),
    "zip_fit": (zip_fit_results(), _as_dict, fit_from_dict, False),
    "prediction": (predicted_weights(), _as_dict, PredictedWeights.from_dict, True),
    "xi": (link_probability_matrices(), _as_dict, LinkProbabilityMatrix.from_dict, True),
    "binary": (binary_predictions(), _binary_as_dict, binary_from_dict, True),
    "report": (_comparison_reports, report_as_dict, report_from_dict, False),
}


def assert_same(got, want, where="value", bits=False):
    """Equal field by field: arrays of the same dtype and shape, equal bit
    for bit, but for NaN sign and payload unless ``bits``; scalars of the
    same type."""
    assert type(got) is type(want), where
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}", bits)
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        if bits:
            assert got.tobytes() == want.tobytes(), where
            return
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), where
        # -0.0 stays -0.0; a NaN keeps neither its sign nor its payload
        assert np.array_equal(np.signbit(got), np.signbit(want) & ~np.isnan(want)), where
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]", bits)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), where
    else:
        assert got == want, where
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want), where


@pytest.mark.parametrize("artifact", sorted(_CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_artifact_codecs_round_trip_exactly(artifact, data):
    values, encode, decode, bits = _CODECS[artifact]
    value = data.draw(values)
    text = json.dumps(encode(value), indent=2, sort_keys=True)
    back = decode(json.loads(text))
    assert json.dumps(encode(back), indent=2, sort_keys=True) == text
    assert_same(back, value, bits=bits)
