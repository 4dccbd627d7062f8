import math
import re

import numpy as np
import pytest

from gravnet.errors import ValidationError
from gravnet.netstats import (
    BINARY_KINDS,
    SCALES,
    STAT_KINDS,
    WEIGHTED_KINDS,
    TradeNetwork,
    all_statistics,
    binary,
    compute_statistic,
    density,
    log_positive,
    population_average,
    stat_correlation,
    _diag_of_product,
)

import oracles


def random_network(rng, n=None):
    if n is None:
        n = int(rng.integers(4, 9))
    p = rng.uniform(0.2, 0.9)
    a = (rng.random((n, n)) < p).astype(int)
    np.fill_diagonal(a, 0)
    w = np.where(a == 1, rng.uniform(0.1, 5.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return w, a


def assert_matches(stat, oracle_pair, atol=1e-12):
    values, defined = oracle_pair
    assert stat.defined.tolist() == defined
    for got, exp, ok in zip(stat.values, values, defined):
        if ok:
            assert abs(got - exp) <= atol
        else:
            assert math.isnan(got)


def test_catalogue_covers_all_kinds():
    assert len(BINARY_KINDS) == 13
    assert len(WEIGHTED_KINDS) == 13
    assert len(STAT_KINDS) == 26
    net = TradeNetwork(random_network(np.random.default_rng(0), n=6)[0])
    for kind in STAT_KINDS:
        stat = compute_statistic(net, kind)
        assert stat.kind == kind
        assert stat.values.shape == (6,)


def test_all_statistics_match_loop_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        w, a = random_network(rng)
        net = TradeNetwork(w)
        assert net.adjacency.tolist() == a.tolist()
        for scale, transform in ((net, "identity"), (log_positive(net), "log_positive")):
            expected = oracles.loop_statistics(w, a, transform)
            got = all_statistics(scale)
            for kind in STAT_KINDS:
                assert_matches(got[kind], expected[kind])
        assert_matches(oracles.reciprocal_degree(net), expected["ND_recip"])
        assert abs(density(net) - expected["density"]) <= 1e-12


def test_kept_statistics_match_per_kind_calls_and_build_weights_once(monkeypatch):
    import gravnet.netstats as netstats

    rng = np.random.default_rng(20261018)
    for _ in range(10):
        net = TradeNetwork(random_network(rng)[0])
        for scale in (net, log_positive(net)):
            together = all_statistics(scale, STAT_KINDS)
            for kind in STAT_KINDS:
                # on a fresh network, which has kept nothing yet
                alone = compute_statistic(TradeNetwork(scale.weights, scale.adjacency), kind)
                assert alone.kind == kind
                np.testing.assert_array_equal(alone.values, together[kind].values)
                np.testing.assert_array_equal(alone.defined, together[kind].defined)

    calls = []
    original = netstats._by_direction

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(netstats, "_by_direction", counting)
    # counted on fresh networks, which have built nothing yet
    logged = log_positive(TradeNetwork(net.weights))
    all_statistics(logged, STAT_KINDS)
    assert len(calls) == 2  # degrees and strengths, shared by all 26 kinds
    calls.clear()
    all_statistics(log_positive(TradeNetwork(net.weights)), BINARY_KINDS)
    assert len(calls) == 1  # binary kinds never read the weights

    # the log scale is the same support: the levels reuse its degrees
    levels = TradeNetwork(net.weights)
    assert log_positive(levels)._support is levels._support
    all_statistics(log_positive(levels), BINARY_KINDS)
    calls.clear()
    all_statistics(levels, STAT_KINDS)
    assert len(calls) == 1  # the strengths of the levels only


def test_three_cycle_known_values():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 8.0
    net = TradeNetwork(w)

    assert compute_statistic(net, "ND_in").values.tolist() == [1.0, 1.0, 1.0]
    assert compute_statistic(net, "ND_tot").values.tolist() == [2.0, 2.0, 2.0]
    assert compute_statistic(net, "NS_tot").values.tolist() == [16.0, 16.0, 16.0]
    assert oracles.reciprocal_degree(net).values.tolist() == [0.0, 0.0, 0.0]
    assert density(net) == pytest.approx(0.5)

    assert compute_statistic(net, "ANND_in_in").values.tolist() == [1.0, 1.0, 1.0]
    assert compute_statistic(net, "ANND_tot").values.tolist() == [2.0, 2.0, 2.0]

    cyc = compute_statistic(net, "BCC_cyc")
    assert cyc.values.tolist() == [1.0, 1.0, 1.0]
    mid = compute_statistic(net, "BCC_mid")
    assert mid.values.tolist() == [0.0, 0.0, 0.0]
    # A node with one supplier and one customer has no in- or out-pair.
    assert not compute_statistic(net, "BCC_in").defined.any()
    assert not compute_statistic(net, "BCC_out").defined.any()
    tot = compute_statistic(net, "BCC_tot")
    assert tot.values.tolist() == [0.5, 0.5, 0.5]

    # cbrt(8) = 2 exactly, so the weighted cycle value is exact as well.
    wcc = compute_statistic(net, "WCC_cyc")
    assert wcc.values.tolist() == [8.0, 8.0, 8.0]


def test_bidirectional_star_known_values():
    n = 4
    w = np.zeros((n, n))
    for leaf in range(1, n):
        w[0, leaf] = w[leaf, 0] = 2.0
    net = TradeNetwork(w)

    assert compute_statistic(net, "ND_tot").values.tolist() == [6.0, 2.0, 2.0, 2.0]
    assert oracles.reciprocal_degree(net).values.tolist() == [3.0, 1.0, 1.0, 1.0]
    # Hub neighbors are the leaves (k_tot 2 each); leaf neighbor is the hub.
    assert compute_statistic(net, "ANND_tot").values.tolist() == [2.0, 6.0, 6.0, 6.0]
    assert compute_statistic(net, "ANNS_tot").values.tolist() == [4.0, 12.0, 12.0, 12.0]

    cyc = compute_statistic(net, "BCC_cyc")
    assert cyc.defined.tolist() == [True, False, False, False]
    assert cyc.values[0] == 0.0

    tot = compute_statistic(net, "BCC_tot")
    assert tot.defined.tolist() == [True, False, False, False]
    assert tot.values[0] == 0.0


def test_zero_one_weights_make_weighted_equal_binary():
    rng = np.random.default_rng(7)
    for _ in range(20):
        _, a = random_network(rng)
        net = TradeNetwork(a.astype(float))
        for bin_kind, wgt_kind in zip(BINARY_KINDS, WEIGHTED_KINDS):
            b = compute_statistic(net, bin_kind)
            v = compute_statistic(net, wgt_kind)
            assert b.defined.tolist() == v.defined.tolist()
            ok = b.defined
            assert np.array_equal(b.values[ok], v.values[ok])


def _count_computed(monkeypatch) -> list:
    """The kinds ``netstats._compute`` computes from here on, in order."""
    import gravnet.netstats as netstats

    computed = []
    original = netstats._compute

    def counting(net, kind):
        computed.append(kind)
        return original(net, kind)

    monkeypatch.setattr(netstats, "_compute", counting)
    return computed


def test_each_statistic_computed_once_and_zero_one_weights_reuse_binary(monkeypatch):
    computed = _count_computed(monkeypatch)
    _, a = random_network(np.random.default_rng(29), n=7)
    zero_one = TradeNetwork(a.astype(float))
    stats = all_statistics(zero_one, STAT_KINDS + STAT_KINDS)
    assert sorted(computed) == sorted(BINARY_KINDS)  # once each, weighted read from binary
    for bin_kind, wgt_kind in zip(BINARY_KINDS, WEIGHTED_KINDS):
        assert stats[wgt_kind].kind == wgt_kind
        assert stats[wgt_kind].values.tobytes() == stats[bin_kind].values.tobytes()

    # the reuse needs the adjacency's very bits: the log scale (log 1 = 0)
    # sends every weighted kind to its own path, and reads the binary kinds
    # kept on the support it shares; a -0.0 weight, on a support of its own,
    # computes every kind
    computed.clear()
    all_statistics(log_positive(zero_one), STAT_KINDS)
    assert sorted(computed) == sorted(WEIGHTED_KINDS)
    computed.clear()
    all_statistics(TradeNetwork(np.where(a == 1, 1.0, -0.0)), STAT_KINDS)
    assert sorted(computed) == sorted(STAT_KINDS)


def test_a_second_request_on_one_network_computes_no_kind(monkeypatch):
    computed = _count_computed(monkeypatch)
    net = TradeNetwork(random_network(np.random.default_rng(31), n=8)[0])
    first = all_statistics(net, STAT_KINDS)
    assert sorted(computed) == sorted(STAT_KINDS)
    computed.clear()
    again = all_statistics(net, STAT_KINDS)
    assert computed == []
    assert all(again[kind] is first[kind] for kind in STAT_KINDS)
    assert compute_statistic(net, "WCC_tot") is first["WCC_tot"]
    assert computed == []


def test_scales_of_a_network_compute_no_binary_kind_again(monkeypatch):
    computed = _count_computed(monkeypatch)
    net = TradeNetwork(random_network(np.random.default_rng(37), n=8)[0])
    first = all_statistics(net, BINARY_KINDS)
    computed.clear()
    logged = all_statistics(log_positive(net), STAT_KINDS)
    assert sorted(computed) == sorted(WEIGHTED_KINDS)  # what reads its weights only
    computed.clear()
    ones = all_statistics(binary(net), STAT_KINDS)
    assert computed == []  # 0/1 weights read their binary twins
    for stats in (logged, ones):
        assert all(stats[kind] is first[kind] for kind in BINARY_KINDS)


def test_weighted_clustering_scales_linearly_in_weights():
    rng = np.random.default_rng(11)
    w, _ = random_network(rng, n=7)
    scale = 37.5
    for variant in ("cyc", "mid", "in", "out", "tot"):
        base = compute_statistic(TradeNetwork(w), f"WCC_{variant}")
        scaled = compute_statistic(TradeNetwork(scale * w), f"WCC_{variant}")
        assert scaled.defined.tolist() == base.defined.tolist()
        ok = base.defined
        np.testing.assert_allclose(
            scaled.values[ok], scale * base.values[ok], rtol=1e-10
        )


def test_binary_motif_counts_are_float32_up_to_1448_nodes():
    """Every partial sum of a binary count is an integer of at most 8n**2,
    exact in float32 below 2**24, so up to 1448 nodes the counts are taken
    in float32 and from 1449 in float64.  On the complete graph at the bound
    every motif closes, so each BCC is exactly 1, and the ``tot`` count,
    8(n-1)(n-2), the largest, equals the float64 count bit for bit."""
    net = TradeNetwork(1.0 - np.eye(1448))
    support = net._support
    assert support.a_counts.dtype == np.float32
    kinds = [f"BCC_{variant}" for variant in ("cyc", "mid", "in", "out", "tot")]
    for kind, stat in all_statistics(net, kinds).items():
        assert (stat.values == 1.0).all(), kind
    counts = _diag_of_product(*(support.a_sym_counts,) * 3)
    want = _diag_of_product(*(support.a_sym,) * 3)
    assert counts.astype(float).tobytes() == want.tobytes()
    assert (want == 8.0 * 1447 * 1446).all()
    assert TradeNetwork(1.0 - np.eye(1449))._support.a_counts.dtype == np.float64


def test_strength_and_degree_handshake_sums():
    rng = np.random.default_rng(13)
    w, a = random_network(rng)
    net = TradeNetwork(w)
    assert compute_statistic(net, "NS_in").values.sum() == pytest.approx(w.sum())
    assert compute_statistic(net, "NS_out").values.sum() == pytest.approx(w.sum())
    assert compute_statistic(net, "ND_tot").values.sum() == 2 * a.sum()
    assert oracles.reciprocal_degree(net).values.sum() % 2 == 0


def test_log_positive_transform_values():
    w = np.zeros((3, 3))
    w[0, 1] = math.e
    w[1, 0] = 1.0  # log 1 = 0: link survives in degrees, drops from strength
    w[2, 0] = 0.5  # negative log
    logs = log_positive(TradeNetwork(w))
    s_out = compute_statistic(logs, "NS_out")
    assert s_out.values[0] == pytest.approx(1.0)
    assert s_out.values[1] == 0.0
    assert s_out.values[2] == pytest.approx(math.log(0.5))
    assert compute_statistic(logs, "ND_out").values.tolist() == [1.0, 1.0, 1.0]


def test_binary_scale_weighs_each_link_1_and_answers_with_the_binary_twins():
    """``binary(net)`` is ``net``'s adjacency as weights, on ``net``'s
    support, so every weighted statistic is its binary twin bit for bit;
    ``SCALES`` names the three scales."""
    rng = np.random.default_rng(33)
    for _ in range(10):
        net = TradeNetwork(random_network(rng)[0])
        ones = binary(net)
        assert ones._support is net._support
        np.testing.assert_array_equal(ones.weights, net.adjacency)
        stats = all_statistics(ones, STAT_KINDS)
        for weighted, twin in zip(WEIGHTED_KINDS, BINARY_KINDS):
            np.testing.assert_array_equal(stats[weighted].values, stats[twin].values)
            np.testing.assert_array_equal(stats[weighted].defined, stats[twin].defined)
            # and the twin is what the levels give
            np.testing.assert_array_equal(
                stats[twin].values, compute_statistic(net, twin).values
            )
    assert SCALES["identity"](net) is net
    assert SCALES["log_positive"] is log_positive
    assert SCALES["binary"] is binary


def test_explicit_adjacency_allows_negative_weights():
    w = np.zeros((3, 3))
    w[0, 1] = -1.5
    w[1, 2] = 2.0
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = 1
    net = TradeNetwork(w, adjacency=a)
    assert compute_statistic(net, "NS_out").values[0] == -1.5
    with pytest.raises(ValidationError):
        TradeNetwork(w)


def test_network_validation():
    with pytest.raises(ValidationError):
        TradeNetwork(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        TradeNetwork(np.eye(3))
    with pytest.raises(ValidationError):
        TradeNetwork(np.full((3, 3), np.nan))
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    with pytest.raises(ValidationError):
        TradeNetwork(w, adjacency=np.zeros((2, 2), dtype=int))
    with pytest.raises(ValidationError):
        TradeNetwork(w, adjacency=np.full((3, 3), 0.5))
    with pytest.raises(ValidationError):
        TradeNetwork(w, adjacency=np.zeros((3, 3), dtype=int))
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = 1
    bad = a.copy()
    np.fill_diagonal(bad, 1)
    with pytest.raises(ValidationError):
        TradeNetwork(w, adjacency=bad)

    # bool and float 0/1 adjacencies are accepted as int8 0/1
    for given in (a.astype(bool), a.astype(float), a.astype(np.uint8)):
        net = TradeNetwork(w, adjacency=given)
        assert net.adjacency.dtype == np.int8
        assert net.adjacency.tolist() == a.tolist()
    for entry in (np.nan, 0.5, 2.0, -1.0):
        off_01 = a.astype(float)
        off_01[1, 2] = entry
        with pytest.raises(ValidationError, match="0 or 1"):
            TradeNetwork(w, adjacency=off_01)
    # a nonzero weight, of either sign, off the given adjacency
    for weight in (3.0, -3.0, 1e-300):
        stray = w.copy()
        stray[2, 0] = weight
        with pytest.raises(ValidationError, match="zero where adjacency is zero"):
            TradeNetwork(stray, adjacency=a)
    with pytest.raises(ValidationError, match="finite"):
        TradeNetwork(np.where(a == 1, np.nan, 0.0), adjacency=a)


def _refusal_case(adjacency=None, **entries):
    """``(weights, adjacency)`` of a 3-node network with one link, 0 -> 1,
    with ``entries`` written in: ``w12=v`` sets weight (1, 2) to v, and
    ``a12=v`` the entry (1, 2) of a copy of ``adjacency``."""
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    a = None if adjacency is None else adjacency.copy()
    for at, value in entries.items():
        target = w if at[0] == "w" else a
        target[int(at[1]), int(at[2])] = value
    return w, a


def _link_adjacency(dtype=int):
    a = np.zeros((3, 3), dtype=dtype)
    a[0, 1] = 1
    return a


# each refusal with its message, alone and where several faults meet, so the
# first check that fails is the one named: shape, finite, weight diagonal,
# then the sign (derived adjacency) or the adjacency's shape, entries,
# diagonal and support (given adjacency)
_REFUSALS = {
    "not square": (np.zeros((2, 3)), None, "weights must be square, got shape (2, 3)"),
    "nan": (*_refusal_case(w12=np.nan), "weights must be finite"),
    "+inf": (*_refusal_case(w12=np.inf), "weights must be finite"),
    "-inf": (*_refusal_case(w12=-np.inf), "weights must be finite"),
    "nan on the diagonal": (*_refusal_case(w11=np.nan), "weights must be finite"),
    "nonzero diagonal": (*_refusal_case(w22=2.0), "weight matrix must have a zero diagonal"),
    "nonzero diagonal before negative": (
        *_refusal_case(w22=2.0, w10=-1.0), "weight matrix must have a zero diagonal"
    ),
    "negative without adjacency": (
        *_refusal_case(w10=-1.0), "negative weights require an explicit adjacency matrix"
    ),
    "-inf before negative": (*_refusal_case(w10=-1.0, w12=-np.inf), "weights must be finite"),
    "adjacency shape": (
        *_refusal_case(adjacency=np.zeros((2, 2), dtype=int)),
        "adjacency shape (2, 2) != weights shape (3, 3)",
    ),
    "adjacency 0.5": (
        *_refusal_case(adjacency=_link_adjacency(float), a12=0.5),
        "adjacency entries must be 0 or 1",
    ),
    "adjacency 2": (
        *_refusal_case(adjacency=_link_adjacency(), a12=2), "adjacency entries must be 0 or 1"
    ),
    "adjacency nan": (
        *_refusal_case(adjacency=_link_adjacency(float), a12=np.nan),
        "adjacency entries must be 0 or 1",
    ),
    "adjacency diagonal": (
        *_refusal_case(adjacency=_link_adjacency(), a00=1), "adjacency must have a zero diagonal"
    ),
    "weight off the support": (
        *_refusal_case(adjacency=_link_adjacency(), w20=3.0),
        "weights must be zero where adjacency is zero",
    ),
    "negative weight off the support": (
        *_refusal_case(adjacency=_link_adjacency(), w20=-1e-300),
        "weights must be zero where adjacency is zero",
    ),
    "non-0/1 adjacency before the support": (
        *_refusal_case(adjacency=_link_adjacency(float), a12=0.5, w20=3.0),
        "adjacency entries must be 0 or 1",
    ),
    "adjacency diagonal before the support": (
        *_refusal_case(adjacency=_link_adjacency(), a11=1, w20=3.0),
        "adjacency must have a zero diagonal",
    ),
    "weight diagonal before the adjacency": (
        *_refusal_case(adjacency=_link_adjacency(float), a12=0.5, w11=1.0),
        "weight matrix must have a zero diagonal",
    ),
    "nan before the adjacency": (
        *_refusal_case(adjacency=np.zeros((2, 2)), w20=np.nan), "weights must be finite"
    ),
}


@pytest.mark.parametrize("case", _REFUSALS, ids=list(_REFUSALS))
def test_every_refusal_keeps_its_message_and_precedence(case):
    weights, adjacency, message = _REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        TradeNetwork(weights, adjacency)


_HANDED_REFUSALS = {
    "nan": (_refusal_case(w12=np.nan)[0], "weights must be finite"),
    "nonzero diagonal": (_refusal_case(w22=2.0)[0], "weight matrix must have a zero diagonal"),
    "weight off the support": (
        _refusal_case(w20=3.0)[0], "weights must be zero where adjacency is zero"
    ),
    "nan off the support": (_refusal_case(w20=np.nan)[0], "weights must be finite"),
    "shape": (np.zeros((4, 4)), "adjacency shape (3, 3) != weights shape (4, 4)"),
}


@pytest.mark.parametrize("case", _HANDED_REFUSALS, ids=list(_HANDED_REFUSALS))
def test_a_network_on_a_handed_over_adjacency_checks_its_weights(case):
    # a validated network's adjacency, handed to the next network as the
    # replications of a masked ensemble hand it on: only the weights are
    # checked, with the messages of a given adjacency
    first = TradeNetwork(*_refusal_case(adjacency=_link_adjacency()))
    weights, message = _HANDED_REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        TradeNetwork(weights, first._support)
    # what it accepts it accepts as on the given adjacency, sharing it
    signed = _refusal_case(w01=-2.5)[0]
    handed = TradeNetwork(signed, first._support)
    given = TradeNetwork(signed, _link_adjacency())
    assert handed.adjacency is first.adjacency
    assert handed.adjacency.tobytes() == given.adjacency.tobytes()
    assert handed.adjacency.dtype == given.adjacency.dtype == np.int8
    assert not handed.weights.flags.writeable and not handed.adjacency.flags.writeable
    want = all_statistics(given)
    for kind, stat in all_statistics(handed).items():
        assert stat.values.tobytes() == want[kind].values.tobytes(), kind


@pytest.mark.parametrize("n", [0, 1])
def test_density_refuses_fewer_than_two_nodes(n):
    with pytest.raises(ValidationError, match="density requires at least 2 nodes"):
        density(TradeNetwork(np.zeros((n, n))))


def test_the_empty_network_is_accepted():
    # no entry to reduce over: the 0 x 0 network passes every check
    for adjacency in (None, np.zeros((0, 0), dtype=int)):
        net = TradeNetwork(np.zeros((0, 0)), adjacency)
        assert net.n == 0 and net.adjacency.shape == (0, 0)
        assert net.adjacency.dtype == np.int8


def test_unknown_kind_and_direction_rejected():
    net = TradeNetwork(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        compute_statistic(net, "XYZ_in")
    with pytest.raises(ValidationError):
        compute_statistic(net, "ND_sideways")
    with pytest.raises(ValidationError):
        compute_statistic(net, "ANND_in_in_in")


def test_unknown_kind_refused_among_known_ones():
    # the whole request is checked, and a string is refused as a string,
    # not walked one character at a time
    net = TradeNetwork(random_network(np.random.default_rng(5), n=5)[0])
    with pytest.raises(ValidationError, match="unknown statistic kind 'ND_sideways'"):
        all_statistics(net, ("ND_tot", "ND_sideways"))
    with pytest.raises(ValidationError, match="not the string 'ND_tot'"):
        all_statistics(net, "ND_tot")


def test_network_is_immutable():
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    net = TradeNetwork(w)
    with pytest.raises(ValueError):
        net.weights[0, 1] = 2.0
    with pytest.raises(ValueError):
        net.adjacency[0, 1] = 0
    with pytest.raises(AttributeError):
        net.weights = np.zeros((3, 3))

    # statistics are read-only too; on 0/1 weights NS_tot is read from
    # ND_tot, so an edit of one would otherwise corrupt the other
    for kinds in (STAT_KINDS, ("ND_tot", "NS_tot")):
        for stat in all_statistics(net, kinds).values():
            with pytest.raises(ValueError):
                stat.values[0] = 7.0
            with pytest.raises(ValueError):
                stat.defined[0] = not stat.defined[0]


def test_population_average_reports_exclusions():
    w = np.zeros((4, 4))
    w[0, 1] = w[0, 2] = 1.0  # nodes 1, 2 have suppliers; 0 and 3 do not
    net = TradeNetwork(w)
    stat = compute_statistic(net, "ANND_in_in")
    avg, n_excluded = population_average(stat)
    assert n_excluded == 2
    assert avg == 0.0  # the lone supplier has in-degree 0
    empty = TradeNetwork(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        population_average(compute_statistic(empty, "ANND_tot"))


def test_stat_correlation_behavior():
    rng = np.random.default_rng(17)
    w, _ = random_network(rng, n=8)
    net = TradeNetwork(w)
    nd_in = compute_statistic(net, "ND_in")
    assert stat_correlation(nd_in, nd_in) == pytest.approx(1.0)

    # Constant statistic: correlation undefined.
    cyc = np.zeros((3, 3))
    cyc[0, 1] = cyc[1, 2] = cyc[2, 0] = 1.0
    ring = TradeNetwork(cyc)
    with pytest.raises(ValidationError):
        stat_correlation(compute_statistic(ring, "ND_in"), compute_statistic(ring, "ND_out"))

    # Fewer than 3 jointly-defined nodes.
    w2 = np.zeros((4, 4))
    w2[0, 1] = w2[0, 2] = 1.0
    two_defined = compute_statistic(TradeNetwork(w2), "ANND_in_in")
    with pytest.raises(ValidationError):
        stat_correlation(two_defined, two_defined)


def test_undefined_entries_are_nan_and_excluded():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0  # nodes 2, 3 isolated
    net = TradeNetwork(w)
    stat = compute_statistic(net, "ANND_tot")
    assert stat.defined.tolist() == [True, True, False, False]
    assert np.isnan(stat.values[2]) and np.isnan(stat.values[3])
    avg, n_excluded = population_average(stat)
    assert avg == pytest.approx(2.0)
    assert n_excluded == 2
