import math

import numpy as np
import pytest

from gravnet.errors import ValidationError
from gravnet.netstats import (
    BINARY_KINDS,
    STAT_KINDS,
    WEIGHTED_KINDS,
    TradeNetwork,
    all_statistics,
    compute_statistic,
    density,
    population_average,
    reciprocal_degree,
    stat_correlation,
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
        for transform in ("identity", "log_positive"):
            expected = oracles.loop_statistics(w, a, transform)
            got = all_statistics(net, transform=transform)
            for kind in STAT_KINDS:
                assert_matches(got[kind], expected[kind])
        assert_matches(reciprocal_degree(net), expected["ND_recip"])
        assert abs(density(net) - expected["density"]) <= 1e-12


def test_shared_profile_matches_per_kind_calls_and_builds_weights_once(monkeypatch):
    import gravnet.netstats as netstats

    rng = np.random.default_rng(20261018)
    for _ in range(10):
        net = TradeNetwork(random_network(rng)[0])
        for transform in ("identity", "log_positive"):
            together = all_statistics(net, STAT_KINDS, transform)
            for kind in STAT_KINDS:
                alone = compute_statistic(net, kind, transform)
                assert alone.kind == kind
                np.testing.assert_array_equal(alone.values, together[kind].values)
                np.testing.assert_array_equal(alone.defined, together[kind].defined)

    calls = []
    original = netstats._transformed_weights

    def counting(net, transform):
        calls.append(transform)
        return original(net, transform)

    monkeypatch.setattr(netstats, "_transformed_weights", counting)
    all_statistics(net, STAT_KINDS, "log_positive")
    assert calls == ["log_positive"]  # shared by all 13 weighted kinds
    all_statistics(net, BINARY_KINDS, "log_positive")
    assert calls == ["log_positive"]  # binary kinds never read the weights


def test_three_cycle_known_values():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 8.0
    net = TradeNetwork(w)

    assert compute_statistic(net, "ND_in").values.tolist() == [1.0, 1.0, 1.0]
    assert compute_statistic(net, "ND_tot").values.tolist() == [2.0, 2.0, 2.0]
    assert compute_statistic(net, "NS_tot").values.tolist() == [16.0, 16.0, 16.0]
    assert reciprocal_degree(net).values.tolist() == [0.0, 0.0, 0.0]
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
    assert reciprocal_degree(net).values.tolist() == [3.0, 1.0, 1.0, 1.0]
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


def test_strength_and_degree_handshake_sums():
    rng = np.random.default_rng(13)
    w, a = random_network(rng)
    net = TradeNetwork(w)
    assert compute_statistic(net, "NS_in").values.sum() == pytest.approx(w.sum())
    assert compute_statistic(net, "NS_out").values.sum() == pytest.approx(w.sum())
    assert compute_statistic(net, "ND_tot").values.sum() == 2 * a.sum()
    assert reciprocal_degree(net).values.sum() % 2 == 0


def test_log_positive_transform_values():
    w = np.zeros((3, 3))
    w[0, 1] = math.e
    w[1, 0] = 1.0  # log 1 = 0: link survives in degrees, drops from strength
    w[2, 0] = 0.5  # negative log
    net = TradeNetwork(w)
    s_out = compute_statistic(net, "NS_out", "log_positive")
    assert s_out.values[0] == pytest.approx(1.0)
    assert s_out.values[1] == 0.0
    assert s_out.values[2] == pytest.approx(math.log(0.5))
    assert compute_statistic(net, "ND_out").values.tolist() == [1.0, 1.0, 1.0]


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


def test_unknown_kind_direction_and_transform_rejected():
    net = TradeNetwork(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        compute_statistic(net, "XYZ_in")
    with pytest.raises(ValidationError):
        compute_statistic(net, "ND_sideways")
    with pytest.raises(ValidationError):
        compute_statistic(net, "ANND_in_in_in")
    with pytest.raises(ValidationError):
        compute_statistic(net, "NS_in", "sqrt")


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
