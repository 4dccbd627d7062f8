"""Property-based tests (hypothesis) for invariants stated in docstrings."""

import csv
import dataclasses
import io
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import gravnet.panel as panel_module
from gravnet.compare import REPORT_KINDS, ensemble_summary, ks_two_sample
from gravnet.errors import ValidationError
from gravnet.estimation import EM_TOL, FitResult, fit_logit, fit_ols, fit_poisson_pml, fit_zip
from gravnet.netstats import STAT_KINDS, WEIGHT_TRANSFORMS, TradeNetwork, all_statistics
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
)
from gravnet.prediction import (
    LinkProbabilityMatrix,
    PredictedWeights,
    link_probabilities,
    predict_ols,
    predict_ppml,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    stream_bernoulli_ensemble,
    stream_weighted_ensemble,
    threshold_by_manhattan,
)
from gravnet.synth import GENERATOR_COVARIATES, SynthSpec, write_synth_panel

from oracles import loop_ensemble_summary, loop_load_panel

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
    np.testing.assert_array_equal(ppml.mask, on_rows)
    lp = link_probabilities(_layout_fit("LOGIT", theta), dm)
    np.testing.assert_array_equal(lp.xi, _placed(dm, 1.0 - expit(dm.X @ theta)))


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
