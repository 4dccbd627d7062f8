import csv
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from gravnet.errors import SchemaError, ValidationError
from gravnet.panel import (
    COUNTRY_COLUMNS,
    COUNTRY_FIELDS,
    DESIGN_COLUMNS,
    DYAD_COLUMNS,
    CrossSection,
    DesignMatrix,
    DyadPanel,
    build_cross_section,
    build_design_matrix,
    load_panel,
    read_panel,
    summary_stats,
)
from gravnet.synth import SynthSpec, write_synth_panel


def country_row(country, year, gdp=100.0, area=50.0, population=10.0,
                landlocked=0, continent=1):
    return [country, year, gdp, area, population, landlocked, continent]


def dyad_row(exporter, importer, year, flow, distance=1000.0, contig=0,
             comlang_off=0, comcol=0, colony=0, curcol=0, comrelig=0.5,
             comcur=0, gsp=0, rta=0):
    return [exporter, importer, year, flow, distance, contig, comlang_off,
            comcol, colony, curcol, comrelig, comcur, gsp, rta]


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def country_fields(panel, year, country_id):
    """One country-year row of a loaded panel, as {field: value}."""
    (row,) = np.flatnonzero(
        (panel.countries["year"] == year)
        & (panel.countries["country"] == panel.ids.index(country_id))
    )
    return {name: column[row].item() for name, column in panel.countries.items()}


def dyad_fields(panel, year, exporter, importer):
    """One dyad row of a loaded panel, as {field: value}."""
    (row,) = np.flatnonzero(
        (panel.dyads["year"] == year)
        & (panel.dyads["exporter"] == panel.ids.index(exporter))
        & (panel.dyads["importer"] == panel.ids.index(importer))
    )
    return {name: column[row].item() for name, column in panel.dyads.items()}


def cross_section(w, year=2000, countries=None, dyad_rows=None):
    """A hand-built cross-section of weight grid ``w``; every country has
    the field values 1.0, 1.0, 1.0, 0, 1 unless ``countries`` says otherwise,
    and no dyad has a panel row unless ``dyad_rows`` says otherwise."""
    n = w.shape[0]
    columns = dict(zip(COUNTRY_FIELDS, ([1.0] * n, [1.0] * n, [1.0] * n, [0] * n, [1] * n)))
    columns.update(countries or {})
    return CrossSection(
        year=year,
        country_ids=tuple(f"C{i:03d}" for i in range(n)),
        countries={name: np.array(values) for name, values in columns.items()},
        weights=w,
        adjacency=(w > 0).astype(np.int8),
        dyad_rows=np.full((n, n), -1) if dyad_rows is None else np.array(dyad_rows),
    )


@pytest.mark.parametrize("n", [0, 1])
def test_summary_stats_refuse_fewer_than_two_countries(n):
    with pytest.raises(ValidationError,
                       match="summary statistics require at least 2 countries"):
        summary_stats(cross_section(np.zeros((n, n))))


@pytest.fixture
def small_files(tmp_path):
    countries = write_csv(
        tmp_path / "countries.csv",
        COUNTRY_COLUMNS,
        [
            country_row("AAA", 2000, gdp=120.0, area=30.0, population=8.0),
            country_row("BBB", 2000, gdp=80.0, area=60.0, population=12.0,
                        landlocked=1, continent=2),
            country_row("CCC", 2000, gdp=40.0, area=90.0, population=5.0,
                        continent=3),
        ],
    )
    flows = {
        ("AAA", "BBB"): 5.0, ("BBB", "AAA"): 0.0,
        ("AAA", "CCC"): 2.5, ("CCC", "AAA"): 1.0,
        ("BBB", "CCC"): 0.0, ("CCC", "BBB"): 3.0,
    }
    dyads = write_csv(
        tmp_path / "dyads.csv",
        DYAD_COLUMNS,
        [
            dyad_row(e, i, 2000, f, distance=500.0 + 100.0 * k,
                     contig=int(k == 0), rta=int(k == 5))
            for k, ((e, i), f) in enumerate(sorted(flows.items()))
        ],
    )
    return dyads, countries, flows


def test_load_small_panel(small_files):
    dyads, countries, _ = small_files
    panel = load_panel(dyads, countries)
    assert panel.n_rows == 6
    assert panel.years == (2000,)
    in_2000 = panel.countries["country"][panel.countries["year"] == 2000]
    assert sorted(panel.ids[k] for k in in_2000) == ["AAA", "BBB", "CCC"]
    assert country_fields(panel, 2000, "BBB")["landlocked"] == 1
    assert dyad_fields(panel, 2000, "AAA", "BBB")["flow"] == 5.0


def test_column_mapping(tmp_path, small_files):
    # columns are found by their canonical header names only
    _, countries, _ = small_files
    renamed = write_csv(
        tmp_path / "renamed.csv",
        [c if c != "flow" else "trade_value" for c in DYAD_COLUMNS],
        [dyad_row("AAA", "BBB", 2000, 5.0)],
    )
    with pytest.raises(SchemaError):
        load_panel(renamed, countries)


def test_missing_column_is_schema_error(tmp_path, small_files):
    _, countries, _ = small_files
    header = [c for c in DYAD_COLUMNS if c != "distance"]
    path = write_csv(tmp_path / "short.csv", header,
                     [["AAA", "BBB", 2000, 5.0] + [0] * 9])
    with pytest.raises(SchemaError, match="distance"):
        load_panel(path, countries)


def test_row_errors_carry_line_numbers(tmp_path, small_files):
    _, countries, _ = small_files
    path = write_csv(
        tmp_path / "bad.csv",
        DYAD_COLUMNS,
        [dyad_row("AAA", "BBB", 2000, 5.0),
         dyad_row("BBB", "CCC", 2000, -1.0)],
    )
    with pytest.raises(ValidationError, match="line 3"):
        load_panel(path, countries)


@pytest.mark.parametrize("row,message", [
    (dyad_row("AAA", "AAA", 2000, 1.0), "exporter equals importer"),
    (dyad_row("AAA", "BBB", 2000, 1.0, distance=0.0), "distance"),
    (dyad_row("AAA", "BBB", 2000, 1.0, comrelig=1.5), "comrelig"),
    (dyad_row("AAA", "BBB", 2000, 1.0, contig=2), "contig"),
    (dyad_row("AAA", "BBB", "20x0", 1.0), "year"),
    (dyad_row("AAA", "BBB", 2000, "abc"), "flow"),
])
def test_dyad_validation(tmp_path, small_files, row, message):
    _, countries, _ = small_files
    path = write_csv(tmp_path / "one.csv", DYAD_COLUMNS, [row])
    with pytest.raises(ValidationError, match=message):
        load_panel(path, countries)


def test_country_validation(tmp_path, small_files):
    dyads, _, _ = small_files
    bad_gdp = write_csv(tmp_path / "c1.csv", COUNTRY_COLUMNS,
                        [country_row("AAA", 2000, gdp=0.0)])
    with pytest.raises(ValidationError, match="positive"):
        load_panel(dyads, bad_gdp)
    dup = write_csv(tmp_path / "c2.csv", COUNTRY_COLUMNS,
                    [country_row("AAA", 2000), country_row("AAA", 2000)])
    with pytest.raises(ValidationError, match="duplicate country"):
        load_panel(dyads, dup)


def test_duplicate_dyad_rejected(tmp_path, small_files):
    _, countries, _ = small_files
    path = write_csv(tmp_path / "dup.csv", DYAD_COLUMNS,
                     [dyad_row("AAA", "BBB", 2000, 1.0),
                      dyad_row("AAA", "BBB", 2000, 2.0)])
    with pytest.raises(ValidationError, match="duplicate dyad"):
        load_panel(path, countries)


def test_build_cross_section(small_files):
    dyads, countries, flows = small_files
    panel = load_panel(dyads, countries)
    cs = build_cross_section(panel, 2000)
    assert cs.country_ids == ("AAA", "BBB", "CCC")
    assert cs.weights[0, 1] == 5.0
    assert cs.weights[1, 0] == 0.0
    assert np.array_equal(cs.adjacency, (cs.weights > 0).astype(int))
    assert np.diag(cs.weights).tolist() == [0.0, 0.0, 0.0]
    assert cs.network().n == 3
    # each ordered pair's dyad row: its flow is the weight, -1 for none
    flows = panel.dyads["flow"]
    for i, j in zip(*np.nonzero(~np.eye(3, dtype=bool))):
        assert flows[cs.dyad_rows[i, j]] == cs.weights[i, j]
    assert np.diag(cs.dyad_rows).tolist() == [-1, -1, -1]
    with pytest.raises(ValidationError, match="1999"):
        build_cross_section(panel, 1999)


def test_dyad_without_country_record(tmp_path, small_files):
    _, countries, _ = small_files
    path = write_csv(tmp_path / "ghost.csv", DYAD_COLUMNS,
                     [dyad_row("AAA", "ZZZ", 2000, 1.0)])
    panel = load_panel(path, countries)
    with pytest.raises(ValidationError, match="ZZZ"):
        build_cross_section(panel, 2000)


def test_all_zero_flows(tmp_path, small_files):
    _, countries, _ = small_files
    path = write_csv(tmp_path / "zero.csv", DYAD_COLUMNS,
                     [dyad_row("AAA", "BBB", 2000, 0.0),
                      dyad_row("BBB", "AAA", 2000, 0.0)])
    panel = load_panel(path, countries)
    cs = build_cross_section(panel, 2000)
    assert cs.adjacency.sum() == 0
    stats = summary_stats(cs)
    assert stats.density == 0.0
    assert stats.avg_trade == 0.0
    assert stats.flows_50 == 0
    assert stats.countries_50 == 0
    empty = build_design_matrix(cs, panel, positive_only=True)
    assert empty.X.shape == (0, len(DESIGN_COLUMNS))
    assert empty.exporter.shape == empty.importer.shape == (0,) and empty.y.shape == (0,)


def test_design_matrix_full_and_positive(small_files):
    dyads, countries, flows = small_files
    panel = load_panel(dyads, countries)
    cs = build_cross_section(panel, 2000)

    full = build_design_matrix(cs, panel)
    assert full.columns == DESIGN_COLUMNS
    assert full.n_obs == 6
    assert full.columns.count("const") == 1
    const = full.X[:, full.columns.index("const")]
    assert np.array_equal(const, np.ones(6))

    by_row = {full.dyad(r): r for r in range(6)}
    gdp = {"AAA": 120.0, "BBB": 80.0, "CCC": 40.0}
    for (exp, imp), r in by_row.items():
        ln_gdp_i = full.X[r, full.columns.index("ln_gdp_i")]
        assert math.exp(ln_gdp_i) == pytest.approx(gdp[exp], rel=1e-12)
        ln_dist = full.X[r, full.columns.index("ln_dist")]
        record = dyad_fields(panel, 2000, exp, imp)
        assert math.exp(ln_dist) == pytest.approx(record["distance"], rel=1e-12)
        assert full.y[r] == flows[(exp, imp)]
    assert np.array_equal(full.y > 0, cs.adjacency[full.exporter, full.importer] == 1)

    positive = build_design_matrix(cs, panel, positive_only=True)
    assert positive.n_obs == int(cs.adjacency.sum()) == 4
    assert np.all(positive.y > 0)
    np.testing.assert_allclose(positive.log_flows(), np.log(positive.y))
    with pytest.raises(ValidationError, match="flow"):
        full.log_flows()


def test_design_matrix_covariate_selection(small_files):
    dyads, countries, _ = small_files
    panel = load_panel(dyads, countries)
    cs = build_cross_section(panel, 2000)
    compact = build_design_matrix(
        cs, panel, covariates=("const", "ln_gdp_i", "ln_gdp_j", "contig")
    )
    assert compact.X.shape == (6, 4)
    with pytest.raises(SchemaError, match="unknown"):
        build_design_matrix(cs, panel, covariates=("const", "gdp_ratio"))
    with pytest.raises(SchemaError, match="duplicate"):
        build_design_matrix(cs, panel, covariates=("const", "const"))
    with pytest.raises(SchemaError, match="no design column"):
        build_design_matrix(cs, panel, covariates=())


def test_design_matrix_missing_bilateral_covariates(tmp_path, small_files):
    _, countries, _ = small_files
    path = write_csv(tmp_path / "partial.csv", DYAD_COLUMNS,
                     [dyad_row("AAA", "BBB", 2000, 5.0)])
    panel = load_panel(path, countries)
    cs = build_cross_section(panel, 2000)
    with pytest.raises(ValidationError, match="bilateral"):
        build_design_matrix(cs, panel)
    country_only = build_design_matrix(
        cs, panel, covariates=("const", "ln_gdp_i", "ln_gdp_j")
    )
    assert country_only.n_obs == 6
    assert country_only.y.sum() == 5.0
    positive = build_design_matrix(cs, panel, positive_only=True)
    assert positive.n_obs == 1


def test_design_matrix_rejects_nonpositive_log_input():
    # built by hand: the loader refuses a zero gdp or distance
    w = np.zeros((2, 2))
    panel = DyadPanel(ids=("C000", "C001"), countries={},
                      dyads={"distance": np.zeros(2)})
    cs_bad = cross_section(w, countries={"gdp": [-1.0, 1.0]})
    with pytest.raises(ValidationError, match="ln_gdp"):
        build_design_matrix(cs_bad, panel,
                            covariates=("const", "ln_gdp_i"))

    cs = cross_section(w, dyad_rows=[[-1, 0], [1, -1]])
    with pytest.raises(ValidationError, match="ln_dist"):
        build_design_matrix(cs, panel,
                            covariates=("const", "ln_dist"))


@pytest.fixture(scope="module")
def synth_cross_section(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_panel")
    paths = write_synth_panel(
        SynthSpec(n_countries=12, years=(2000,), noise="zip", seed=4), str(out)
    )
    panel = load_panel(paths["dyads"], paths["countries"])
    records = oracles.loop_load_panel(paths["dyads"], paths["countries"])
    return panel, build_cross_section(panel, 2000), records


@pytest.mark.parametrize("positive_only", [False, True])
@pytest.mark.parametrize(
    "columns",
    [DESIGN_COLUMNS, ("rta", "const", "ln_dist", "continent_j", "ln_pop_i")],
)
def test_design_matrix_matches_loop_oracle(synth_cross_section, columns,
                                           positive_only):
    panel, cs, records = synth_cross_section
    dm = build_design_matrix(cs, panel, columns, positive_only=positive_only)
    countries = tuple(records.countries[2000][cid] for cid in cs.country_ids)
    rows, X, y = oracles.loop_design_matrix(
        countries, cs.weights.tolist(), records.dyads[2000], columns,
        positive_only,
    )
    assert 0 < len(rows) and (len(rows) < cs.n * (cs.n - 1)) == positive_only
    assert dm.columns == columns
    assert tuple(map(dm.dyad, range(dm.n_obs))) == tuple(rows)
    np.testing.assert_array_equal(dm.y, y)
    assert dm.X.shape == (len(rows), len(columns))
    for k, column in enumerate(columns):
        want = np.array([values[k] for values in X])
        if column.startswith("ln_"):
            np.testing.assert_array_max_ulp(dm.X[:, k], want, maxulp=1)
        else:
            np.testing.assert_array_equal(dm.X[:, k], want)


def test_summary_density_1970_level():
    n, links = 129, 6583
    rng = np.random.default_rng(1970)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = rng.choice(len(positions), size=links, replace=False)
    w = np.zeros((n, n))
    for idx in chosen:
        i, j = positions[idx]
        w[i, j] = rng.uniform(1.0, 100.0)
    cs = cross_section(w, year=1970)
    stats = summary_stats(cs)
    assert stats.n_flows == links
    assert round(stats.density, 4) == 0.3987
    assert f"{stats.density:.2f}" == "0.40"
    assert stats.avg_trade == pytest.approx(w.sum() / links)


def brute_minimal_count(values, share):
    total = sum(values)
    if total <= 0:
        return 0
    target = share * total
    for k in range(len(values) + 1):
        best = max(
            (sum(combo) for combo in itertools.combinations(values, k)),
            default=0.0,
        )
        if best >= target:
            return k
    return len(values)


def test_concentration_counts_match_subset_scan():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = 4
        w = np.where(rng.random((n, n)) < 0.6,
                     rng.uniform(0.5, 20.0, (n, n)), 0.0)
        np.fill_diagonal(w, 0.0)
        if not (w > 0).any():
            continue
        cs = cross_section(w)
        stats = summary_stats(cs)
        flows = sorted(w[w > 0].tolist(), reverse=True)
        totals = (w.sum(axis=0) + w.sum(axis=1)).tolist()
        assert stats.flows_50 == brute_minimal_count(flows, 0.5)
        assert stats.flows_90 == brute_minimal_count(flows, 0.9)
        assert stats.countries_50 == brute_minimal_count(totals, 0.5)
        assert stats.countries_90 == brute_minimal_count(totals, 0.9)


def test_concentration_trivial_complete_network():
    w = np.ones((3, 3))
    np.fill_diagonal(w, 0.0)
    cs = cross_section(w)
    stats = summary_stats(cs)
    assert stats.density == 1.0
    assert stats.flows_50 == 3
    assert stats.avg_trade == 1.0
    assert stats.pct_flows_50 == pytest.approx(50.0)


def test_whitespace_country_id_is_empty(tmp_path, small_files):
    dyads, _, _ = small_files
    path = write_csv(tmp_path / "blank_id.csv", COUNTRY_COLUMNS,
                     [country_row("AAA", 2000), country_row("   ", 2000)])
    for load in (load_panel, oracles.loop_load_panel):
        with pytest.raises(ValidationError, match="line 3: empty country id"):
            load(dyads, path)


def test_integer_outside_int64_is_not_an_integer(tmp_path, small_files):
    # the record loader kept Python ints of any size; the columns are int64
    _, countries, _ = small_files
    path = write_csv(tmp_path / "huge.csv", DYAD_COLUMNS,
                     [dyad_row("AAA", "BBB", 2000, 1.0, rta=2**63)])
    with pytest.raises(ValidationError,
                       match=f"line 2: column 'rta' is not an integer: '{2**63}'"):
        load_panel(path, countries)


def test_blank_and_multiline_rows_keep_physical_line_numbers(tmp_path, small_files):
    _, countries, _ = small_files

    def write(rows):
        path = tmp_path / "spread.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(DYAD_COLUMNS)
            for row in rows:
                fh.write("\n")
                writer.writerow(row)
        return str(path)

    # a quoted flow spans lines 3-4; blank lines 2 and 5 are skipped
    good = dyad_row("AAA", "BBB", 2000, "2.5\n")
    panel = load_panel(write([good]), countries)
    assert panel.dyads["flow"].tolist() == [2.5]
    bad = dyad_row("BBB", "AAA", 2000, -1.0)
    with pytest.raises(ValidationError, match="line 6: negative flow -1.0"):
        load_panel(write([good, bad]), countries)


def test_load_panel_peak_memory_is_below_the_record_loader(tmp_path):
    paths = write_synth_panel(
        SynthSpec(n_countries=150, years=(2000,), noise="zip", seed=5), str(tmp_path)
    )

    def peak(load):
        gc.collect()
        tracemalloc.start()
        try:
            load(paths["dyads"], paths["countries"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(load_panel) <= peak(oracles.loop_load_panel)


def test_a_panel_cache_read_holds_one_copy_of_the_cache(tmp_path):
    """The cache's bytes are read into one buffer and the columns view it,
    so the read's traced peak is the cache's size and a small header."""
    paths = write_synth_panel(
        SynthSpec(n_countries=60, years=(1999, 2000), noise="zip", seed=5), str(tmp_path)
    )
    cache = str(tmp_path / "panel.cache")
    parsed, _, copy = read_panel(paths["dyads"], paths["countries"], cache)
    with open(cache, "wb") as handle:
        handle.write(copy)
    gc.collect()
    tracemalloc.start()
    try:
        panel, source, _ = read_panel(paths["dyads"], paths["countries"], cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert source["cached"] is True
    assert peak <= 1.2 * len(copy), (peak, len(copy))
    for table in ("countries", "dyads"):
        for name, column in getattr(parsed, table).items():
            got = getattr(panel, table)[name]
            assert got.tobytes() == column.tobytes() and got.dtype == column.dtype, name
            assert got.flags.writeable, name  # as a parse leaves it
            assert got.flags.aligned, name


def test_a_design_matrix_freezes_its_regressors_and_response(small_files):
    dyads, countries, _ = small_files
    panel = load_panel(dyads, countries)
    full = build_design_matrix(build_cross_section(panel, 2000), panel)
    X, y = np.array(full.X), np.array(full.y)
    again = DesignMatrix(country_ids=full.country_ids, exporter=full.exporter,
                         importer=full.importer, columns=full.columns, X=X, y=y)
    for dm in (full, again):
        for array in (dm.X, dm.y):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def _outcome(load, dyads, countries):
    try:
        load(dyads, countries)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", ["countries", "dyads"])
def test_short_and_garbage_rows_fail_like_the_record_loader(tmp_path, small_files, name):
    # each prefix of a valid row leaves its remaining fields missing, so the
    # first missing field in reading order is the one reported
    dyads, countries, _ = small_files
    header, row = {
        "countries": (COUNTRY_COLUMNS, country_row("DDD", 2000)),
        "dyads": (DYAD_COLUMNS, dyad_row("AAA", "CCC", 1999, 1.0)),
    }[name]
    bad_rows = [row[:k] for k in range(len(row))] + [["x"] * len(row), ["2"] * len(row)]
    for bad in bad_rows:
        path = write_csv(tmp_path / "bad.csv", header, [row, bad])
        files = {"dyads": dyads, "countries": countries, name: path}
        want = _outcome(oracles.loop_load_panel, files["dyads"], files["countries"])
        assert _outcome(load_panel, files["dyads"], files["countries"]) == want, bad
