"""End-to-end tests for the command-line pipeline.

Commands run in-process through ``main`` so exit codes are return
values.  Panels come from the synthetic generator; sampling budgets are
kept small since the statistical behaviour of each stage is covered by
the per-module tests.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import gravnet.cli
from gravnet.cli import (
    DEFAULT_TRANSFORMS,
    EXIT_CONVERGENCE,
    EXIT_DEPENDENCY,
    EXIT_OK,
    EXIT_VALIDATION,
    LOG_NAME,
    MANIFEST_LOCK_NAME,
    MANIFEST_NAME,
    MODEL_TAGS,
    RunConfig,
    _fit_one,
    _hash_file,
    _record_artifacts,
    _report_tables,
    cell_seed,
    load_config,
    main,
)
from gravnet.compare import (
    ComparisonReport,
    CorrelationComparison,
    EnsembleSummary,
    KsResult,
    StatComparison,
    report_as_dict,
    report_from_dict,
)
from gravnet.errors import SingularDesignError, ValidationError
from gravnet.estimation import fit_from_dict, fit_poisson_pml
from gravnet.netstats import compute_statistic, density, population_average
from gravnet.panel import (
    DESIGN_COLUMNS,
    build_cross_section,
    build_design_matrix,
    load_panel,
)
from gravnet.prediction import DEFAULT_REPLICATIONS, predict_ppml
from gravnet.synth import SynthSpec, _render, write_synth_panel

from oracles import loop_report_rows

COVARIATES = ("const", "ln_gdp_i", "ln_gdp_j", "ln_dist", "contig", "rta")


@pytest.fixture(scope="module")
def zip_panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("zip_panel")
    spec = SynthSpec(n_countries=16, years=(1995, 2000), noise="zip", seed=11)
    return write_synth_panel(spec, str(out))


@pytest.fixture(scope="module")
def lognormal_panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("lognormal_panel")
    spec = SynthSpec(
        n_countries=16,
        years=(1994, 1995, 1996, 1997, 1998, 1999, 2000),
        noise="lognormal",
        seed=12,
    )
    return write_synth_panel(spec, str(out))


def write_config(path, panel_paths, out, **extra):
    payload = {
        "dyads": panel_paths["dyads"],
        "countries": panel_paths["countries"],
        "out": str(out),
        "covariates": list(COVARIATES),
        "replications": 40,
        "seed": 5,
    }
    payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


def run_pipeline(config_path, commands=("fit", "predict", "netstats", "compare", "report")):
    for command in commands:
        code = main([command, "--config", config_path])
        assert code == EXIT_OK, f"command {command} exited {code}"


# ---------------------------------------------------------------------------
# configuration


def test_config_precedence(tmp_path, zip_panel):
    cfg_path = write_config(
        tmp_path / "cfg.json", zip_panel, tmp_path / "out", seed=1, years=[1995]
    )
    cfg = load_config(cfg_path, {"seed": 2, "models": None})
    assert cfg.seed == 2
    assert cfg.years == (1995,)
    assert cfg.models == MODEL_TAGS
    assert cfg.replications == 40
    assert cfg.transforms == DEFAULT_TRANSFORMS


def test_config_defaults(zip_panel, tmp_path):
    cfg = RunConfig(zip_panel["dyads"], zip_panel["countries"], str(tmp_path))
    assert cfg.years == ()
    assert cfg.models == MODEL_TAGS
    assert cfg.covariates == DESIGN_COLUMNS
    assert cfg.replications == DEFAULT_REPLICATIONS
    assert cfg.transforms["OLS"] == "log_positive"
    assert cfg.transforms["PPML"] == "identity"


def test_config_validation(zip_panel, tmp_path):
    good = dict(
        dyads=zip_panel["dyads"], countries=zip_panel["countries"], out=str(tmp_path)
    )
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "models": ()})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "models": ("OLS", "GRAVITY")})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "replications": 0})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "seed": -1})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "seed": 2**63})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "covariates": ("const", "ln_price")})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "covariates": ("const", "const")})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "transforms": {"OLS": "sqrt"}})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "transforms": {"GRAVITY": "identity"}})
    with pytest.raises(ValidationError):
        RunConfig(**{**good, "dyads": str(tmp_path / "nope.csv")})


@pytest.mark.parametrize("name,value", [
    pytest.param("years", ["x"], id="years-string-entry"),
    pytest.param("years", 2000, id="years-2000"),
    pytest.param("years", [True], id="years-bool-entry"),
    pytest.param("years", [2000, 2000], id="years-duplicate"),
    pytest.param("models", "PPML", id="models-PPML"),
    pytest.param("covariates", "const", id="covariates-const"),
    pytest.param("replications", "many", id="replications-many"),
    pytest.param("replications", 1.5, id="replications-1.5"),
    pytest.param("replications", True, id="replications-True"),
    pytest.param("replications", 1, id="replications-1"),
    pytest.param("seed", "7", id="seed-7"),
    pytest.param("seed", 1.5, id="seed-1.5"),
    pytest.param("transforms", ["x"], id="transforms-not-an-object"),
])
def test_malformed_config_value_exits_2_naming_the_field(
    zip_panel, tmp_path, capsys, name, value
):
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", **{name: value})
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert f"config field {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_errors(zip_panel, tmp_path):
    with pytest.raises(ValidationError):
        load_config(str(tmp_path / "missing.json"), None)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        load_config(str(bad), None)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"dyads": zip_panel["dyads"], "bogus": 1}))
    with pytest.raises(ValidationError):
        load_config(str(unknown), None)
    with pytest.raises(ValidationError):
        load_config(None, {"dyads": zip_panel["dyads"]})


def test_cell_seed_coordinates():
    assert cell_seed(0, 2000, "OLS") == 2000 * 1009 + 1
    assert cell_seed(3, 1995, "ZIP") == 3 * 1_000_003 + 1995 * 1009 + 3
    cells = {
        cell_seed(5, year, tag) for year in (1990, 1995, 2000) for tag in MODEL_TAGS
    }
    assert len(cells) == 12
    # independent of everything but the cell's own coordinates
    assert cell_seed(5, 1995, "PPML") == cell_seed(5, 1995, "PPML")


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_one_file_per_year_model(lognormal_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", lognormal_panel, out, models=["OLS"])
    assert main(["fit", "--config", cfg]) == EXIT_OK
    fit_files = sorted(out.glob("*/OLS/fit.json"))
    assert len(fit_files) == 7
    assert len(sorted(out.glob("*/coefficients.csv"))) == 7
    payload = json.loads(fit_files[0].read_text())
    assert payload["model"] == "OLS"
    assert [row["name"] for row in payload["coefficients"]] == list(COVARIATES)


def test_zip_on_zero_free_panel_fails_cleanly(lognormal_panel, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", lognormal_panel, tmp_path / "out", models=["ZIP"]
    )
    code = main(["fit", "--config", cfg])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "model ZIP" in err
    # nothing half-written: no fit artifacts, no manifest entries
    assert list((tmp_path / "out").glob("*/ZIP/fit.json")) == []


def test_fit_error_keeps_its_type_and_names_the_cell(zip_panel):
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, COVARIATES)
    # a duplicated regressor makes the design rank deficient
    X = np.column_stack([dm.X, dm.X[:, 1]])
    collinear = replace(dm, X=X, columns=dm.columns + ("ln_gdp_i_copy",))
    with pytest.raises(SingularDesignError) as info:
        _fit_one("PPML", 2000, None, collinear)
    assert info.value.columns
    assert str(info.value).startswith("year 2000 model PPML: ")


def test_fit_artifact_reloads_to_the_same_fit(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["PPML"], years=[2000]
    )
    assert main(["fit", "--config", cfg]) == EXIT_OK
    payload = json.loads((out / "2000" / "PPML" / "fit.json").read_text())
    loaded = fit_from_dict(payload)

    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, COVARIATES)
    refit = fit_poisson_pml(dm)
    np.testing.assert_array_equal(loaded.coefficients, refit.coefficients)
    np.testing.assert_array_equal(loaded.vcov, refit.vcov)
    assert loaded.loglik == refit.loglik
    assert loaded.names == refit.names


def test_vuong_attached_when_both_count_models_fit(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["PPML", "ZIP"], years=[2000]
    )
    assert main(["fit", "--config", cfg]) == EXIT_OK
    payload = json.loads((out / "2000" / "ZIP" / "fit.json").read_text())
    assert np.isfinite(payload["vuong_vs_poisson"])
    table = (out / "2000" / "coefficients.csv").read_text()
    assert "vuong_z" in table
    assert table.splitlines()[0] == "regressor,PPML,ZIP_poisson,ZIP_logit"


def test_cli_models_flag_overrides_config(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["OLS", "PPML"], years=[2000]
    )
    assert main(["fit", "--config", cfg, "--models", "OLS"]) == EXIT_OK
    assert (out / "2000" / "OLS" / "fit.json").is_file()
    assert not (out / "2000" / "PPML").exists()


def test_unknown_year_is_a_validation_error(zip_panel, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out")
    assert main(["fit", "--config", cfg, "--years", "1900"]) == EXIT_VALIDATION
    assert "1900" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stage dependencies


def test_each_stage_names_its_missing_producer(zip_panel, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, years=[1995])
    for command, producer in (
        ("predict", "fit"),
        ("netstats", "predict"),
        ("compare", "predict"),
        ("report", "compare"),
    ):
        code = main([command, "--config", cfg])
        assert code == EXIT_DEPENDENCY, command
        assert f"gravnet {producer}" in capsys.readouterr().err
    # a command that refuses to run leaves nothing behind
    assert list(out.rglob("*")) == []


def test_stages_need_only_the_predict_artifacts_they_read(zip_panel, tmp_path, capsys):
    base = tmp_path / "base"
    run_pipeline(write_config(tmp_path / "base.json", zip_panel, base, years=[2000]),
                 ("fit", "predict"))

    def copy_without(name, rel):
        out = tmp_path / name
        shutil.copytree(base, out)
        if rel is not None:
            (out / rel).unlink()
        return write_config(tmp_path / f"{name}.json", zip_panel, out, years=[2000])

    # netstats and compare read the ZIP cell's predicted weights, not its
    # thresholded adjacency
    for name, rel in (("whole", None), ("cut", "2000/ZIP/binary.json")):
        run_pipeline(copy_without(name, rel), ("netstats", "compare"))
    want = output_tree(tmp_path / "whole")
    del want[os.path.join("2000", "ZIP", "binary.json")]
    assert output_tree(tmp_path / "cut") == want

    # the logit's point network is its adjacency; only its ensemble reads xi
    cfg = copy_without("no_xi", "2000/LOGIT/xi.json")
    assert main(["netstats", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == EXIT_DEPENDENCY
    assert "missing artifact 2000/LOGIT/xi.json" in capsys.readouterr().err


def test_tampered_artifact_is_rejected(zip_panel, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["PPML"], years=[1995]
    )
    assert main(["fit", "--config", cfg]) == EXIT_OK
    target = out / "1995" / "PPML" / "fit.json"
    payload = json.loads(target.read_text())
    payload["diagnostics"]["loglik"] = 0.0
    target.write_text(json.dumps(payload))
    assert main(["predict", "--config", cfg]) == EXIT_DEPENDENCY
    assert "does not match the manifest" in capsys.readouterr().err


def test_refused_stage_leaves_nothing_behind(zip_panel, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["OLS", "PPML"], years=[1995, 2000]
    )
    assert main(["fit", "--config", cfg]) == EXIT_OK
    manifest = (out / MANIFEST_NAME).read_bytes()
    listing = sorted(out.rglob("*"))
    # the last cell's input: a stage that verified each input only as it
    # read it would already have written every earlier cell
    target = out / "2000" / "PPML" / "fit.json"
    target.write_bytes(target.read_bytes() + b" ")
    assert main(["predict", "--config", cfg]) == EXIT_DEPENDENCY
    assert "2000/PPML/fit.json does not match the manifest" in capsys.readouterr().err
    assert list(out.glob("1995/*/prediction.json")) == []
    assert sorted(out.rglob("*")) == listing
    records = [json.loads(line) for line in (out / LOG_NAME).read_text().splitlines()]
    assert "predict" not in {r["command"] for r in records}
    assert (out / MANIFEST_NAME).read_bytes() == manifest


def test_predict_calls_layer_functions_through_module_names(zip_panel, tmp_path, monkeypatch):
    # a tracer rebinds these names on gravnet.cli; a call through a reference
    # captured at import time would bypass it
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    assert main(["fit", "--config", cfg]) == EXIT_OK
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("predict_ols", "predict_ppml", "predict_zip", "link_probabilities"):
        monkeypatch.setattr(gravnet.cli, name, counting(name, getattr(gravnet.cli, name)))
    assert main(["predict", "--config", cfg]) == EXIT_OK
    # one call per cell over two years; ZIP and LOGIT both need link probabilities
    assert calls == {
        "predict_ols": 2, "predict_ppml": 2, "predict_zip": 2, "link_probabilities": 4,
    }


def test_concurrent_manifest_records_keep_every_entry(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    n_threads, per_thread = 4, 25
    for t in range(n_threads):
        for k in range(per_thread):
            (out / f"t{t}-{k}.txt").write_text(f"{t} {k}\n")
    start = threading.Barrier(n_threads)
    errors = []

    def record(t):
        try:
            start.wait(timeout=30)
            for k in range(per_thread):
                _record_artifacts(str(out), [f"t{t}-{k}.txt"])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=record, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    manifest = json.loads((out / MANIFEST_NAME).read_text())["artifacts"]
    assert set(manifest) == {
        f"t{t}-{k}.txt" for t in range(n_threads) for k in range(per_thread)
    }
    for rel, digest in manifest.items():
        assert _hash_file(str(out / rel)) == digest


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_artifacts_and_manifest(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    run_pipeline(cfg)

    for year in (1995, 2000):
        assert (out / str(year) / "observed_stats.csv").is_file()
        for tag in MODEL_TAGS:
            cell = out / str(year) / tag
            assert (cell / "fit.json").is_file()
            assert (cell / "node_stats.csv").is_file()
            assert (cell / "report.json").is_file()
            if tag == "LOGIT":
                assert (cell / "xi.json").is_file()
                assert (cell / "binary.json").is_file()
                assert not (cell / "prediction.json").exists()
            else:
                assert (cell / "prediction.json").is_file()
    for name in ("ks_tests.csv", "averages.csv", "correlations.csv", "summary.csv"):
        assert (out / name).is_file()

    manifest = json.loads((out / MANIFEST_NAME).read_text())["artifacts"]
    assert LOG_NAME not in manifest
    for rel, digest in manifest.items():
        assert _hash_file(os.path.join(str(out), *rel.split("/"))) == digest
    # every artifact on disk is accounted for
    on_disk = {
        os.path.relpath(os.path.join(root, name), out).replace(os.sep, "/")
        for root, _, names in os.walk(out)
        for name in names
        if name not in (MANIFEST_NAME, MANIFEST_LOCK_NAME, LOG_NAME)
    }
    assert on_disk == set(manifest)

    ks = (out / "ks_tests.csv").read_text().splitlines()
    assert ks[0] == "year,model,kind,d_statistic,p_value,n_observed,n_predicted"
    assert len(ks) == 1 + 2 * 4 * 6  # years x models x report kinds
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert summary[0].startswith("year,n_countries,n_flows,density")

    log_lines = (out / LOG_NAME).read_text().splitlines()
    records = [json.loads(line) for line in log_lines]
    assert all("ts" in r and "command" in r and "message" in r for r in records)
    # every record carries the wall time of its work and the peak RSS so far
    for r in records:
        for name in ("duration_s", "peak_rss_mb"):
            assert isinstance(r[name], float), (name, r)
            assert math.isfinite(r[name]) and r[name] > 0.0, (name, r)
    assert {r["command"] for r in records} == {
        "fit", "predict", "netstats", "compare", "report",
    }
    # each fit cell logs the iterations its fit.json records; ZIP also
    # logs its Vuong statistic against PPML
    fit = [r for r in records if r["command"] == "fit"]
    assert len(fit) == 2 * 4
    for r in fit:
        payload = json.loads((out / str(r["year"]) / r["model"] / "fit.json").read_text())
        if r["model"] == "ZIP":
            assert r["iterations"] == payload["poisson_part"]["diagnostics"]["iterations"] > 0
            assert r["vuong_z"] == payload["vuong_vs_poisson"]
        else:
            assert r["iterations"] == payload["diagnostics"]["iterations"]
            assert "vuong_z" not in r
    # each compare cell logs its dropped replications per reported kind,
    # read from the summaries of the report it wrote
    compare = [r for r in records if r["command"] == "compare"]
    assert len(compare) == 2 * 4
    for r in compare:
        report = json.loads((out / str(r["year"]) / r["model"] / "report.json").read_text())
        assert r["n_dropped"] == {
            s["kind"]: s["ensemble"]["n_dropped"] for s in report["statistics"]
        }


def output_tree(out) -> dict:
    """Relative path -> bytes of every file under ``out`` but the run log."""
    tree = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name == LOG_NAME:
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, out)] = handle.read()
    return tree


def test_pipeline_reruns_byte_identical(zip_panel, tmp_path):
    trees = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = write_config(tmp_path / f"cfg_{run}.json", zip_panel, out, years=[2000])
        run_pipeline(cfg)
        trees.append(output_tree(out))
    assert trees[0].keys() == trees[1].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], f"{rel} differs between runs"


def rendered(rows) -> list:
    """Rows as the CSV writer spells their cells."""
    return [[_render(value) for value in row] for row in rows]


def test_report_csvs_match_the_dict_walking_oracle(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, years=[2000], replications=10)
    run_pipeline(cfg)
    cases = [
        (2000, json.loads((out / "2000" / tag / "report.json").read_text()))
        for tag in MODEL_TAGS
    ]
    # what ``gravnet report`` wrote is the oracle's rows, cell after cell
    written = {}
    for year, payload in cases:
        headers, tables = loop_report_rows(year, payload)
        for name, header, rows in zip(("ks_tests", "averages", "correlations"), headers, tables):
            written.setdefault(name, [list(header)]).extend(rendered(r.values() for r in rows))
    for name, want in written.items():
        got = list(csv.reader(io.StringIO((out / f"{name}.csv").read_text())))
        assert got == want, name


def test_report_tables_of_a_decoded_report_match_the_oracle():
    # a statistic without an ensemble and a correlation that is undefined
    ks = KsResult(0.25, 0.5, 8, 7)
    summary = EnsembleSummary("NS_tot", 1.5, 0.1, 1.25, 1.75, 1.3, 1.7, 9, 1)
    report = ComparisonReport(
        1999,
        8,
        (
            StatComparison("PPML", "ND_tot", 3.0, 2.5, None, ks),
            StatComparison("PPML", "NS_tot", -0.0, 1.0, summary, ks),
        ),
        (CorrelationComparison("PPML", "ND_tot", "BCC_tot", math.nan, 0.5),),
    )
    payload = json.loads(json.dumps(report_as_dict(report)))
    _, tables = loop_report_rows(1999, payload)
    typed = _report_tables([(1999, report_from_dict(payload))])
    for rows, want in zip(typed, tables):
        assert rendered(rows) == rendered(r.values() for r in want)
    assert typed[1][0][-3:] == (None, None, None)
    assert rendered(typed[2]) == [["1999", "PPML", "ND_tot", "BCC_tot", "nan", "0.5"]]


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    """A non-ASCII country id writes the same bytes under an ASCII locale."""
    spec = SynthSpec(n_countries=8, years=(2000,), noise="zip", seed=11)
    panel = write_synth_panel(spec, str(tmp_path / "panel"))
    for name in ("dyads", "countries"):
        with open(panel[name], encoding="utf-8", newline="") as handle:
            text = handle.read().replace("C001", "C\u00f4te")
        with open(panel[name], "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    src = os.path.dirname(os.path.dirname(gravnet.cli.__file__))
    entry = "import sys; from gravnet.cli import main; sys.exit(main())"
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    trees = []
    for run, locale in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ascii_locale)):
        env = {**os.environ, "PYTHONPATH": src, **locale}
        for command in ("fit", "predict", "netstats"):
            done = subprocess.run(
                [sys.executable, "-c", entry, command,
                 "--dyads", panel["dyads"], "--countries", panel["countries"],
                 "--out", str(tmp_path / run), "--covariates", ",".join(COVARIATES)],
                env=env, capture_output=True,
            )
            assert done.returncode == EXIT_OK, (run, command, done.stderr.decode(errors="replace"))
        trees.append(output_tree(tmp_path / run))
    assert "C\u00f4te".encode("utf-8") in trees[0][os.path.join("2000", "observed_stats.csv")]
    assert trees[0] == trees[1]


def test_stages_without_scipy_work_do_not_import_it(tmp_path):
    """`import gravnet`, `netstats`, `report` and a non-zip `synth` never
    load scipy."""
    spec = SynthSpec(n_countries=8, years=(2000,), noise="zip", seed=11)
    panel = write_synth_panel(spec, str(tmp_path / "panel"))
    args = ["--dyads", panel["dyads"], "--countries", panel["countries"],
            "--out", str(tmp_path / "out"), "--covariates", ",".join(COVARIATES),
            "--replications", "20"]
    for command in ("fit", "predict", "netstats", "compare", "report"):
        assert main([command, *args]) == EXIT_OK, command
    src = os.path.dirname(os.path.dirname(gravnet.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    stages = (
        "import sys; from gravnet.cli import main\n"
        "codes = [main([command, *sys.argv[1:]]) for command in ('netstats', 'report')]\n"
        f"print(codes); {loaded}"
    )
    synth = (
        "import sys; from gravnet.cli import main\n"
        f"print(main(['synth', *sys.argv[1:]])); {loaded}"
    )
    runs = [(f"import sys, gravnet; {loaded}", args, ["[]"]),
            (stages, args, [f"[{EXIT_OK}, {EXIT_OK}]", "[]"])]
    for noise in ("poisson", "lognormal"):
        synth_args = ["--out", str(tmp_path / noise), "--n-countries", "6", "--noise", noise]
        runs.append((synth, synth_args, [f"{EXIT_OK}", "[]"]))
    # the stages print progress first; the script's own lines come last
    for script, argv, want in runs:
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-len(want):] == want


def test_prediction_artifact_roundtrips_exactly(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["PPML"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "PPML" / "prediction.json").read_text())

    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, COVARIATES)
    pred = predict_ppml(fit_poisson_pml(dm), dm)
    assert tuple(payload["country_ids"]) == cs.country_ids
    np.testing.assert_array_equal(np.array(payload["value"]), pred.value)
    np.testing.assert_array_equal(np.array(payload["variance"]), pred.variance)
    np.testing.assert_array_equal(np.array(payload["mask"]), pred.mask)


def test_ols_cell_network_keeps_observed_structure(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["OLS"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "OLS" / "prediction.json").read_text())
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    np.testing.assert_array_equal(np.array(payload["mask"]), cs.adjacency)


def test_binary_artifact_realized_density(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["LOGIT"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "LOGIT" / "binary.json").read_text())
    a = np.array(payload["adjacency"])
    n = a.shape[0]
    assert payload["density_induced"]["realized_density"] == a.sum() / (n * (n - 1))
    # the observed density is stored once, as the density-induced threshold
    assert "observed_density" not in payload
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    rho = density(build_cross_section(panel, 2000).network())
    assert payload["density_induced"]["threshold"] == rho
    # the rank-matched variant hits the target count by construction
    pairs = n * (n - 1)
    want = round(rho * pairs) / pairs
    assert abs(payload["matched_density"]["realized_density"] - want) < 1e-12
    assert payload["manhattan"]["distance"] >= 0


def test_logit_observed_side_uses_configured_transform(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["LOGIT"], years=[2000],
        transforms={"LOGIT": "log_positive"},
    )
    run_pipeline(cfg, commands=("fit", "predict", "compare"))
    report = json.loads((out / "2000" / "LOGIT" / "report.json").read_text())
    (ns_tot,) = [s for s in report["statistics"] if s["kind"] == "NS_tot"]

    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    observed = build_cross_section(panel, 2000).network()
    want, _ = population_average(compute_statistic(observed, "NS_tot", "log_positive"))
    assert ns_tot["observed_avg"] == want


def test_synth_command_writes_panel_and_manifest(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--n-countries",
            "8",
            "--years",
            "1990,1991",
            "--noise",
            "poisson",
            "--seed",
            "9",
        ]
    )
    assert code == EXIT_OK
    for name in ("dyads.csv", "countries.csv", "truth.json"):
        assert (out / name).is_file()
    manifest = json.loads((out / MANIFEST_NAME).read_text())["artifacts"]
    assert set(manifest) == {"dyads.csv", "countries.csv", "truth.json"}
    truth = json.loads((out / "truth.json").read_text())
    assert truth["noise"] == "poisson"
    assert sorted(truth["years"]) == ["1990", "1991"]
