"""End-to-end tests for the command-line pipeline.

Commands run in-process through ``main`` so exit codes are return
values.  Panels come from the synthetic generator; sampling budgets are
kept small since the statistical behaviour of each stage is covered by
the per-module tests.
"""

import argparse
import collections
import csv
import ctypes
import io
import json
import math
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import gravnet.cli
import gravnet.synth
from gravnet.cli import (
    EXIT_CONVERGENCE,
    EXIT_DEPENDENCY,
    EXIT_OK,
    EXIT_VALIDATION,
    LOG_NAME,
    MANIFEST_LOCK_NAME,
    MANIFEST_NAME,
    MODEL_TAGS,
    MODELS,
    PANEL_CACHE_NAME,
    RunConfig,
    _cell,
    _hash_file,
    _record_artifacts,
    _report_tables,
    cell_seed,
    load_config,
    main,
)
from gravnet.compare import (
    CORRELATION_PAIRS,
    REPORT_KINDS,
    ComparisonReport,
    CorrelationComparison,
    EnsembleSummary,
    KsResult,
    StatComparison,
    report_as_dict,
    report_from_dict,
)
from gravnet.errors import (
    DependencyError,
    SeparationError,
    SingularDesignError,
    ValidationError,
)
from gravnet.estimation import fit_from_dict, fit_poisson_pml
from gravnet.netstats import (
    BINARY_KINDS,
    SCALES,
    WEIGHTED_KINDS,
    compute_statistic,
    density,
    population_average,
)
from gravnet.panel import (
    DESIGN_COLUMNS,
    build_cross_section,
    build_design_matrix,
    load_panel,
)
from gravnet.prediction import (
    DEFAULT_REPLICATIONS,
    LinkProbabilityMatrix,
    PredictedWeights,
    binary_from_dict,
    predict_ppml,
)
from gravnet.synth import SynthSpec, _write_json, write_synth_panel

from oracles import _render, loop_report_rows

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


def test_config_defaults(zip_panel, tmp_path):
    cfg = RunConfig(zip_panel["dyads"], zip_panel["countries"], str(tmp_path))
    assert cfg.years == ()
    assert cfg.models == MODEL_TAGS
    assert cfg.covariates == DESIGN_COLUMNS
    assert cfg.replications == DEFAULT_REPLICATIONS


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
        RunConfig(**{**good, "dyads": str(tmp_path / "nope.csv")})


@pytest.mark.parametrize("name,value", [
    pytest.param("years", ["x"], id="years-string-entry"),
    pytest.param("years", 2000, id="years-2000"),
    pytest.param("years", [True], id="years-bool-entry"),
    pytest.param("years", [2000, 2000], id="years-duplicate"),
    pytest.param("models", "PPML", id="models-PPML"),
    pytest.param("models", ["OLS", "OLS"], id="models-duplicate"),
    pytest.param("covariates", "const", id="covariates-const"),
    pytest.param("replications", "many", id="replications-many"),
    pytest.param("replications", 1.5, id="replications-1.5"),
    pytest.param("replications", True, id="replications-True"),
    pytest.param("replications", 1, id="replications-1"),
    pytest.param("seed", "7", id="seed-7"),
    pytest.param("seed", 1.5, id="seed-1.5"),
    pytest.param("models", [], id="models-empty"),
    pytest.param("models", ["GRAVITY"], id="models-GRAVITY"),
    pytest.param("seed", -1, id="seed--1"),
    pytest.param("seed", 2**63, id="seed-2**63"),
    pytest.param("covariates", [], id="covariates-empty"),
    pytest.param("covariates", ["const", "ln_price"], id="covariates-ln_price"),
    pytest.param("covariates", ["const", "const"], id="covariates-duplicate"),
    pytest.param("dyads", "", id="dyads-empty"),
])
def test_malformed_config_value_exits_2_naming_the_field(
    zip_panel, tmp_path, capsys, name, value
):
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", **{name: value})
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert f"config field {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["dyads", "countries"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_a_panel_path_that_is_a_directory_exits_2_saying_so(
    zip_panel, tmp_path, capsys, name, given
):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    if given == "flag":
        paths = {**zip_panel, name: str(folder)}
        argv = ["--dyads", paths["dyads"], "--countries", paths["countries"], "--out", str(out)]
    else:
        argv = ["--config", write_config(tmp_path / "cfg.json", zip_panel, out, **{name: str(folder)})]
    assert main(["fit", *argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        f"gravnet: error: config field {name!r}: {str(folder)!r} is a directory, not a file\n"
    ), err
    assert not out.exists()


def test_a_config_that_sets_transforms_is_refused(zip_panel, tmp_path, capsys):
    """A comparison's scale follows the model's prediction; there is no
    ``transforms`` field to set it."""
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, tmp_path / "out", transforms={"OLS": "identity"}
    )
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert "unknown config key(s) ['transforms']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_file_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dyads": "d.csv",', encoding="utf-8")
    assert main(["fit", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"gravnet: error: config file {str(cfg)!r} is not valid JSON"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda path: path.mkdir(), "is a directory", id="directory"),
    pytest.param(lambda path: path.write_bytes(b'{"dyads": "\xff.csv"}'),
                 "is not UTF-8 text (invalid start byte)", id="not-utf8"),
])
def test_a_config_file_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, make, message):
    cfg = tmp_path / "cfg.json"
    make(cfg)
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"gravnet: error: config file {str(cfg)!r} {message}\n", err
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


def test_a_failed_fit_leaves_no_new_directory(tmp_path, capsys):
    """A stage that fails in a cell makes no directory for the artifacts
    of the cells before it: the OLS and PPML cells here write theirs."""
    panel, out = tmp_path / "panel", tmp_path / "out"
    synth = ["synth", "--out", str(panel), "--n-countries", "12", "--noise", "lognormal"]
    assert main([*synth, "--seed", "3"]) == EXIT_OK
    code = main(["fit", "--dyads", str(panel / "dyads.csv"),
                 "--countries", str(panel / "countries.csv"), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "year 2000 model ZIP: flows must include both zeros and positives" in (
        capsys.readouterr().err
    )
    assert sorted(os.listdir(out)) == sorted([LOG_NAME, PANEL_CACHE_NAME])


@pytest.fixture(scope="module")
def separated_panel(tmp_path_factory):
    """A one-year zip panel whose ``rta`` is 1 exactly on its 124 zero
    flows: with ``rta`` a regressor, the Poisson, ZIP and logit likelihoods
    have no maximum, and on the positive rows ``rta`` is the zero column."""
    spec = SynthSpec(n_countries=16, years=(2000,), noise="zip", seed=3)
    panel = write_synth_panel(spec, str(tmp_path_factory.mktemp("separated_panel")))
    with open(panel["dyads"], encoding="utf-8", newline="") as handle:
        header = next(csv.reader(handle))
    flow, rta = header.index("flow"), header.index("rta")

    def rta_on_the_zeros(rows):
        for line in rows:
            cells = line.rstrip("\n").split(",")
            cells[rta] = "1" if float(cells[flow]) == 0.0 else "0"
            yield ",".join(cells) + "\n"

    _rewrite_data_rows(panel["dyads"], rta_on_the_zeros)
    with open(panel["dyads"], encoding="utf-8", newline="") as handle:
        assert sum(row["rta"] == "1" for row in csv.DictReader(handle)) == 124
    return panel


@pytest.mark.parametrize("model,code", [
    ("OLS", EXIT_VALIDATION),
    ("PPML", EXIT_CONVERGENCE),
    ("ZIP", EXIT_CONVERGENCE),
    ("LOGIT", EXIT_CONVERGENCE),
])
def test_a_fit_without_a_maximum_exits_3_and_writes_nothing(
        separated_panel, tmp_path, capsys, model, code):
    """A separating dummy stops PPML, ZIP and the logit with exit 3, naming
    the cell; OLS, on the positive rows, refuses the column as collinear
    with exit 2.  No fit artifact and no manifest is written."""
    out = tmp_path / "out"
    argv = ["fit", "--dyads", separated_panel["dyads"], "--countries", separated_panel["countries"],
            "--out", str(out), "--covariates", "const,ln_dist,ln_gdp_i,ln_gdp_j,rta",
            "--models", model]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"gravnet: error: year 2000 model {model}: "), err
    if model == "OLS":
        assert "['rta']" in err, err
    assert not (out / MANIFEST_NAME).exists()
    assert not (out / "2000").exists()


def test_fit_error_keeps_its_type_and_names_the_cell(zip_panel):
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, COVARIATES)
    # a duplicated regressor makes the design rank deficient
    X = np.column_stack([dm.X, dm.X[:, 1]])
    collinear = replace(dm, X=X, columns=dm.columns + ("ln_gdp_i_copy",))
    with pytest.raises(SingularDesignError) as info, _cell(2000, "PPML"):
        fit_poisson_pml(collinear)
    assert info.value.columns
    assert str(info.value).startswith("year 2000 model PPML: ")


def test_a_fit_year_checks_each_design_once_and_takes_one_log_factorial(
        zip_panel, tmp_path, monkeypatch):
    """OLS's positive design and the full design of PPML, ZIP and the logit
    are each rank-checked once, and the full response's log(y!) is taken
    once for PPML, ZIP and the Vuong test."""
    calls = collections.Counter()
    for name in ("_pivoted_r_diagonal", "_log_factorial"):
        def counted(*args, _original=getattr(gravnet.estimation, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gravnet.estimation, name, counted)
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", years=[1995])
    assert main(["fit", "--config", cfg]) == EXIT_OK
    assert calls == {"_pivoted_r_diagonal": 2, "_log_factorial": 1}


def test_a_fit_year_lets_go_of_the_positive_design_before_the_full_design_fits(
        zip_panel, tmp_path, monkeypatch):
    """OLS's positive design is released after OLS, its only model: no
    full-design fit of the year runs while it is alive."""
    positive, alive = [], []
    fit_ols, fit_poisson_pml = gravnet.cli.fit_ols, gravnet.cli.fit_poisson_pml

    def ols(dm):
        positive.append(weakref.ref(dm))
        return fit_ols(dm)

    def ppml(dm):
        alive.append(positive[-1]() is not None)
        return fit_poisson_pml(dm)

    monkeypatch.setattr(gravnet.cli, "fit_ols", ols)
    monkeypatch.setattr(gravnet.cli, "fit_poisson_pml", ppml)
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", years=[1995, 2000])
    assert main(["fit", "--config", cfg]) == EXIT_OK
    assert alive == [False, False]


def test_a_singular_full_design_fails_in_the_first_models_cell(zip_panel, tmp_path, capsys):
    paths = copied_panel(zip_panel, tmp_path / "panel")
    with open(paths["countries"], encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("landlocked")
    for row in rows[1:]:
        row[column] = "0"  # landl_i is then a zero column
    with open(paths["countries"], "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths, out, models=["PPML", "ZIP", "LOGIT"],
                       covariates=["const", "ln_gdp_i", "ln_gdp_j", "landl_i"])
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "gravnet: error: year 1995 model PPML: design matrix is rank deficient; "
        "collinear column(s): ['landl_i']\n"
    )


@pytest.mark.parametrize("models,checked", [
    (["LOGIT"], "LOGIT"),
    (["PPML"], "PPML"),
    (["PPML", "ZIP"], "ZIP"),
])
def test_a_models_fit_does_not_depend_on_the_models_fitted_before_it(
        zip_panel, tmp_path, models, checked):
    """What one fit computes for the next on the same design gives the
    bytes that fit gives when it runs alone."""
    trees = {}
    for label, run in (("all", list(MODEL_TAGS)), ("some", models)):
        out = tmp_path / label
        cfg = write_config(tmp_path / f"{label}.json", zip_panel, out, models=run)
        assert main(["fit", "--config", cfg]) == EXIT_OK
        trees[label] = out
    for year in ("1995", "2000"):
        rel = os.path.join(year, checked, "fit.json")
        assert (trees["some"] / rel).read_bytes() == (trees["all"] / rel).read_bytes()


def test_a_cell_scope_times_its_work_and_names_its_errors():
    with _cell(2000, "OLS") as note:
        note["message"] = "done"
    assert list(note) == ["message", "duration_s"] and note["duration_s"] > 0.0
    for exc in (
        SingularDesignError("rank deficient", columns=["rta"]),
        SeparationError("separated", last_coefficients=[0.5, -1.0], trace=[{"iteration": 1}]),
        ValidationError("bad input"),
    ):
        message, payload = str(exc), dict(vars(exc))
        with pytest.raises(type(exc)) as raised, _cell(1995, "ZIP") as note:
            raise exc
        # the same object, renamed: a failed cell's note gets no wall time
        assert raised.value is exc and str(exc) == f"year 1995 model ZIP: {message}"
        assert note == {}
        # what a worker process sends back to the stage
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc) and str(copy) == str(exc)
        assert vars(copy) == vars(exc) == payload
    # a missing artifact already names itself; other errors are not the cell's
    for exc in (DependencyError("missing artifact 2000/OLS/fit.json"), OSError("disk full")):
        message = str(exc)
        with pytest.raises(type(exc)) as raised, _cell(1995, "ZIP"):
            raise exc
        assert raised.value is exc and str(exc) == message


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
    # refused before any work: not even the output directory is made
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["predict", "netstats", "compare", "report"])
def test_a_stage_on_an_out_without_a_manifest_names_fit_first(zip_panel, tmp_path, capsys,
                                                              command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, years=[1995])
    assert main([command, "--config", cfg]) == EXIT_DEPENDENCY
    err = capsys.readouterr().err
    assert "run 'gravnet fit' first" in err, err
    assert not out.exists()


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


def test_tampered_array_is_rejected(zip_panel, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, models=["ZIP"], years=[2000])
    run_pipeline(cfg, commands=("fit", "predict"))
    target = out / "2000" / "ZIP" / "xi.json"
    text = target.read_text()
    # one character of the link probabilities' base64, swapped for another:
    # the file still decodes, to other probabilities
    k = text.index('"base64": "') + len('"base64": "')
    target.write_text(text[:k] + ("B" if text[k] == "A" else "A") + text[k + 1:])
    LinkProbabilityMatrix.from_dict(json.loads(target.read_text()))
    assert main(["compare", "--config", cfg]) == EXIT_DEPENDENCY
    assert "2000/ZIP/xi.json does not match the manifest" in capsys.readouterr().err


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


def count_calls(monkeypatch, names) -> dict:
    """Wrap each of ``names`` on gravnet.cli to count its calls, by name.

    A tracer rebinds these names on gravnet.cli; a call through a reference
    captured at import time would bypass it, and read as no call here.
    """
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gravnet.cli, name, counting(name, getattr(gravnet.cli, name)))
    return calls


def test_predict_calls_layer_functions_through_module_names(zip_panel, tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    assert main(["fit", "--config", cfg]) == EXIT_OK
    calls = count_calls(
        monkeypatch, ("predict_ols", "predict_ppml", "predict_zip", "link_probabilities")
    )
    assert main(["predict", "--config", cfg]) == EXIT_OK
    # one call per cell over two years; ZIP and LOGIT both need link probabilities
    assert calls == {
        "predict_ols": 2, "predict_ppml": 2, "predict_zip": 2, "link_probabilities": 4,
    }


def test_fit_and_netstats_call_layer_functions_through_module_names(
    zip_panel, tmp_path, monkeypatch
):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    fits = ("fit_ols", "fit_poisson_pml", "fit_logit", "fit_zip", "attach_vuong")
    calls = count_calls(monkeypatch, (*fits, "all_statistics"))
    assert main(["fit", "--config", cfg]) == EXIT_OK
    # one call per cell over two years; the Vuong test once per ZIP cell
    assert calls == dict.fromkeys(fits, 2)
    calls.clear()
    assert main(["predict", "--config", cfg]) == EXIT_OK
    assert main(["netstats", "--config", cfg]) == EXIT_OK
    # per year: the observed network on two scales, then one per cell
    assert calls == {"all_statistics": 2 * (2 + 4)}


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
# panel cache


def copied_panel(zip_panel, directory) -> dict:
    """The zip panel's two files, copied into ``directory`` for editing."""
    directory.mkdir()
    return {
        name: shutil.copy(zip_panel[name], str(directory / f"{name}.csv"))
        for name in ("dyads", "countries")
    }


def edit_first_row(path, column: str, text: str) -> None:
    """Set ``column`` of the file's first data row to ``text``."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index(column)] = text
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def drop_country(paths, year: int, cid: str) -> None:
    """Remove country ``cid`` from the ``year`` rows of both panel files."""
    for name, columns in (("dyads", ("exporter", "importer")), ("countries", ("country",))):
        with open(paths[name], encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        at = [header.index(column) for column in columns]
        kept = [
            row for row in rows
            if row[header.index("year")] != str(year) or cid not in [row[k] for k in at]
        ]
        assert len(kept) < len(rows)
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *kept])


def test_predict_on_a_fit_with_other_covariates_names_the_cell(zip_panel, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out")
    run_pipeline(cfg, ("fit", "predict"))
    refit = ["fit", "--config", cfg, "--covariates", "const,ln_dist,ln_gdp_i,ln_gdp_j"]
    assert main(refit) == EXIT_OK
    capsys.readouterr()
    # the refit's fit.json matches the manifest, but not the six covariates
    assert main(["predict", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        "gravnet: error: year 1995 model OLS: fit and design matrix disagree on covariates"
    )


def test_a_country_dropped_after_predict_is_refused_naming_the_cell(
    zip_panel, tmp_path, monkeypatch, capsys
):
    """The refused stage also leaves every artifact and the manifest as
    they were, though it wrote 1995's cells and 2000's observed table
    before the failing cell, and leaves no temporary file behind."""
    paths = copied_panel(zip_panel, tmp_path / "panel")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths, out)
    run_pipeline(cfg)
    before = output_tree(out, (LOG_NAME, PANEL_CACHE_NAME))
    drop_country(paths, 2000, "C015")
    capsys.readouterr()
    refused = (
        "gravnet: error: year 2000 model OLS: {} countries differ from observed "
        "(missing [], unexpected ['C015'])\n"
    )

    def unchanged():
        after = output_tree(out, (LOG_NAME, PANEL_CACHE_NAME))
        assert not [rel for rel in after if os.path.basename(rel).startswith(".tmp-")]
        assert after == before

    # the point networks were predicted for one country more than 2000 now has
    assert main(["netstats", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err == refused.format("predicted")
    unchanged()
    for workers in (1, 2):
        monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: workers)
        assert main(["compare", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == refused.format("ensemble")
        unchanged()


def last_record(out) -> dict:
    return json.loads((out / LOG_NAME).read_text().splitlines()[-1])


def stored_copy(paths) -> bytes:
    """The cache bytes of a fresh parse of ``paths``."""
    digests = {name: _hash_file(paths[name]) for name in ("dyads", "countries")}
    return load_panel(paths["dyads"], paths["countries"]).as_bytes(digests)


@pytest.mark.parametrize("name,column,text", [
    ("dyads", "flow", "123456.5"),
    ("countries", "gdp", "98765.25"),
])
def test_a_csv_edited_after_fit_is_parsed_again(zip_panel, tmp_path, name, column, text):
    paths = copied_panel(zip_panel, tmp_path / "panel")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths, out, models=["PPML"], years=[1995])
    run_pipeline(cfg)
    summary = (out / "summary.csv").read_bytes()
    edit_first_row(paths[name], column, text)
    assert main(["report", "--config", cfg]) == EXIT_OK
    record = last_record(out)
    assert record["panel"]["cached"] is False
    assert record["panel"][name] == _hash_file(paths[name])
    # the stage saw the edit, and stored the copy of the edited files
    assert (out / PANEL_CACHE_NAME).read_bytes() == stored_copy(paths)
    if name == "dyads":  # the summary reads flows, not country sizes
        assert (out / "summary.csv").read_bytes() != summary
    assert main(["report", "--config", cfg]) == EXIT_OK
    assert last_record(out)["panel"]["cached"] is True


def test_an_invalid_edit_after_fit_exits_2_with_the_parser_message(zip_panel, tmp_path, capsys):
    paths = copied_panel(zip_panel, tmp_path / "panel")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", paths, out, models=["PPML"], years=[1995])
    assert main(["fit", "--config", cfg]) == EXIT_OK
    cache = (out / PANEL_CACHE_NAME).read_bytes()
    edit_first_row(paths["dyads"], "flow", "abc")
    with pytest.raises(ValidationError) as parsed:
        load_panel(paths["dyads"], paths["countries"])
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"gravnet: error: {parsed.value}\n"
    assert (out / PANEL_CACHE_NAME).read_bytes() == cache


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flipped(at: int):
    def flip(data: bytes) -> bytes:
        k = at % len(data)
        return data[:k] + bytes([data[k] ^ 0x10]) + data[k + 1:]

    return flip


def _old_version(data: bytes) -> bytes:
    first, rest = data.split(b"\n", 1)
    return first[:-1] + b"0\n" + rest


@pytest.mark.parametrize("corrupt", [
    pytest.param(_truncated, id="truncated"),
    pytest.param(_flipped(30), id="flipped-digest"),
    pytest.param(_flipped(200), id="flipped-header"),
    pytest.param(_flipped(-3), id="flipped-columns"),
    pytest.param(_old_version, id="old-version"),
    pytest.param(lambda data: b"", id="empty"),
])
def test_a_damaged_panel_cache_is_ignored_and_rewritten(zip_panel, tmp_path, corrupt):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, models=["PPML"], years=[1995])
    assert main(["fit", "--config", cfg]) == EXIT_OK
    cache = out / PANEL_CACHE_NAME
    good = cache.read_bytes()
    cache.write_bytes(corrupt(good))
    assert cache.read_bytes() != good
    assert main(["predict", "--config", cfg]) == EXIT_OK
    assert last_record(out)["panel"]["cached"] is False
    assert cache.read_bytes() == good


def test_a_refused_command_stores_no_panel_cache(zip_panel, tmp_path, capsys):
    out = tmp_path / "out"
    # a panel that fails to parse
    paths = copied_panel(zip_panel, tmp_path / "panel")
    edit_first_row(paths["countries"], "gdp", "-1")
    cfg = write_config(tmp_path / "cfg.json", paths, out, models=["PPML"])
    assert main(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert "gdp, area and population must be strictly positive" in capsys.readouterr().err
    assert not (out / PANEL_CACHE_NAME).exists()
    # a panel that parses, for a command refused after the parse
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, models=["PPML"])
    assert main(["fit", "--config", cfg, "--years", "1900"]) == EXIT_VALIDATION
    assert main(["predict", "--config", cfg]) == EXIT_DEPENDENCY
    # neither command made the output directory
    assert not out.exists()


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_artifacts_and_manifest(zip_panel, tmp_path, monkeypatch):
    # compare runs its cells in two worker processes, even on one CPU
    monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: 2)
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
    assert PANEL_CACHE_NAME not in manifest
    for rel, digest in manifest.items():
        assert _hash_file(os.path.join(str(out), *rel.split("/"))) == digest
    # every artifact on disk is accounted for
    on_disk = {
        os.path.relpath(os.path.join(root, name), out).replace(os.sep, "/")
        for root, _, names in os.walk(out)
        for name in names
        if name not in (MANIFEST_NAME, MANIFEST_LOCK_NAME, LOG_NAME, PANEL_CACHE_NAME)
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
    # every record names the panel's files by digest; fit parsed them, and
    # each later stage read the copy fit stored
    digests = {name: _hash_file(zip_panel[name]) for name in ("dyads", "countries")}
    for r in records:
        assert r["panel"] == {**digests, "cached": r["command"] != "fit"}, r
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
        assert r["replications"] == 40
        # every row has its band: each replication is summarised or dropped
        for s in report["statistics"]:
            assert isinstance(s["ensemble"], dict), s
            assert s["ensemble"]["m"] + s["ensemble"]["n_dropped"] == 40, s
    assert [(r["year"], r["model"]) for r in compare] == [
        (year, tag) for year in (1995, 2000) for tag in MODEL_TAGS
    ]
    # a cell's peak RSS is read in the process that ran it: with a stand-in
    # that names that process, every compare cell names a worker
    monkeypatch.setattr(gravnet.cli, "_peak_rss_mb", lambda: float(os.getpid()))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    rerun = [json.loads(line) for line in (out / LOG_NAME).read_text().splitlines()]
    cells = rerun[len(records):]
    assert len(cells) == 2 * 4 and all(r["command"] == "compare" for r in cells)
    workers = {r["peak_rss_mb"] for r in cells}
    assert float(os.getpid()) not in workers and 1 <= len(workers) <= 2


def output_tree(out, skip=(LOG_NAME,)) -> dict:
    """Relative path -> bytes of every file under ``out`` whose name is not
    in ``skip``, the run log by default."""
    tree = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name in skip:
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


def test_a_cell_writes_the_same_bytes_whichever_other_models_run(tmp_path):
    """A one-model fit, predict, netstats and compare writes its
    ``<year>/<tag>/`` as the four-model run does, byte for byte, except
    that ZIP's fit.json then lacks the Vuong statistic against PPML."""
    panel = write_synth_panel(
        SynthSpec(n_countries=14, years=(2000,), noise="zip", seed=4), str(tmp_path / "panel")
    )

    def cells(models):
        out = tmp_path / "-".join(models)
        cfg = write_config(
            tmp_path / "cfg.json", panel, out, models=list(models), replications=12,
            covariates=["const", "ln_gdp_i", "ln_gdp_j", "ln_dist"],
        )
        run_pipeline(cfg, commands=("fit", "predict", "netstats", "compare"))
        return {tag: output_tree(out / "2000" / tag) for tag in models}

    together = cells(MODEL_TAGS)
    for tag in MODEL_TAGS:
        (alone,) = cells((tag,)).values()
        assert alone.keys() == together[tag].keys(), tag
        for name, data in alone.items():
            if (tag, name) == ("ZIP", "fit.json"):
                with_vuong = json.loads(together[tag][name])
                assert np.isfinite(with_vuong.pop("vuong_vs_poisson"))
                assert json.loads(data) == with_vuong
            else:
                assert data == together[tag][name], f"{tag}/{name}"


def test_compare_bytes_do_not_depend_on_the_worker_count(zip_panel, tmp_path, monkeypatch):
    trees = {}
    for workers in (1, 2):
        monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: workers)
        out = tmp_path / f"workers{workers}"
        cfg = write_config(tmp_path / f"cfg{workers}.json", zip_panel, out)
        run_pipeline(cfg)
        trees[workers] = output_tree(out)
    # two years x four models, manifest included
    assert len([rel for rel in trees[1] if rel.endswith("report.json")]) == 2 * 4
    assert trees[1].keys() == trees[2].keys()
    for rel in trees[1]:
        assert trees[1][rel] == trees[2][rel], f"{rel} differs between 1 and 2 workers"


def test_compare_cells_log_the_time_they_spend_drawing(zip_panel, tmp_path, monkeypatch):
    # each compare cell's record splits its duration: draw_s is the part
    # spent drawing replications, generator set-up included, measured in
    # the process that ran the cell, in process and in workers alike
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    run_pipeline(cfg, ("fit", "predict"))
    # the LOGIT ensemble sleeps 2 ms in each of its 40 draws
    stream = gravnet.cli.stream_bernoulli_ensemble

    def sleepy(*args):
        real = stream(*args)

        def draw(g):
            time.sleep(0.002)
            return real.draw(g)

        return replace(real, draw=draw)

    monkeypatch.setattr(gravnet.cli, "stream_bernoulli_ensemble", sleepy)
    for workers in (1, 2):
        monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: workers)
        before = len((out / LOG_NAME).read_text().splitlines())
        assert main(["compare", "--config", cfg]) == EXIT_OK
        records = [json.loads(line) for line in (out / LOG_NAME).read_text().splitlines()]
        cells = records[before:]
        assert [(r["command"], r["year"], r["model"]) for r in cells] == [
            ("compare", year, tag) for year in (1995, 2000) for tag in MODEL_TAGS
        ]
        for r in cells:
            assert isinstance(r["draw_s"], float), r
            assert 0.0 < r["draw_s"] <= r["duration_s"], r
            if r["model"] == "LOGIT":
                assert r["draw_s"] >= 40 * 0.002, r
    # the log stays out of the manifest
    assert LOG_NAME not in json.loads((out / MANIFEST_NAME).read_text())["artifacts"]


def test_in_order_reads_at_most_two_calls_per_worker_ahead():
    pulled = 0

    def calls():
        nonlocal pulled
        for k in range(-12, 0):
            pulled += 1
            yield k, (k,)

    keys = []
    # abs pickles by name, so the two workers run it for real
    for key, value in gravnet.cli._in_order(abs, calls(), 2):
        assert pulled <= len(keys) + 2 * 2, f"{pulled} calls read, {len(keys)} results taken"
        assert value == -key
        keys.append(key)
    assert keys == list(range(-12, 0))
    assert multiprocessing.active_children() == []


def test_compare_error_in_a_worker_exits_as_in_process(zip_panel, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out)
    run_pipeline(cfg, commands=("fit", "predict"))
    manifest = (out / MANIFEST_NAME).read_bytes()

    def failing(*args, **kwargs):
        raise SingularDesignError("cell cannot be compared", columns=["rta"])

    # a forked worker inherits the patched global
    monkeypatch.setattr(gravnet.cli, "build_comparison_report", failing)
    messages = {}
    for workers in (1, 2):
        monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: workers)
        assert main(["compare", "--config", cfg]) == EXIT_VALIDATION
        messages[workers] = capsys.readouterr().err
        assert multiprocessing.active_children() == []
        # the exception keeps its type and payload across the process boundary
        args = gravnet.cli.build_parser().parse_args(["compare", "--config", cfg])
        with pytest.raises(SingularDesignError) as raised:
            args.func(args)
        assert raised.value.columns == ["rta"]
        assert multiprocessing.active_children() == []
    assert messages[1] == messages[2] == (
        "gravnet: error: year 1995 model OLS: cell cannot be compared\n"
    )
    # no compare entry reached the manifest
    assert (out / MANIFEST_NAME).read_bytes() == manifest


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_compare_workers_fork_whatever_the_default_start_method(zip_panel, tmp_path,
                                                                monkeypatch, capsys):
    """A worker started by forkserver or spawn imports gravnet afresh and
    would run the real function; a forked one sees the patch."""
    out = tmp_path / "out"
    # two cells, so compare runs a pool of two workers
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, models=["LOGIT"])
    run_pipeline(cfg, commands=("fit", "predict"))

    def failing(*args, **kwargs):
        raise ValidationError("patched in the parent")

    monkeypatch.setattr(gravnet.cli, "build_comparison_report", failing)
    monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: 2)
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        assert main(["compare", "--config", cfg]) == EXIT_VALIDATION
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert capsys.readouterr().err == (
        "gravnet: error: year 1995 model LOGIT: patched in the parent\n"
    )
    assert multiprocessing.active_children() == []


def test_every_csv_cell_is_a_type_the_writer_spells_as_rendered(tmp_path, monkeypatch):
    """Each stage hands ``_csv_text`` only cells that ``csv.writer`` spells
    as ``oracles._render`` does; a ``bool`` would read ``True``, not ``1``."""
    allowed = {str, int, float, np.int64, np.float64, type(None)}
    seen = collections.Counter()

    def recording(original):
        def csv_text(header, rows):
            rows = [list(row) for row in rows]
            seen.update(type(cell) for row in rows for cell in row)
            return original(header, rows)
        return csv_text

    monkeypatch.setattr(gravnet.synth, "_csv_text", recording(gravnet.synth._csv_text))
    monkeypatch.setattr(gravnet.cli, "_csv_text", recording(gravnet.cli._csv_text))
    spec = SynthSpec(n_countries=16, years=(1995, 2000), noise="zip", seed=11)
    panel = write_synth_panel(spec, str(tmp_path / "panel"))
    run_pipeline(write_config(tmp_path / "cfg.json", panel, tmp_path / "out", replications=10))
    assert seen[float] and seen[int] and seen[str] and seen[type(None)], seen
    assert set(seen) <= allowed, seen


def rendered(rows) -> list:
    """Rows as the CSV writer spells their cells."""
    return [[_render(value) for value in row] for row in rows]


def test_report_csvs_match_the_dict_walking_oracle(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, years=[2000], replications=10)
    run_pipeline(cfg)
    cases = [
        (2000, tag, json.loads((out / "2000" / tag / "report.json").read_text()))
        for tag in MODEL_TAGS
    ]
    # what ``gravnet report`` wrote is the oracle's rows, cell after cell
    written = {}
    for year, tag, payload in cases:
        headers, tables = loop_report_rows(year, tag, payload)
        for name, header, rows in zip(("ks_tests", "averages", "correlations"), headers, tables):
            written.setdefault(name, [list(header)]).extend(rendered(r.values() for r in rows))
    for name, want in written.items():
        got = list(csv.reader(io.StringIO((out / f"{name}.csv").read_text())))
        assert got == want, name


def test_report_tables_of_a_decoded_report_match_the_oracle():
    # a correlation that is undefined
    ks = KsResult(0.25, 0.5, 8, 7)
    summary = EnsembleSummary("NS_tot", 1.5, 0.1, 1.25, 1.75, 1.3, 1.7, 9, 1)
    report = ComparisonReport(
        8,
        (StatComparison("NS_tot", -0.0, 1.0, summary, ks),),
        (CorrelationComparison("ND_tot", "BCC_tot", math.nan, 0.5),),
    )
    payload = json.loads(json.dumps(report_as_dict(report)))
    _, tables = loop_report_rows(1999, "PPML", payload)
    typed = _report_tables([(1999, "PPML", report_from_dict(payload))])
    for rows, want in zip(typed, tables):
        assert rendered(rows) == rendered(r.values() for r in want)
    assert rendered(typed[2]) == [["1999", "PPML", "ND_tot", "BCC_tot", "nan", "0.5"]]


def test_the_library_rebuilds_a_pipeline_cell_byte_for_byte(zip_panel, tmp_path):
    """A compare cell is the public API applied to the cell's predict
    artifacts, with the observed network on the model's scale: the same
    report.json bytes, for OLS (log scale, masked draws), ZIP (level
    scale, link probabilities) and LOGIT (binary scale, its binary.json
    adjacency and Bernoulli draws)."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, models=["OLS", "ZIP", "LOGIT"])
    run_pipeline(cfg, commands=("fit", "predict", "compare"))
    year = 2000
    panel = gravnet.load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = gravnet.build_cross_section(panel, year)
    observed = gravnet.TradeNetwork(cs.weights)
    for tag, scale in (("OLS", gravnet.log_positive), ("ZIP", lambda net: net),
                       ("LOGIT", gravnet.binary)):
        cell = out / str(year) / tag
        seed = cell_seed(5, year, tag)
        link_probs = None
        if tag != "OLS":
            link_probs = gravnet.LinkProbabilityMatrix.from_dict(
                json.loads((cell / "xi.json").read_text())
            )
        if tag == "LOGIT":
            _, induced = gravnet.binary_from_dict(json.loads((cell / "binary.json").read_text()))
            network = gravnet.TradeNetwork(induced.adjacency.astype(float), induced.adjacency)
            ensemble = gravnet.stream_bernoulli_ensemble(link_probs, 40, seed)
        else:
            pred = gravnet.PredictedWeights.from_dict(
                json.loads((cell / "prediction.json").read_text())
            )
            network = gravnet.TradeNetwork(pred.value, pred.mask)
            ensemble = gravnet.stream_weighted_ensemble(pred, 40, seed, link_probs=link_probs)
        report = gravnet.build_comparison_report(scale(observed), cs.country_ids, network, ensemble)
        rebuilt = tmp_path / f"{tag}.json"
        # the cell's model and year, as the compare stage stamps them
        _write_json(str(rebuilt), {**gravnet.report_as_dict(report), "model": tag, "year": year})
        assert rebuilt.read_bytes() == (cell / "report.json").read_bytes(), tag


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


def test_no_stage_imports_scipy(tmp_path):
    """`import gravnet`, every stage (`fit`, `predict`, `netstats`,
    `compare`, `report`) and `synth` with every noise, the default and
    benchmark `zip` among them, never load scipy; the stages rerun on the
    tree a first pass left.  `compare` is pinned to one CPU, so its cells
    run in process."""
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
        "codes = [main([command, *sys.argv[1:]])\n"
        "         for command in ('fit', 'predict', 'netstats', 'report')]\n"
        f"print(codes); {loaded}"
    )
    synth = (
        "import sys; from gravnet.cli import main\n"
        f"print(main(['synth', *sys.argv[1:]])); {loaded}"
    )
    compare = (
        "import os, sys; from gravnet.cli import main\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"print(main(['compare', *sys.argv[1:]])); {loaded}"
    )
    runs = [(f"import sys, gravnet; {loaded}", args, ["[]"]),
            (stages, args, [f"[{EXIT_OK}, {EXIT_OK}, {EXIT_OK}, {EXIT_OK}]", "[]"]),
            (compare, args, [f"{EXIT_OK}", "[]"])]
    for noise in ("zip", "poisson", "lognormal"):
        synth_args = ["--out", str(tmp_path / noise), "--n-countries", "6", "--noise", noise]
        runs.append((synth, synth_args, [f"{EXIT_OK}", "[]"]))
    # the stages print progress first; the script's own lines come last
    for script, argv, want in runs:
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-len(want):] == want


@pytest.fixture(scope="module")
def finished_tree(tmp_path_factory):
    """A panel and the stage arguments of a tree every stage has run on."""
    root = tmp_path_factory.mktemp("finished")
    spec = SynthSpec(n_countries=8, years=(2000,), noise="zip", seed=11)
    panel = write_synth_panel(spec, str(root / "panel"))
    args = ["--dyads", panel["dyads"], "--countries", panel["countries"],
            "--out", str(root / "out"), "--covariates", ",".join(COVARIATES),
            "--replications", "20"]
    for command in ("fit", "predict", "netstats", "compare", "report"):
        assert main([command, *args]) == EXIT_OK, command
    return root, args


@pytest.mark.parametrize("stage", ["synth", "fit", "predict", "netstats", "compare", "report"])
def test_no_stage_imports_numpy_ma(finished_tree, tmp_path, stage):
    """A stage, rerun on a copy of a finished tree (``synth`` into a new
    directory), never imports ``numpy.ma``, which ``np.unique`` and
    ``np.percentile`` load through their NaN check.  The script makes the
    import fail, in its own process and in the workers compare forks to run
    its four cells on every usable CPU, so a stage that needs it exits
    nonzero."""
    root, args = finished_tree
    shutil.copytree(root / "out", tmp_path / "out")
    if stage == "synth":
        argv = ["--out", str(tmp_path / "panel"), "--n-countries", "6", "--noise", "zip"]
    else:
        argv = [tmp_path / "out" if arg == str(root / "out") else arg for arg in args]
    src = os.path.dirname(os.path.dirname(gravnet.cli.__file__))
    script = (
        "import sys; sys.modules['numpy.ma'] = None\n"
        "from gravnet.cli import main\n"
        f"print(main([{stage!r}, *sys.argv[1:]]), sys.modules['numpy.ma'])"
    )
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} None"


def test_a_report_is_labelled_once_by_its_cell(finished_tree):
    """Each ``<year>/<tag>/report.json`` states its cell's model and year
    once, at the top, and none of its statistic or correlation rows
    repeats them."""
    root, _ = finished_tree
    paths = sorted((root / "out").glob("*/*/report.json"))
    assert sorted(p.parent.name for p in paths) == sorted(MODEL_TAGS)
    for path in paths:
        text = path.read_text()
        assert text.count('"model"') == 1 and text.count('"year"') == 1, path
        payload = json.loads(text)
        assert payload["model"] == path.parent.name
        assert payload["year"] == int(path.parent.parent.name)
        rows = payload["statistics"] + payload["correlations"]
        assert len(rows) == len(REPORT_KINDS) + len(CORRELATION_PAIRS)
        assert not any("model" in row or "year" in row for row in rows), path


def test_prediction_artifact_roundtrips_exactly(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["PPML", "ZIP"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "PPML" / "prediction.json").read_text())
    # a count model predicts every ordered pair: no mask, no residual variance
    for tag in ("PPML", "ZIP"):
        keys = json.loads((out / "2000" / tag / "prediction.json").read_text()).keys()
        assert sorted(keys) == ["country_ids", "model", "value", "year"], tag

    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, COVARIATES)
    pred = predict_ppml(fit_poisson_pml(dm), dm)
    back = PredictedWeights.from_dict(payload)
    assert back.country_ids == cs.country_ids
    np.testing.assert_array_equal(back.value, pred.value)
    assert back.value.tobytes() == pred.value.tobytes()


def test_ols_cell_network_keeps_observed_structure(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["OLS"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "OLS" / "prediction.json").read_text())
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    cs = build_cross_section(panel, 2000)
    np.testing.assert_array_equal(PredictedWeights.from_dict(payload).mask, cs.adjacency)
    assert sorted(payload) == ["country_ids", "mask", "model", "sigma2", "value", "year"]
    # the fit's one residual variance, not a matrix of copies
    fit = json.loads((out / "2000" / "OLS" / "fit.json").read_text())
    assert payload["sigma2"] == fit["diagnostics"]["sigma2"]


def test_binary_artifact_realized_density(zip_panel, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["LOGIT"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict"))
    payload = json.loads((out / "2000" / "LOGIT" / "binary.json").read_text())
    a = binary_from_dict(payload)[1].adjacency
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


def test_observed_side_takes_the_scale_the_model_predicts(zip_panel, tmp_path):
    """OLS predicts logs, so its observed NS_tot is the average of the
    observed logs; PPML is compared with observed levels, and the logit,
    which predicts an adjacency, with the observed adjacency, where NS_tot
    is ND_tot.  Each scale is read through its model's row."""
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", zip_panel, out, models=["OLS", "PPML", "LOGIT"], years=[2000]
    )
    run_pipeline(cfg, commands=("fit", "predict", "compare"))
    panel = load_panel(zip_panel["dyads"], zip_panel["countries"])
    observed = build_cross_section(panel, 2000).network()
    averages = {}
    for tag in ("OLS", "PPML", "LOGIT"):
        scale = SCALES[MODELS[tag].scale](observed)
        report = json.loads((out / "2000" / tag / "report.json").read_text())
        (ns_tot,) = [s for s in report["statistics"] if s["kind"] == "NS_tot"]
        want, _ = population_average(compute_statistic(scale, "NS_tot"))
        assert ns_tot["observed_avg"] == want, tag
        averages[tag] = want
    assert (MODELS["OLS"].scale, MODELS["PPML"].scale, MODELS["LOGIT"].scale) == (
        "log_positive", "identity", "binary"
    )
    assert averages["PPML"] == population_average(compute_statistic(observed, "NS_tot"))[0]
    assert averages["LOGIT"] == population_average(compute_statistic(observed, "ND_tot"))[0]
    assert len(set(averages.values())) == 3


def test_node_stats_label_each_models_weighted_rows_by_its_scale(zip_panel, tmp_path):
    """A model's weighted node statistics carry its scale's label, and its
    binary ones none; a logit's binary-scale weighted rows repeat their
    binary twins."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", zip_panel, out, years=[2000])
    run_pipeline(cfg, commands=("fit", "predict", "netstats"))
    values = collections.defaultdict(list)
    for tag in MODEL_TAGS:
        with open(out / "2000" / tag / "node_stats.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        labels = ({row["transform"] for row in rows if row["kind"] in kinds}
                  for kinds in (WEIGHTED_KINDS, BINARY_KINDS))
        assert tuple(labels) == ({MODELS[tag].scale}, {""}), tag
        for row in rows:
            values[tag, row["kind"]].append(row["value"])
    for kind, twin in zip(WEIGHTED_KINDS, BINARY_KINDS):
        assert values["LOGIT", kind] == values["LOGIT", twin], kind


def _panel_copy(panel, directory):
    """Copies of ``panel``'s two CSVs in ``directory``, keyed as in ``panel``."""
    return {name: shutil.copy(panel[name], directory) for name in ("dyads", "countries")}


def _rewrite_data_rows(path, edit):
    """Replace the data rows of the CSV at ``path`` by ``edit(rows)``,
    keeping its header line."""
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = handle.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines([header, *edit(rows)])


@pytest.mark.parametrize("stage", ["fit", "predict", "netstats", "compare", "report"])
def test_a_panel_without_years_is_refused_by_every_stage(tmp_path, capsys, stage):
    """A panel whose two CSVs hold only their headers exits 2 naming both
    files, before the stage writes anything."""
    panel = write_synth_panel(SynthSpec(n_countries=6, years=(2000,), seed=1), str(tmp_path))
    for name in ("dyads", "countries"):
        _rewrite_data_rows(panel[name], lambda rows: [])
    out = tmp_path / "out"
    argv = [stage, "--dyads", panel["dyads"], "--countries", panel["countries"], "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("gravnet: error: the panel has no years"), err
    assert panel["dyads"] in err and panel["countries"] in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["dyads", "countries"])
@pytest.mark.parametrize("appended,message", [
    pytest.param(b"\xff", "not UTF-8 text (invalid start byte)", id="not-utf8"),
    pytest.param(b"x" * 140_000 + b"\n", "line {line}: field larger than field limit",
                 id="field-too-large"),
])
def test_a_panel_file_the_reader_cannot_decode_exits_2_naming_it(
    tmp_path, capsys, name, appended, message
):
    """A byte that is not UTF-8, or a field past the csv module's limit,
    exits 2 naming the file (and the line, for the field: a byte is
    decoded a chunk at a time), and the stage writes nothing, not even
    its panel cache."""
    panel = write_synth_panel(SynthSpec(n_countries=6, years=(2000,), seed=1), str(tmp_path))
    with open(panel[name], "ab") as handle:
        handle.write(appended)
    with open(panel[name], "rb") as handle:
        line = handle.read().count(b"\n")
    out = tmp_path / "out"
    argv = ["fit", "--dyads", panel["dyads"], "--countries", panel["countries"], "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"gravnet: error: {panel[name]}: {message.format(line=line)}"), err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["synth", "fit", "predict", "netstats", "compare", "report"])
def test_an_out_that_is_a_file_is_refused_by_every_command(tmp_path, capsys, stage):
    """An ``--out`` that exists and is not a directory, or that lies inside
    such a file, exits 2 naming the option and the path, and the command
    writes nothing and leaves the file as it was."""
    panel = write_synth_panel(SynthSpec(n_countries=6, years=(2000,), seed=1),
                              str(tmp_path / "panel"))
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    before = output_tree(tmp_path)
    for out in (afile, afile / "sub"):
        argv = [stage, "--out", str(out)]
        if stage != "synth":
            argv += ["--dyads", panel["dyads"], "--countries", panel["countries"]]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("gravnet: error: ") and "out" in err and repr(str(out)) in err, err
        assert output_tree(tmp_path) == before


def test_shuffled_csv_rows_leave_every_artifact_unchanged(zip_panel, tmp_path):
    """The order of the data rows of either CSV is not part of the panel:
    with both shuffled, every stage writes the same bytes."""
    rng = np.random.default_rng(14)
    shuffled = _panel_copy(zip_panel, tmp_path)
    for path in shuffled.values():
        _rewrite_data_rows(path, lambda rows: [rows[k] for k in rng.permutation(len(rows))])
    trees = []
    for run, panel in (("a", zip_panel), ("b", shuffled)):
        run_pipeline(write_config(tmp_path / f"{run}.json", panel, tmp_path / run))
        trees.append(output_tree(tmp_path / run, skip=(LOG_NAME, PANEL_CACHE_NAME)))
    assert any(rel.endswith("report.json") for rel in trees[0])
    assert trees[0] == trees[1]


def _flows_times_1024(panel, directory):
    """A copy of ``panel`` in ``directory`` with every flow times 2**10,
    which is exact in binary floating point."""
    scaled = _panel_copy(panel, directory)
    with open(scaled["dyads"], encoding="utf-8", newline="") as handle:
        column = next(csv.reader(handle)).index("flow")

    def times_1024(rows):
        for line in rows:
            cells = line.split(",")  # the flow is not the last cell
            cells[column] = repr(float(cells[column]) * 2.0**10)
            yield ",".join(cells)

    _rewrite_data_rows(scaled["dyads"], times_1024)
    return scaled


def test_logit_artifacts_do_not_depend_on_the_flow_unit(zip_panel, tmp_path):
    """The logit reads only which flows are zero, and is compared on the
    binary scale: with every flow times 2**10 (exact in binary floating
    point), each of its artifacts keeps its bytes.  The count models' fits
    on the scaled flows raise no RuntimeWarning, which the suite turns
    into an error."""
    scaled = _flows_times_1024(zip_panel, tmp_path)
    trees = []
    for run, panel in (("a", zip_panel), ("b", scaled)):
        run_pipeline(write_config(tmp_path / f"{run}.json", panel, tmp_path / run))
        trees.append(output_tree(tmp_path / run))
    logit = [rel for rel in trees[0] if os.path.basename(os.path.dirname(rel)) == "LOGIT"]
    assert sorted(os.path.basename(rel) for rel in logit) == sorted(
        ["binary.json", "fit.json", "node_stats.csv", "report.json", "xi.json"] * 2
    )
    for rel in logit:
        assert trees[0][rel] == trees[1][rel], rel
    # the scaling reached the panel: the level-scale reports moved
    ppml = os.path.join("2000", "PPML", "report.json")
    assert trees[0][ppml] != trees[1][ppml]


def test_ppml_comparison_scales_with_the_flow_unit(zip_panel, tmp_path):
    """With every flow times c = 2**10, PPML's fit moves its intercept by
    ln c and nothing else, so its point network scales by c: each K-S row
    keeps its D, p and sample sizes, each weighted average scales by c
    (strengths exactly; the clustering's cube roots to rounding), each
    binary average and every correlation stays, and no RuntimeWarning is
    raised, which the suite turns into an error.  The ensemble summaries
    are left out, all but their counts: Poisson(c mu) is not c Poisson(mu),
    so the scaled draws have less relative spread and fewer zeros: their
    means and bands, the binary kinds' means too, move by up to about 1e-3."""
    c = 2.0**10
    scaled = _flows_times_1024(zip_panel, tmp_path)
    runs = {}
    for run, panel in (("a", zip_panel), ("b", scaled)):
        run_pipeline(write_config(tmp_path / f"{run}.json", panel, tmp_path / run,
                                  models=["PPML"]))
        runs[run] = tmp_path / run
    for year in (1995, 2000):
        fit_a, fit_b, report_a, report_b = (
            json.loads((runs[run] / str(year) / "PPML" / name).read_text())
            for name in ("fit.json", "report.json") for run in "ab"
        )
        for a, b in zip(fit_a["coefficients"], fit_b["coefficients"]):
            shift = math.log(c) if a["name"] == "const" else 0.0
            assert abs(b["estimate"] - shift - a["estimate"]) <= 1e-8 * a["std_error"], a["name"]
        for a, b in zip(report_a["statistics"], report_b["statistics"]):
            kind = a["kind"]
            for key in ("kind", "ks_d", "ks_p", "ks_n_observed", "ks_n_predicted"):
                assert a[key] == b[key], (year, kind, key)
            for key in ("m", "n_dropped"):
                assert a["ensemble"][key] == b["ensemble"][key], (year, kind, key)
            if kind in WEIGHTED_KINDS:
                exact = not kind.startswith("WCC")
                assert math.isclose(b["observed_avg"], c * a["observed_avg"],
                                    rel_tol=0.0 if exact else 1e-12), (year, kind)
                assert math.isclose(b["predicted_avg"], c * a["predicted_avg"],
                                    rel_tol=1e-12), (year, kind)
            else:
                assert b["observed_avg"] == a["observed_avg"], (year, kind)
                assert b["predicted_avg"] == a["predicted_avg"], (year, kind)
        for a, b in zip(report_a["correlations"], report_b["correlations"]):
            for key in ("observed_r", "predicted_r"):
                same = math.isnan(a[key]) and math.isnan(b[key])
                assert same or abs(a[key] - b[key]) <= 1e-12, (year, a["x"], a["y"])


@pytest.mark.parametrize("flags,field", [
    pytest.param(["--noise", "lognormal", "--sigma-log", "nan"], "sigma_log", id="sigma-log-nan"),
    pytest.param(["--mean-zero-score", "nan"], "mean_zero_score", id="mean-zero-score-nan"),
    pytest.param(["--mean-log-flow", "nan"], "mean_log_flow", id="mean-log-flow-nan"),
    pytest.param(["--mean-log-flow", "inf"], "mean_log_flow", id="mean-log-flow-inf"),
    pytest.param(["--mean-log-flow", "900"], "mean_log_flow", id="mean-log-flow-900"),
    pytest.param(["--noise", "poisson", "--mean-log-flow", "900"], "mean_log_flow",
                 id="poisson-mean-log-flow-900"),
    pytest.param(["--noise", "lognormal", "--mean-log-flow", "900"], "mean_log_flow",
                 id="lognormal-mean-log-flow-900"),
    pytest.param(["--gamma-slopes", "1,nan,-1,0.4,0.3"], "gamma_slopes", id="gamma-slopes-nan"),
    pytest.param(["--theta-slopes", "1e308,-0.7,0.9,-0.5,-0.4"], "theta_slopes",
                 id="theta-slopes-overflow"),
    pytest.param(["--seed", str(2**64)], "seed", id="seed-2**64"),
    pytest.param(["--years", f"2000,{2**64}"], "years", id="years-2**64"),
])
def test_synth_refuses_what_it_cannot_draw(tmp_path, capsys, flags, field):
    """A spec whose values numpy cannot draw, or that would write a NaN,
    exits 2 naming the field, and makes no output directory."""
    out = tmp_path / "panel"
    assert main(["synth", "--out", str(out), "--n-countries", "8", *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("gravnet: error: ") and field in err, err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# run log and command-line surface


_RECORD_BASE = {"ts", "command", "message", "duration_s", "peak_rss_mb", "panel"}
_CELL_FIELDS = {
    "fit": _RECORD_BASE | {"year", "model", "loglik", "converged", "iterations"},
    "predict": _RECORD_BASE | {"year", "model"},
    "netstats": _RECORD_BASE | {"year", "model"},
    "compare": _RECORD_BASE | {"year", "model", "replications", "draw_s", "minflt", "n_dropped"},
}


def test_every_stage_logs_its_cells_in_order_with_the_same_fields(zip_panel, tmp_path,
                                                                  monkeypatch):
    """A two-year pipeline logs one record per (year, model) cell of fit,
    predict, netstats and compare, in cell order, then one record of report;
    each record has its command's field names (ZIP's fit also its Vuong z),
    and the sequence, messages included, is the same in process and pooled."""
    want = [(command, year, tag) for command in _CELL_FIELDS
            for year in (1995, 2000) for tag in MODEL_TAGS]
    want.append(("report", None, None))
    sequences = {}
    for workers in (1, 2):
        monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: workers)
        out = tmp_path / f"workers{workers}"
        run_pipeline(write_config(tmp_path / f"cfg{workers}.json", zip_panel, out))
        records = [json.loads(line) for line in (out / LOG_NAME).read_text().splitlines()]
        assert [(r["command"], r.get("year"), r.get("model")) for r in records] == want
        for r in records:
            if r["command"] == "report":
                expected = _RECORD_BASE | {"years", "models"}
            else:
                expected = _CELL_FIELDS[r["command"]] | (
                    {"vuong_z"} if (r["command"], r["model"]) == ("fit", "ZIP") else set())
            assert set(r) == expected, r
            assert r["message"].startswith(
                "aggregated " if r["command"] == "report"
                else f"year {r['year']} model {r['model']}: "), r
        sequences[workers] = [(r["command"], r.get("year"), r.get("model"), r["message"])
                              for r in records]
    assert sequences[1] == sequences[2]


def test_only_compare_keeps_freed_memory_once_per_stage(zip_panel, tmp_path, monkeypatch):
    """``_keep_freed_memory`` runs once in each compare stage and in no other
    stage: process-wide, a raised mmap threshold slows fit.  The cells run
    in this process, so a call made for a cell would be counted too."""
    calls = []
    monkeypatch.setattr(gravnet.cli, "_keep_freed_memory", lambda: calls.append(None))
    monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: 1)
    config = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", replications=8)
    counts = []
    for command in ("fit", "predict", "netstats", "compare", "report", "compare"):
        run_pipeline(config, (command,))
        counts.append(len(calls))
    assert counts == [0, 0, 0, 1, 1, 2]


_SECOND_PASS_FAULTS = """
import resource
import numpy as np
from gravnet.cli import _keep_freed_memory
from gravnet.compare import REPORT_KINDS, ensemble_summary
from gravnet.prediction import PredictedWeights, stream_weighted_ensemble
_keep_freed_memory()
n = 100
level = np.random.default_rng(41).uniform(0.0, 20.0, size=(n, n))
np.fill_diagonal(level, 0.0)
pred = PredictedWeights("PPML", tuple(f"C{i:03d}" for i in range(n)), level)
stream = stream_weighted_ensemble(pred, 120, seed=5)
ensemble_summary(stream, REPORT_KINDS)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ensemble_summary(stream, REPORT_KINDS)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
def test_a_compare_block_keeps_its_memory_mapped():
    """With the compare thresholds set, a second ``ensemble_summary`` of 20
    blocks of six 100-node networks faults in less than one block's 512 KiB
    (128 pages of 4 KiB): every block reuses the pages the first pass
    mapped.  It runs in a fresh process, since this one's thresholds depend
    on the tests before it."""
    src = os.path.dirname(os.path.dirname(gravnet.cli.__file__))
    done = subprocess.run([sys.executable, "-c", _SECOND_PASS_FAULTS],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 128


_RUN_FLAGS = ["--config", "--dyads", "--countries", "--out", "--years", "--models",
              "--covariates", "--replications", "--seed"]


def test_the_parser_offers_each_command_with_its_help_and_flags():
    parser = gravnet.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {a.dest: a.help for a in commands._choices_actions} == {
        "synth": "generate a synthetic dyad panel with recorded parameters",
        "fit": "estimate the configured models year by year",
        "predict": "write predicted weight and link-probability matrices",
        "netstats": "tabulate observed and predicted node statistics",
        "compare": "K-S tests and ensemble bands against the observed network",
        "report": "aggregate per-cell reports into flat CSV tables",
    }
    assert list(commands.choices) == ["synth", "fit", "predict", "netstats", "compare",
                                      "report"]
    for name, sub in commands.choices.items():
        flags = [flag for action in sub._actions for flag in action.option_strings
                 if flag not in ("-h", "--help")]
        if name != "synth":
            assert flags == _RUN_FLAGS, name
        args = parser.parse_args([name, "--out", "x"])
        assert args.command == name and callable(args.func), name


# ---------------------------------------------------------------------------
# damaged manifest


_DAMAGED_MANIFESTS = {
    "truncated": b'{"artifacts": {"1995/OLS/fit.json": "ab',
    "list": b'["artifacts"]',
    "not-utf8": b'{"artifacts": {"\xff": "00"}}',
    "null-artifacts": b'{"artifacts": null}',
    "directory": None,
}


def tree_listing(out) -> dict:
    """Relative path -> bytes (None for a directory) of everything under ``out``."""
    return {str(path.relative_to(out)): None if path.is_dir() else path.read_bytes()
            for path in sorted(out.rglob("*"))}


@pytest.mark.parametrize("damage", list(_DAMAGED_MANIFESTS))
@pytest.mark.parametrize("command", ["synth", "fit", "predict", "netstats", "compare", "report"])
def test_a_damaged_manifest_exits_4_naming_it_and_changes_nothing(zip_panel, tmp_path, capsys,
                                                                  command, damage):
    out = tmp_path / "out"
    out.mkdir()
    if _DAMAGED_MANIFESTS[damage] is None:
        (out / MANIFEST_NAME).mkdir()
    else:
        (out / MANIFEST_NAME).write_bytes(_DAMAGED_MANIFESTS[damage])
    before = tree_listing(out)
    if command == "synth":
        argv = ["synth", "--out", str(out), "--n-countries", "6"]
    else:
        argv = [command, "--config", write_config(tmp_path / "cfg.json", zip_panel, out)]
    assert main(argv) == EXIT_DEPENDENCY
    err = capsys.readouterr().err
    assert err.startswith("gravnet: error: ") and str(out / MANIFEST_NAME) in err, err
    assert tree_listing(out) == before


# ---------------------------------------------------------------------------
# artifact writes


def test_each_command_writes_its_artifacts_in_one_fixed_order(zip_panel, tmp_path, monkeypatch):
    """Each run command hands ``_Stage.write`` its artifacts in one fixed
    order, the order they are renamed into place in: fit a year's four
    ``fit.json`` and then the year's coefficient table, predict each cell's
    artifacts in the order the cell yields them, netstats a year's observed
    table before its cells, compare one report per cell, and report its
    four tables."""
    written = []
    write = gravnet.cli._Stage.write

    def recording(stage, rel, text):
        written.append(rel)
        return write(stage, rel, text)

    monkeypatch.setattr(gravnet.cli._Stage, "write", recording)
    monkeypatch.setattr(gravnet.cli, "_usable_cpus", lambda: 1)
    config = write_config(tmp_path / "cfg.json", zip_panel, tmp_path / "out", replications=8)
    years = (1995, 2000)
    predicted = {"OLS": ["prediction.json"], "PPML": ["prediction.json"],
                 "ZIP": ["prediction.json", "xi.json", "binary.json"],
                 "LOGIT": ["xi.json", "binary.json"]}
    want = {
        "fit": [rel for y in years for rel in
                [f"{y}/{tag}/fit.json" for tag in MODEL_TAGS] + [f"{y}/coefficients.csv"]],
        "predict": [f"{y}/{tag}/{name}" for y in years for tag in MODEL_TAGS
                    for name in predicted[tag]],
        "netstats": [rel for y in years for rel in
                     [f"{y}/observed_stats.csv"] + [f"{y}/{tag}/node_stats.csv"
                                                    for tag in MODEL_TAGS]],
        "compare": [f"{y}/{tag}/report.json" for y in years for tag in MODEL_TAGS],
        "report": ["ks_tests.csv", "averages.csv", "correlations.csv", "summary.csv"],
    }
    for command, rels in want.items():
        written.clear()
        run_pipeline(config, (command,))
        assert written == rels, command


def test_a_report_that_fails_on_a_table_writes_and_logs_nothing(zip_panel, tmp_path, monkeypatch,
                                                                capsys):
    """A report refused while it writes its third table, with two tables
    pending, leaves no table, no temporary file, the manifest and the run
    log as they were."""
    out = tmp_path / "out"
    config = write_config(tmp_path / "cfg.json", zip_panel, out, replications=8)
    run_pipeline(config, ("fit", "predict", "netstats", "compare"))
    before = tree_listing(out)
    csv_text = gravnet.cli._csv_text

    def failing(header, rows):
        if tuple(header) == gravnet.cli._CORR_HEADER:
            raise ValidationError("no correlations")
        return csv_text(header, rows)

    monkeypatch.setattr(gravnet.cli, "_csv_text", failing)
    assert main(["report", "--config", config]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "gravnet: error: no correlations\n"
    for name in ("ks_tests.csv", "averages.csv", "correlations.csv", "summary.csv"):
        assert not (out / name).exists(), name
    assert list(out.rglob(".tmp-*")) == []
    records = [json.loads(line) for line in (out / LOG_NAME).read_text().splitlines()]
    assert "report" not in {r["command"] for r in records}
    assert tree_listing(out) == before


_TAKEN_PATHS = {
    "year-table-a-directory": ("fit", "2000/coefficients.csv"),
    "year-a-file": ("fit", "2000"),
    "manifest-lock-a-directory": ("predict", MANIFEST_LOCK_NAME),
    "panel-cache-a-directory": ("netstats", PANEL_CACHE_NAME),
    "run-log-a-directory": ("compare", LOG_NAME),
    "run-table-a-directory": ("report", "summary.csv"),
    "panel-file-a-directory": ("synth", "truth.json"),
    "panel-manifest-lock-a-directory": ("synth", MANIFEST_LOCK_NAME),
}


@pytest.mark.parametrize("case", list(_TAKEN_PATHS))
def test_a_path_taken_by_the_wrong_kind_of_entry_exits_2_and_changes_nothing(
        finished_tree, tmp_path, capsys, case):
    """A command whose artifact, or whose manifest lock, run log or panel
    cache, is taken by a directory, or must be made inside a file, exits 2
    naming it.  It renames no artifact and leaves no temporary file: the
    tree is as it was, but for the command's records of the work that ran,
    which say that it finished, not that its artifacts were kept."""
    root, args = finished_tree
    command, rel = _TAKEN_PATHS[case]
    if command == "synth":
        out = tmp_path / "panel"
        shutil.copytree(root / "panel", out)
        argv = ["synth", "--out", str(out), "--n-countries", "6", "--seed", "2"]
    else:
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        argv = [command, *(str(out) if arg == str(root / "out") else arg for arg in args)]
    taken = out / rel
    if taken.is_dir():
        shutil.rmtree(taken)
        taken.write_bytes(b"a file\n")
    else:
        taken.unlink(missing_ok=True)
        taken.mkdir()
    before = tree_listing(out)
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("gravnet: error: ") and repr(str(taken)) in err, err
    after = tree_listing(out)
    if before.get(LOG_NAME) is not None:
        old, new = before.pop(LOG_NAME), after.pop(LOG_NAME)
        assert new.startswith(old)
        added = [json.loads(line) for line in new[len(old):].decode("utf-8").splitlines()]
        assert {r["command"] for r in added} <= {command}, added
    assert after == before
    assert list(out.rglob(".tmp-*")) == []
