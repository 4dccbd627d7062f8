"""Command-line pipeline: fit gravity models, score their network predictions.

The pipeline is a chain of subcommands sharing one output directory::

    gravnet synth    # optional: synthetic dyad panel with recorded truth
    gravnet fit      # estimate the configured models year by year
    gravnet predict  # fits -> predicted weight / link-probability matrices
    gravnet netstats # node-statistic tables, observed and predicted
    gravnet compare  # K-S tests and ensemble bands per (year, model) cell
    gravnet report   # aggregate the per-cell reports into flat CSV tables

Artifacts live under ``out/<year>/<model>/`` and are hashed into a
top-level ``manifest.json`` when the producing command completes.  The
five run commands share one stage driver, ``_Stage``.  Before any work it
reads the manifest once and hashes every input artifact the stage's cells
declare, so a command whose inputs are missing or modified fails with the
name of the command to run and writes nothing.  A cell that reads an
input hashes the bytes it read against the manifest and parses those
same bytes, so what a stage uses is what it checked.  Every file is
written to a temporary name and renamed into place, so an interrupted
command never leaves a partial artifact.  ``run.log.jsonl`` carries one
timestamped record per logged event and is deliberately excluded from
the manifest: with the log set aside, two runs from the same
configuration and seed produce byte-identical output trees.

Randomness enters only through ensemble sampling at the compare stage.
Each (year, model) cell derives its own substream seed from the run
seed, so adding a year or a model to the configuration never shifts the
draws of the other cells.
"""

import argparse
import fcntl
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .compare import ModelPrediction, build_comparison_report, report_as_dict, report_from_dict
from .errors import ConvergenceError, DependencyError, ValidationError
from .estimation import (
    attach_vuong,
    fit_from_dict,
    fit_logit,
    fit_ols,
    fit_poisson_pml,
    fit_zip,
)
from .netstats import (
    STAT_KINDS,
    WEIGHT_TRANSFORMS,
    WEIGHTED_KINDS,
    TradeNetwork,
    all_statistics,
    density,
)
from .panel import (
    DESIGN_COLUMNS,
    SummaryStats,
    build_cross_section,
    build_design_matrix,
    load_panel,
    summary_stats,
)
from .prediction import (
    DEFAULT_REPLICATIONS,
    LinkProbabilityMatrix,
    PredictedWeights,
    density_induced_binary,
    link_probabilities,
    predict_ols,
    predict_ppml,
    predict_zip,
    stream_bernoulli_ensemble,
    stream_weighted_ensemble,
    threshold_by_manhattan,
    threshold_matching_density,
)
from .synth import NOISE_KINDS, SynthSpec, _write_csv, _write_json, write_synth_panel

MODEL_TAGS = ("OLS", "PPML", "ZIP", "LOGIT")

# Fixed per-model codes keep cell seeds stable when the model set changes.
MODEL_CODES = {"OLS": 1, "PPML": 2, "ZIP": 3, "LOGIT": 4}

# The log-linear comparison happens on the log scale; the level models
# are compared in levels.  Values name the transform of the observed side.
DEFAULT_TRANSFORMS = {
    "OLS": "log_positive",
    "PPML": "identity",
    "ZIP": "identity",
    "LOGIT": "identity",
}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_DEPENDENCY = 4

MANIFEST_NAME = "manifest.json"
MANIFEST_LOCK_NAME = "manifest.json.lock"
LOG_NAME = "run.log.jsonl"

_SEED_LIMIT = 2**63


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run: input paths, cell grid, sampling budget, output tree.

    ``years`` empty means every year present in the panel.  ``transforms``
    maps model tags to the weight transform under which that model's
    comparison against the observed network is carried out; the log-linear
    model predicts logs directly and the logit predicts an adjacency, so
    their own statistics always use the identity transform and their
    configured value applies to the observed side only.
    """

    dyads: str
    countries: str
    out: str
    years: tuple = ()
    models: tuple = MODEL_TAGS
    covariates: tuple = DESIGN_COLUMNS
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    transforms: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dyads", "countries", "out"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValidationError(f"config field {name!r} must be a non-empty path")
        for name in ("dyads", "countries"):
            if not os.path.isfile(getattr(self, name)):
                raise ValidationError(f"{name} file not found: {getattr(self, name)!r}")
        for name, kind, what in (
            ("years", (list, tuple), "a list"),
            ("models", (list, tuple), "a list"),
            ("covariates", (list, tuple), "a list"),
            ("replications", int, "an integer"),
            ("seed", int, "an integer"),
            ("transforms", dict, "an object"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValidationError(f"config field {name!r} must be {what}, got {value!r}")
        if not all(isinstance(y, int) and not isinstance(y, bool) for y in self.years):
            raise ValidationError(f"config field 'years' must list integers, got {self.years!r}")
        if len(set(self.years)) != len(self.years):
            raise ValidationError(f"config field 'years' lists a year twice, got {self.years!r}")
        object.__setattr__(self, "years", tuple(self.years))
        models = tuple(self.models)
        if not models:
            raise ValidationError("models must be non-empty")
        unknown = [m for m in models if m not in MODEL_TAGS]
        if unknown:
            raise ValidationError(
                f"unknown model(s) {unknown}; expected a subset of {list(MODEL_TAGS)}"
            )
        object.__setattr__(self, "models", tuple(t for t in MODEL_TAGS if t in models))
        covariates = tuple(self.covariates)
        if not covariates:
            raise ValidationError("covariates must be non-empty")
        bad = [c for c in covariates if c not in DESIGN_COLUMNS]
        if bad:
            raise ValidationError(f"unknown covariate(s) {bad}")
        if len(set(covariates)) != len(covariates):
            raise ValidationError("duplicate covariate requested")
        object.__setattr__(self, "covariates", covariates)
        if self.replications < 2:
            # compare summarises each ensemble over at least two draws
            raise ValidationError(
                f"config field 'replications' must be at least 2, got {self.replications}"
            )
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError(f"seed must lie in [0, 2**63), got {self.seed}")
        transforms = dict(DEFAULT_TRANSFORMS)
        for tag, transform in self.transforms.items():
            if tag not in MODEL_TAGS:
                raise ValidationError(f"transform given for unknown model {tag!r}")
            if transform not in WEIGHT_TRANSFORMS:
                raise ValidationError(
                    f"unknown transform {transform!r} for model {tag}; "
                    f"expected one of {WEIGHT_TRANSFORMS}"
                )
            transforms[tag] = transform
        object.__setattr__(self, "transforms", transforms)


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))


def load_config(path=None, overrides=None) -> RunConfig:
    """Merge defaults, an optional JSON config file, and CLI overrides.

    Precedence is CLI > file > defaults; override entries that are None
    count as not given.  The file must hold a single JSON object whose
    keys are RunConfig field names.
    """
    merged = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {path!r}")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path!r} must hold a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValidationError(f"unknown config key(s) {unknown}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    missing = [k for k in ("dyads", "countries", "out") if k not in merged]
    if missing:
        raise ValidationError(f"missing required config field(s) {missing}")
    return RunConfig(**merged)


def cell_seed(seed: int, year: int, model_tag: str) -> int:
    """Substream seed for one (year, model) cell.

    A fixed affine combination of the run seed, the year, and the model
    code, so each cell's draws depend on nothing but its own coordinates.
    """
    return (seed * 1_000_003 + year * 1009 + MODEL_CODES[model_tag]) % _SEED_LIMIT


# ---------------------------------------------------------------------------
# artifact plumbing


def _artifact_path(out: str, rel: str) -> str:
    # manifest keys use forward slashes on every platform
    return os.path.join(out, *rel.split("/"))


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_manifest(out: str) -> dict:
    path = os.path.join(out, MANIFEST_NAME)
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("artifacts", {})


def _record_artifacts(out: str, relpaths) -> None:
    """Merge freshly written artifacts into the manifest.

    Called once per successful command, so the manifest only ever lists
    output from commands that ran to completion.  The read-merge-write
    holds an exclusive lock on ``manifest.json.lock``, so commands that
    finish at the same time in one output directory keep each other's
    entries; the manifest itself is replaced atomically.
    """
    digests = {rel: _hash_file(_artifact_path(out, rel)) for rel in relpaths}
    with open(os.path.join(out, MANIFEST_LOCK_NAME), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        artifacts = _load_manifest(out)
        artifacts.update(digests)
        _write_json(os.path.join(out, MANIFEST_NAME), {"artifacts": artifacts})


def _log(out: str, command: str, message: str, duration_s: float, **fields_) -> None:
    """One human-readable line on stdout, one JSON record in the run log.

    ``duration_s`` is the wall time of the work the record reports; the
    record also carries the process's peak resident set size so far.
    """
    print(f"gravnet {command}: {message}")
    record = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "command": command,
        "message": message,
        "duration_s": duration_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(fields_)
    with open(os.path.join(out, LOG_NAME), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


class _Stage:
    """One run command: its config, panel and years, verified inputs, and
    the artifacts it writes.

    Construction does all that can refuse the command, before any work:
    it builds the config, makes ``out/``, loads the panel, resolves the
    years, reads the manifest once and checks against it every input the
    cells declare, ``<year>/<tag>/<name>`` for each ``name`` in
    ``inputs(tag)``.  A refused command therefore writes nothing; a
    missing or modified input names ``producer``, the command to rerun.
    """

    def __init__(self, args, name: str, producer: str = "", inputs=lambda tag: ()):
        self.name, self.producer = name, producer
        # every config field but ``transforms`` has a flag of its own name
        overrides = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
        self.cfg = cfg = load_config(args.config, overrides)
        os.makedirs(cfg.out, exist_ok=True)
        self.panel = load_panel(cfg.dyads, cfg.countries)
        years = cfg.years or self.panel.years
        missing = [y for y in years if y not in self.panel.years]
        if missing:
            raise ValidationError(
                f"year(s) {missing} not present in the panel; it has {list(self.panel.years)}"
            )
        self.years = tuple(years)
        self._written = []
        self._digests = _load_manifest(cfg.out)
        for year in self.years:
            for tag in cfg.models:
                for base in inputs(tag):
                    self._checked_bytes(f"{year}/{tag}/{base}")

    def _checked_bytes(self, rel: str) -> bytes:
        path = _artifact_path(self.cfg.out, rel)
        if rel not in self._digests or not os.path.isfile(path):
            raise DependencyError(f"missing artifact {rel}: run 'gravnet {self.producer}' first")
        with open(path, "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != self._digests[rel]:
            raise DependencyError(
                f"artifact {rel} does not match the manifest: rerun 'gravnet {self.producer}'"
            )
        return data

    def read(self, rel: str):
        """An input's JSON, parsed from the bytes just checked against the manifest."""
        return json.loads(self._checked_bytes(rel))

    def _target(self, rel: str) -> str:
        path = _artifact_path(self.cfg.out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._written.append(rel)
        return path

    def write_json(self, rel: str, payload) -> None:
        _write_json(self._target(rel), payload)

    def write_cell(self, year: int, tag: str, name: str, payload: dict) -> None:
        """A cell artifact: ``payload`` plus the cell's ``model`` and ``year``."""
        self.write_json(f"{year}/{tag}/{name}", {**payload, "model": tag, "year": year})

    def write_csv(self, rel: str, header, rows) -> None:
        _write_csv(self._target(rel), header, rows)

    def cells(self, year: int):
        """Yield ``(tag, note)`` for each configured model of ``year``.

        When the cell's work is done, it is logged with its wall time:
        ``note["message"]`` after the cell's name, the rest of ``note``
        as record fields.
        """
        for tag in self.cfg.models:
            started = time.perf_counter()
            note = {}
            yield tag, note
            message = f"year {year} model {tag}: {note.pop('message')}"
            duration_s = time.perf_counter() - started
            _log(self.cfg.out, self.name, message, duration_s, year=year, model=tag, **note)

    def record(self) -> None:
        """Merge every artifact this stage wrote into the manifest, once."""
        _record_artifacts(self.cfg.out, self._written)


def _design_matrices(cfg: RunConfig, panel, cs):
    """(positive-flow, full) design matrices of one cross-section; each is
    None when no configured model needs it."""
    dm_pos = dm_full = None
    if "OLS" in cfg.models:
        dm_pos = build_design_matrix(cs, panel, cfg.covariates, positive_only=True)
    if any(tag != "OLS" for tag in cfg.models):
        dm_full = build_design_matrix(cs, panel, cfg.covariates)
    return dm_pos, dm_full


# ---------------------------------------------------------------------------
# fit artifacts


def _fit_one(tag: str, year: int, dm_pos, dm_full):
    try:
        if tag == "OLS":
            return fit_ols(dm_pos)
        if tag == "PPML":
            return fit_poisson_pml(dm_full)
        if tag == "LOGIT":
            return fit_logit(dm_full)
        return fit_zip(dm_full)
    except (ConvergenceError, ValidationError) as exc:
        # name the cell but keep the exception itself: its subtype and
        # payload (trace, collinear columns) must reach the caller
        exc.args = (f"year {year} model {tag}: {exc}",)
        raise


def _variant_fits(fits: dict) -> list:
    """(label, FitResult) per table column; ``fits`` is in MODEL_TAGS order
    and ZIP expands in place, poisson part first."""
    variants = []
    for tag, fit in fits.items():
        if tag == "ZIP":
            variants.append(("ZIP_poisson", fit.poisson_part))
            variants.append(("ZIP_logit", fit.logit_part))
        else:
            variants.append((tag, fit))
    return variants


def _significance(estimate: float, se: float) -> str:
    from scipy.special import ndtr

    if not np.isfinite(se) or se <= 0.0:
        return ""
    p = 2.0 * float(ndtr(-abs(estimate / se)))
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _coefficient_table(covariates, fits: dict):
    """Wide per-year table: regressor rows, one column per model variant."""
    variants = _variant_fits(fits)
    header = ["regressor"] + [label for label, _ in variants]
    rows = []
    for k, name in enumerate(covariates):
        row = [name]
        for _, fit in variants:
            est = float(fit.coefficients[k])
            se = float(fit.std_errors[k])
            row.append(f"{est:.4g}{_significance(est, se)}({se:.4g})")
        rows.append(row)
    for name, spec in (("n_obs", "d"), ("r2_or_pseudo", ".4g"), ("loglik", ".6g")):
        rows.append([name] + [format(getattr(fit, name), spec) for _, fit in variants])
    zip_fit = fits.get("ZIP")
    if zip_fit is not None and zip_fit.vuong_vs_poisson is not None:
        vuong = f"{zip_fit.vuong_vs_poisson:.4g}"
        rows.append(["vuong_z"] + [vuong if lab == "ZIP_poisson" else "" for lab, _ in variants])
    return header, rows


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> None:
    """Write a synthetic dyad panel whose generating parameters are recorded."""
    # each SynthSpec field has a flag of its own name; unset flags keep the default
    given = {f.name: getattr(args, f.name) for f in fields(SynthSpec)}
    spec = SynthSpec(**{name: value for name, value in given.items() if value is not None})
    started = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    paths = write_synth_panel(spec, args.out)
    _record_artifacts(args.out, sorted(os.path.basename(p) for p in paths.values()))
    _log(
        args.out,
        "synth",
        f"wrote a {spec.noise} panel of {spec.n_countries} countries "
        f"for {len(spec.years)} year(s)",
        time.perf_counter() - started,
        n_countries=spec.n_countries,
        noise=spec.noise,
        seed=spec.seed,
        years=list(spec.years),
    )


def cmd_fit(args) -> None:
    """Estimate every configured (year, model) cell and write fit artifacts."""
    stage = _Stage(args, "fit")
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        dm_pos, dm_full = _design_matrices(stage.cfg, stage.panel, cs)
        fits = {}
        for tag, note in stage.cells(year):
            fit = _fit_one(tag, year, dm_pos, dm_full)
            if tag == "ZIP" and "PPML" in fits:  # models run in MODEL_TAGS order
                fit = attach_vuong(fit, fits["PPML"], dm_full)
            fits[tag] = fit
            stage.write_cell(year, tag, "fit.json", fit.as_dict())
            vuong = fit.vuong_vs_poisson if tag == "ZIP" else None
            note.update(
                message=f"loglik {fit.loglik:.6g}",
                loglik=fit.loglik,
                converged=bool(fit.converged),
                iterations=fit.iterations,
                **({} if vuong is None else {"vuong_z": vuong}),
            )
        table = _coefficient_table(stage.cfg.covariates, fits)
        stage.write_csv(f"{year}/coefficients.csv", *table)
    stage.record()


def cmd_predict(args) -> None:
    """Turn fit artifacts into predicted matrices, one set per cell."""
    stage = _Stage(args, "predict", "fit", lambda tag: ("fit.json",))
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        dm_pos, dm_full = _design_matrices(stage.cfg, stage.panel, cs)
        rho = density(cs.network())
        for tag, note in stage.cells(year):
            fit = fit_from_dict(stage.read(f"{year}/{tag}/fit.json"))
            if tag != "LOGIT":
                # looked up per call, so a rebinding of a layer function is seen
                predict = {"OLS": predict_ols, "PPML": predict_ppml, "ZIP": predict_zip}[tag]
                pred = predict(fit, dm_pos if tag == "OLS" else dm_full)
                stage.write_cell(year, tag, "prediction.json", pred.as_dict())
            if tag in _LINK_MODELS:
                lp = link_probabilities(fit, dm_full)
                stage.write_cell(year, tag, "xi.json", lp.as_dict())
                induced = density_induced_binary(lp, rho)
                binary = {
                    "country_ids": list(lp.country_ids),
                    "adjacency": induced.adjacency.astype(int).tolist(),
                    "density_induced": induced.as_dict(),
                    "matched_density": threshold_matching_density(lp, rho).as_dict(),
                    "manhattan": threshold_by_manhattan(lp, cs.adjacency).as_dict(),
                }
                stage.write_cell(year, tag, "binary.json", binary)
            note["message"] = "predictions written"
    stage.record()


# the models whose fit gives link probabilities: they write xi.json and binary.json
_LINK_MODELS = ("ZIP", "LOGIT")


def _network_artifact(tag: str) -> str:
    """The predict artifact a cell's point network is read from: the
    logit's thresholded adjacency, every other model's predicted weights."""
    return "binary.json" if tag == "LOGIT" else "prediction.json"


def _cell_network(stage: _Stage, year: int, tag: str):
    """Point-prediction network of one cell, read back from predict artifacts.

    Returns (country_ids, network, transform, pred) where the transform is
    the one under which this network's weighted statistics are meaningful
    and ``pred`` is the decoded PredictedWeights (None for the logit,
    whose network is its thresholded adjacency).
    """
    payload = stage.read(f"{year}/{tag}/{_network_artifact(tag)}")
    if tag == "LOGIT":
        a = np.array(payload["adjacency"], dtype=np.int8)
        net = TradeNetwork(a.astype(float), a)
        return tuple(payload["country_ids"]), net, "identity", None
    pred = PredictedWeights.from_dict(payload)
    if tag == "OLS":
        # predicted logs on the observed support; already on the log scale
        return pred.country_ids, TradeNetwork(pred.value, pred.mask), "identity", pred
    return pred.country_ids, TradeNetwork(pred.value), stage.cfg.transforms[tag], pred


def _stats_rows(net: TradeNetwork, ids, transforms) -> list:
    """Long-format node-statistic rows; binary kinds are transform-free."""
    stats = {}
    for transform in transforms:
        # binary kinds do not read the weights: take them with the first
        kinds = WEIGHTED_KINDS if stats else STAT_KINDS
        for kind, stat in all_statistics(net, kinds, transform).items():
            stats[kind, transform if kind in WEIGHTED_KINDS else ""] = stat
    rows = []
    for kind in STAT_KINDS:
        for transform in transforms if kind in WEIGHTED_KINDS else ("",):
            stat = stats[kind, transform]
            for k, cid in enumerate(ids):
                value = float(stat.values[k]) if stat.defined[k] else None
                rows.append((cid, kind, transform, value))
    return rows


_STATS_FIELDS = ("country_id", "kind", "transform", "value")


def cmd_netstats(args) -> None:
    """Tabulate node statistics for the observed and predicted networks."""
    stage = _Stage(args, "netstats", "predict", lambda tag: (_network_artifact(tag),))
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        rows = _stats_rows(cs.network(), cs.country_ids, ("identity", "log_positive"))
        stage.write_csv(f"{year}/observed_stats.csv", _STATS_FIELDS, rows)
        for tag, note in stage.cells(year):
            ids, net, transform, _ = _cell_network(stage, year, tag)
            rows = _stats_rows(net, ids, (transform,))
            stage.write_csv(f"{year}/{tag}/node_stats.csv", _STATS_FIELDS, rows)
            note["message"] = "statistics written"
    stage.record()


def _cell_prediction(stage: _Stage, year: int, tag: str) -> ModelPrediction:
    """ModelPrediction of one cell, its ensemble streamed from the cell's seed."""
    cfg = stage.cfg
    seed = cell_seed(cfg.seed, year, tag)
    _, net, transform, pred = _cell_network(stage, year, tag)
    lp = None
    if tag in _LINK_MODELS:
        lp = LinkProbabilityMatrix.from_dict(stage.read(f"{year}/{tag}/xi.json"))
    if tag == "LOGIT":
        ensemble = stream_bernoulli_ensemble(lp, cfg.replications, seed)
    else:
        ensemble = stream_weighted_ensemble(pred, cfg.replications, seed, link_probs=lp)
    return ModelPrediction(net, ensemble, transform)


def cmd_compare(args) -> None:
    """K-S tests and ensemble bands for every cell against the observed ITN."""
    stage = _Stage(
        args, "compare", "predict",
        # the point network, and the link probabilities the ensemble draws from
        lambda tag: (_network_artifact(tag), *(("xi.json",) if tag in _LINK_MODELS else ())),
    )
    cfg = stage.cfg
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        observed = cs.network()
        for tag, note in stage.cells(year):
            report = build_comparison_report(
                observed,
                cs.country_ids,
                {tag: _cell_prediction(stage, year, tag)},
                year=year,
                observed_transform=cfg.transforms[tag],
            )
            stage.write_json(f"{year}/{tag}/report.json", report_as_dict(report))
            note.update(
                message=f"report written ({cfg.replications} replications)",
                replications=cfg.replications,
                n_dropped={s.kind: s.summary.n_dropped for s in report.statistics if s.summary},
            )
    stage.record()


_KS_HEADER = ("year", "model", "kind", "d_statistic", "p_value", "n_observed", "n_predicted")
_AVG_HEADER = ("year", "model", "kind", "observed", "predicted",
               "ci_low", "ci_high", "ensemble_mean")
_CORR_HEADER = ("year", "model", "x", "y", "observed_r", "predicted_r")


def _report_tables(reports) -> tuple:
    """(ks_tests, averages, correlations) rows of ``(year, report)`` pairs;
    a statistic with no ensemble leaves its band columns empty."""
    ks_rows, avg_rows, corr_rows = [], [], []
    for year, report in reports:
        for s in report.statistics:
            ks = s.ks
            ks_rows.append((year, s.model_tag, s.kind, ks.d_statistic, ks.p_value, ks.n1, ks.n2))
            e = s.summary
            band = (None, None, None) if e is None else (e.ci_low, e.ci_high, e.mean)
            avg_rows.append((year, s.model_tag, s.kind, s.observed_avg, s.predicted_avg, *band))
        for c in report.correlations:
            corr_rows.append((year, c.model_tag, c.kind_x, c.kind_y, c.observed_r, c.predicted_r))
    return ks_rows, avg_rows, corr_rows


def cmd_report(args) -> None:
    """Aggregate per-cell comparison reports into flat CSV tables."""
    started = time.perf_counter()
    stage = _Stage(args, "report", "compare", lambda tag: ("report.json",))
    cfg = stage.cfg
    ks_rows, avg_rows, corr_rows = _report_tables(
        (year, report_from_dict(stage.read(f"{year}/{tag}/report.json")))
        for year in stage.years
        for tag in cfg.models
    )
    summaries = [summary_stats(build_cross_section(stage.panel, y)) for y in stage.years]
    stage.write_csv("ks_tests.csv", _KS_HEADER, ks_rows)
    stage.write_csv("averages.csv", _AVG_HEADER, avg_rows)
    stage.write_csv("correlations.csv", _CORR_HEADER, corr_rows)
    stage.write_csv("summary.csv", [f.name for f in fields(SummaryStats)], map(astuple, summaries))
    stage.record()
    _log(
        cfg.out,
        "report",
        f"aggregated {len(stage.years)} year(s) x {len(cfg.models)} model(s)",
        time.perf_counter() - started,
        years=list(stage.years),
        models=list(cfg.models),
    )


# ---------------------------------------------------------------------------
# argument parsing


def _list_of(kind, what: str):
    def parse(text: str):
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _name_list(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_run_arguments(sub) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--dyads", help="dyad CSV path")
    sub.add_argument("--countries", help="country CSV path")
    sub.add_argument("--out", help="output directory")
    sub.add_argument(
        "--years", type=_int_list, help="comma-separated years (default: all in the panel)"
    )
    sub.add_argument(
        "--models", type=_name_list, help=f"comma-separated subset of {', '.join(MODEL_TAGS)}"
    )
    sub.add_argument("--covariates", type=_name_list, help="comma-separated design columns")
    sub.add_argument("--replications", type=int, help="ensemble size")
    sub.add_argument("--seed", type=int, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravnet",
        description="Gravity-model trade pipeline: estimation, prediction, "
        "and network-statistic comparison.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    synth = commands.add_parser(
        "synth", help="generate a synthetic dyad panel with recorded parameters"
    )
    synth.add_argument("--out", required=True, help="directory for the panel files")
    synth.add_argument("--n-countries", type=int, help="number of countries (default 50)")
    synth.add_argument("--years", type=_int_list, help="comma-separated years (default 2000)")
    synth.add_argument("--noise", choices=NOISE_KINDS, help="flow noise process (default zip)")
    synth.add_argument("--seed", type=int, help="generator seed (default 0)")
    synth.add_argument("--mean-log-flow", type=float, help="average log flow level")
    synth.add_argument("--mean-zero-score", type=float, help="average zero-stage score")
    synth.add_argument("--sigma-log", type=float, help="lognormal noise scale")
    synth.add_argument("--gamma-slopes", type=_float_list, help="flow-stage slope overrides")
    synth.add_argument("--theta-slopes", type=_float_list, help="zero-stage slope overrides")
    synth.set_defaults(func=cmd_synth)

    for name, func, help_text in (
        ("fit", cmd_fit, "estimate the configured models year by year"),
        ("predict", cmd_predict, "write predicted weight and link-probability matrices"),
        ("netstats", cmd_netstats, "tabulate observed and predicted node statistics"),
        ("compare", cmd_compare, "K-S tests and ensemble bands against the observed network"),
        ("report", cmd_report, "aggregate per-cell reports into flat CSV tables"),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_run_arguments(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; map the error taxonomy onto process exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DependencyError as exc:
        return _fail(EXIT_DEPENDENCY, exc)
    except ConvergenceError as exc:
        return _fail(EXIT_CONVERGENCE, exc)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, exc)
    return EXIT_OK


def _fail(code: int, exc: Exception) -> int:
    print(f"gravnet: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
