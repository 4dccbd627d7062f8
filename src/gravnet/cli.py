"""Command-line pipeline: fit gravity models, score their network predictions.

The pipeline is a chain of subcommands sharing one output directory::

    gravnet synth    # optional: synthetic dyad panel with recorded truth
    gravnet fit      # estimate the configured models year by year
    gravnet predict  # fits -> predicted weight / link-probability matrices
    gravnet netstats # node-statistic tables, observed and predicted
    gravnet compare  # K-S tests and ensemble bands per (year, model) cell
    gravnet report   # aggregate the per-cell reports into flat CSV tables

Artifacts live under ``out/<year>/<model>/`` and are hashed into a
top-level ``manifest.json`` when the producing command completes.  Each
command of (year, model) cells is a row of ``STAGES``, and one driver,
``_run_stage``, runs every row: it alone writes a cell's artifacts and
logs the cell.  ``report``, which has no cells, runs apart.  Each builds
a ``_Stage``, which before any work reads the manifest once and hashes
every input artifact the cells declare, so a command whose manifest is
damaged, or whose inputs are missing or modified, writes nothing; a
missing or modified input names the command to run.  A cell hashes the
bytes it reads against the manifest and parses those same bytes.  Each
cell's work runs in one scope, ``_cell``, which times it for the cell's
log record and names the cell in a validation or convergence error,
whichever process ran it.  Artifacts are renamed into place from
temporary names only when the command completes, so a command that fails
or is interrupted leaves every artifact and the manifest as they were.
``MODELS`` is the one place where a model's seed code, design, scale,
fit and predict functions and link artifacts are stated; each stage reads
its row.  Each model is compared on the scale it predicts, its row's
``scale``, a key of ``netstats.SCALES``: OLS with the observed log flows,
PPML and ZIP with the observed levels, the logit with the observed
adjacency; ``netstats`` labels a model's weighted rows by it.
``run.log.jsonl`` carries one timestamped record per logged event and
stays out of the manifest: with the log set aside, two runs from the
same configuration and seed produce byte-identical output trees.

Stages read the panel from ``panel.cache`` in the output directory, a
copy of the parsed panel keyed by the sha256 of both CSV files, and
parse the files only when the copy is missing, damaged or was made from
other bytes (see ``panel.read_panel``).  The first stage to parse a
panel stores its copy; the cache is not an artifact and stays out of
the manifest.  Every log record a stage writes names the two digests
and whether the panel came from the cache.

Randomness enters only through ensemble sampling at the compare stage.
Each (year, model) cell derives its own substream seed from the run
seed, so adding a year or a model to the configuration never shifts the
draws of the other cells.  Compare runs its cells on every CPU the
process may use, one cell per worker process, and the parent writes the
reports in cell order; because a cell's draws depend only on its seed,
the bytes do not depend on how many CPUs there are.  With one usable CPU
the cells run in the command's own process, so ``taskset -c 0 gravnet
compare ...`` runs the stage serially.
"""

import argparse
import collections
import contextlib
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

from .compare import build_comparison_report, check_countries, report_as_dict, report_from_dict
from .errors import ConvergenceError, DependencyError, SchemaError, ValidationError
from .estimation import (
    ZipFitResult,
    _two_sided_p,
    attach_vuong,
    fit_from_dict,
    fit_logit,
    fit_ols,
    fit_poisson_pml,
    fit_zip,
)
from .netstats import SCALES, STAT_KINDS, WEIGHTED_KINDS, TradeNetwork, all_statistics, density
from .panel import (
    DESIGN_COLUMNS,
    SummaryStats,
    _hash_file,
    build_cross_section,
    build_design_matrix,
    design_columns,
    read_panel,
    summary_stats,
)
from .prediction import (
    DEFAULT_REPLICATIONS,
    EnsembleStream,
    LinkProbabilityMatrix,
    PredictedWeights,
    binary_as_dict,
    binary_from_dict,
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
from .synth import (
    NOISE_KINDS,
    SynthSpec,
    _atomic_write,
    _csv_text,
    _json_dump,
    _temp_write,
    _write_json,
    write_synth_panel,
)


@dataclass(frozen=True)
class _Model:
    """One model's facts, stated once.  ``code`` is its fixed part of a cell
    seed; ``design`` its rows, the ``"positive"`` flows or every ordered pair
    (``"full"``); ``scale`` the key of ``netstats.SCALES`` it predicts on,
    which the observed network takes in its comparisons and which labels
    its weighted node statistics; ``fit`` and ``predict`` name its layer
    functions in this module (no ``predict``: its point network is its
    thresholded adjacency); a ``links`` model writes ``xi.json`` and
    ``binary.json``; ``vuong`` names the model its Vuong test is taken
    against, when that one runs too."""

    code: int
    design: str
    scale: str
    fit: str
    predict: str = None
    links: bool = False
    vuong: str = None

    @property
    def network_artifact(self) -> str:
        """The predict artifact the model's point network is read from."""
        return "prediction.json" if self.predict else "binary.json"


MODELS = {
    "OLS": _Model(1, "positive", "log_positive", "fit_ols", "predict_ols"),
    "PPML": _Model(2, "full", "identity", "fit_poisson_pml", "predict_ppml"),
    "ZIP": _Model(3, "full", "identity", "fit_zip", "predict_zip", links=True, vuong="PPML"),
    "LOGIT": _Model(4, "full", "binary", "fit_logit", links=True),
}
MODEL_TAGS = tuple(MODELS)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_DEPENDENCY = 4

MANIFEST_NAME = "manifest.json"
MANIFEST_LOCK_NAME = "manifest.json.lock"
LOG_NAME = "run.log.jsonl"
PANEL_CACHE_NAME = "panel.cache"

_SEED_LIMIT = 2**63


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run: input paths, cell grid, sampling budget, output tree.

    ``years`` empty means every year present in the panel.
    """

    dyads: str
    countries: str
    out: str
    years: tuple = ()
    models: tuple = MODEL_TAGS
    covariates: tuple = DESIGN_COLUMNS
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0

    def __post_init__(self):
        for name in ("dyads", "countries", "out"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValidationError(f"config field {name!r} must be a non-empty path")
        for name in ("dyads", "countries"):
            path = getattr(self, name)
            if os.path.isdir(path):
                raise ValidationError(f"config field {name!r}: {path!r} is a directory, not a file")
            if not os.path.isfile(path):
                raise ValidationError(f"config field {name!r}: file not found: {path!r}")
        _check_out_dir("config field 'out'", self.out)
        for name, kind, what in (
            ("years", (list, tuple), "a list"),
            ("models", (list, tuple), "a list"),
            ("covariates", (list, tuple), "a list"),
            ("replications", int, "an integer"),
            ("seed", int, "an integer"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValidationError(f"config field {name!r} must be {what}, got {value!r}")
        if not all(isinstance(y, int) and not isinstance(y, bool) for y in self.years):
            raise ValidationError(f"config field 'years' must list integers, got {self.years!r}")
        if len(set(self.years)) != len(self.years):
            raise ValidationError(f"config field 'years' lists a year twice, got {self.years!r}")
        object.__setattr__(self, "years", tuple(self.years))
        if not self.models:
            raise ValidationError("config field 'models' must be non-empty")
        unknown = [m for m in self.models if m not in MODEL_TAGS]
        if unknown:
            raise ValidationError(
                f"config field 'models' names unknown model(s) {unknown}; "
                f"expected a subset of {list(MODEL_TAGS)}"
            )
        if len(set(self.models)) != len(self.models):
            raise ValidationError(f"config field 'models' lists a model twice, got {self.models}")
        object.__setattr__(self, "models", tuple(t for t in MODEL_TAGS if t in self.models))
        try:
            object.__setattr__(self, "covariates", design_columns(self.covariates))
        except SchemaError as exc:
            raise SchemaError(f"config field 'covariates': {exc}") from None
        if self.replications < 2:
            # compare summarises each ensemble over at least two draws
            raise ValidationError(
                f"config field 'replications' must be at least 2, got {self.replications}"
            )
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError(f"config field 'seed' must lie in [0, 2**63), got {self.seed}")


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))


def _check_out_dir(what: str, path: str) -> None:
    """Refuse an output directory ``path`` that exists as something else,
    or that could be made only inside something else."""
    existing = path
    while not os.path.exists(existing):
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        raise ValidationError(f"{what} {path!r}: {existing!r} exists and is not a directory")


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
        except IsADirectoryError:
            raise ValidationError(f"config file {path!r} is a directory")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {path!r} is not UTF-8 text ({exc.reason})")
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
    return (seed * 1_000_003 + year * 1009 + MODELS[model_tag].code) % _SEED_LIMIT


# ---------------------------------------------------------------------------
# artifact plumbing


def _artifact_path(out: str, rel: str) -> str:
    # manifest keys use forward slashes on every platform
    return os.path.join(out, *rel.split("/"))


def _load_manifest(out: str) -> dict:
    """The ``artifacts`` object of ``out``'s manifest, empty if it has none."""
    path = os.path.join(out, MANIFEST_NAME)
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            artifacts = json.load(handle)["artifacts"]  # a decode error is a ValueError
    except (IsADirectoryError, ValueError, LookupError, TypeError):
        artifacts = None
    if not isinstance(artifacts, dict):
        raise DependencyError(
            f"{path!r} is not a manifest: UTF-8 JSON of an object whose 'artifacts' is an object"
        )
    return artifacts


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


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _log(out: str, command: str, message: str, duration_s: float, **fields_) -> None:
    """One human-readable line on stdout, one JSON record in the run log.

    ``duration_s`` is the wall time of the work the record reports; the
    record also carries the process's peak resident set size so far,
    unless ``fields_`` give ``peak_rss_mb`` of the process that did the
    work.
    """
    print(f"gravnet {command}: {message}")
    record = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "command": command,
        "message": message,
        "duration_s": duration_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    record.update(fields_)
    with open(os.path.join(out, LOG_NAME), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


class _Stage:
    """One run command: its config, panel and years, verified inputs, and
    the artifacts it writes; a context manager around the command's work.

    Construction does all that can refuse the command, before any work:
    it builds the config, loads the panel, resolves the years, reads the
    manifest once and checks against it every input the cells declare,
    ``<year>/<tag>/<name>`` for each ``name`` in ``inputs(tag)``.  A
    refused command therefore writes nothing, not even ``out/``; a missing
    or modified input names ``producer``, the command to rerun, and in an
    ``out/`` with no manifest also ``fit``, the first stage.  The copy
    of a freshly parsed panel is stored only once every check has passed.
    A cell reads its inputs through :meth:`inputs`, so it can read only
    what it declared; ``_run_stage`` writes and logs each cell through it.

    Each artifact is written to a temporary file in ``out/`` itself.
    When the ``with`` block ends normally, every one is renamed into place
    in write order, its directory made then, and the manifest merges their
    digests; when it raises, the temporary files are removed, so a command
    that fails after starting work leaves every artifact, the manifest and
    the directories as they were.
    """

    def __init__(self, args, producer: str, inputs):
        self.name, self.producer = args.command, producer
        # every config field has a flag of its own name
        overrides = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
        self.cfg = cfg = load_config(args.config, overrides)
        cache = os.path.join(cfg.out, PANEL_CACHE_NAME)
        self.panel, self.panel_source, copy = read_panel(cfg.dyads, cfg.countries, cache)
        present = self.panel.years
        if not present:
            raise ValidationError(
                f"the panel has no years: {cfg.dyads!r} and {cfg.countries!r} hold no data rows"
            )
        years = cfg.years or present
        missing = [y for y in years if y not in present]
        if missing:
            raise ValidationError(
                f"year(s) {missing} not present in the panel; it has {list(present)}"
            )
        self.years = tuple(years)
        self._pending = []  # (rel, temporary file), in write order
        self._digests = _load_manifest(cfg.out)
        self._inputs = inputs
        for year in self.years:
            for tag in cfg.models:
                for base in inputs(tag):
                    self._checked_bytes(f"{year}/{tag}/{base}")
        if copy is not None:
            os.makedirs(cfg.out, exist_ok=True)
            _atomic_write(cache, copy)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for _, tmp in self._pending:
                os.unlink(tmp)
            return
        for rel, tmp in self._pending:
            path = _artifact_path(self.cfg.out, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            os.replace(tmp, path)
        _record_artifacts(self.cfg.out, [rel for rel, _ in self._pending])

    def _checked_bytes(self, rel: str) -> bytes:
        path = _artifact_path(self.cfg.out, rel)
        if rel not in self._digests or not os.path.isfile(path):
            if not self._digests and self.producer != "fit":  # no stage has run in out
                raise DependencyError(
                    f"missing artifact {rel}: {self.cfg.out!r} has no manifest; run 'gravnet fit' "
                    f"first, then each stage through 'gravnet {self.producer}'"
                )
            raise DependencyError(f"missing artifact {rel}: run 'gravnet {self.producer}' first")
        with open(path, "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != self._digests[rel]:
            raise DependencyError(
                f"artifact {rel} does not match the manifest: rerun 'gravnet {self.producer}'"
            )
        return data

    def inputs(self, year: int, tag: str) -> list:
        """The decoded JSON of each input the cell declared, in declared
        order, parsed from the bytes just checked against the manifest."""
        return [json.loads(self._checked_bytes(f"{year}/{tag}/{base}"))
                for base in self._inputs(tag)]

    def write(self, rel: str, text: str) -> None:
        self._pending.append((rel, _temp_write(self.cfg.out, text)))

    def write_csv(self, rel: str, header, rows) -> None:
        self.write(rel, _csv_text(header, rows))

    def log(self, message: str, duration_s: float, **fields_) -> None:
        """A run-log record of this command, with where its panel came from."""
        _log(self.cfg.out, self.name, message, duration_s, panel=self.panel_source, **fields_)


@contextlib.contextmanager
def _cell(year: int, tag: str):
    """Scope of one (year, model) cell's work, in whichever process runs it:
    yields the cell's log note and adds the work's wall time as ``duration_s``.
    A ``ConvergenceError`` or ``ValidationError`` is re-raised as the same
    object with the cell's name before its message, so its subtype and
    payload (trace, collinear columns) reach the caller, from a worker too."""
    started = time.perf_counter()
    note = {}
    try:
        yield note
    except (ConvergenceError, ValidationError) as exc:
        exc.args = (f"year {year} model {tag}: {exc}",)
        raise
    note["duration_s"] = time.perf_counter() - started


def _model_designs(cfg: RunConfig, panel, cs):
    """(tag, design matrix) per configured model, in MODELS order.

    A design is built when the first model that reads it comes up and let
    go when its last one does, and the cross-section once every design is
    built, so a year holds a design only while a model that reads it runs.
    """
    last = {MODELS[tag].design: tag for tag in cfg.models}
    unbuilt = len(last)
    built = {}
    for tag in cfg.models:
        design = MODELS[tag].design
        if design not in built:
            built[design] = build_design_matrix(
                cs, panel, cfg.covariates, positive_only=design == "positive"
            )
            unbuilt -= 1
            if not unbuilt:
                cs = None
        yield tag, built.pop(design) if last[design] == tag else built[design]


# ---------------------------------------------------------------------------
# fit artifacts


def _variant_fits(fits: dict) -> list:
    """(label, FitResult) per table column; ``fits`` is in MODEL_TAGS order
    and a zero-inflated fit expands in place, poisson part first."""
    variants = []
    for tag, fit in fits.items():
        if isinstance(fit, ZipFitResult):
            variants += [(f"{tag}_poisson", fit.poisson_part), (f"{tag}_logit", fit.logit_part)]
        else:
            variants.append((tag, fit))
    return variants


def _significance(estimate: float, se: float) -> str:
    if not np.isfinite(se) or se <= 0.0:
        return ""
    p = _two_sided_p(estimate / se)
    for bound, stars in ((0.001, "***"), (0.01, "**"), (0.05, "*")):
        if p < bound:
            return stars
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
    vuong = {f"{tag}_poisson": f"{fit.vuong_vs_poisson:.4g}" for tag, fit in fits.items()
             if getattr(fit, "vuong_vs_poisson", None) is not None}
    if vuong:
        rows.append(["vuong_z"] + [vuong.get(label, "") for label, _ in variants])
    return header, rows


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> None:
    """Write a synthetic dyad panel whose generating parameters are recorded."""
    # each SynthSpec field has a flag of its own name; unset flags keep the default
    given = {f.name: getattr(args, f.name) for f in fields(SynthSpec)}
    spec = SynthSpec(**{name: value for name, value in given.items() if value is not None})
    _check_out_dir("--out", args.out)
    _load_manifest(args.out)  # a damaged manifest is refused before any file is written
    started = time.perf_counter()
    paths = write_synth_panel(spec, args.out)
    _record_artifacts(args.out, sorted(os.path.basename(p) for p in paths.values()))
    _log(
        args.out, "synth",
        f"wrote a {spec.noise} panel of {spec.n_countries} countries for {len(spec.years)} year(s)",
        time.perf_counter() - started,
        n_countries=spec.n_countries, noise=spec.noise, seed=spec.seed, years=list(spec.years),
    )


def _fit_cells(stage: _Stage):
    """Estimate every configured (year, model) cell: its ``fit.json``, and
    after a year's cells the year's coefficient table."""
    for year in stage.years:
        # the cross-section lives in the designs' builder alone
        designs = _model_designs(stage.cfg, stage.panel, build_cross_section(stage.panel, year))
        fits = {}
        for tag, dm in designs:
            model = MODELS[tag]
            with _cell(year, tag) as note:
                # looked up per call, so a rebinding of a layer function is seen
                fit = globals()[model.fit](dm)
                if model.vuong in fits:  # models run in MODEL_TAGS order
                    fit = attach_vuong(fit, fits[model.vuong], dm)
                fits[tag] = fit
                payload = fit.as_dict()
                vuong = getattr(fit, "vuong_vs_poisson", None)
                note.update(
                    message=f"loglik {fit.loglik:.6g}",
                    loglik=fit.loglik,
                    converged=bool(fit.converged),
                    iterations=fit.iterations,
                    **({} if vuong is None else {"vuong_z": vuong}),
                )
            yield year, tag, {"fit.json": payload}, note
        table = _coefficient_table(stage.cfg.covariates, fits)
        stage.write_csv(f"{year}/coefficients.csv", *table)


def _predict_cells(stage: _Stage):
    """Turn each cell's fit into its predicted matrices."""
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        rho = density(cs.network())
        for tag, dm in _model_designs(stage.cfg, stage.panel, cs):
            model = MODELS[tag]
            with _cell(year, tag) as note:
                fit = fit_from_dict(*stage.inputs(year, tag))
                artifacts = {}
                if model.predict:
                    # looked up per call, so a rebinding of a layer function is seen
                    artifacts["prediction.json"] = globals()[model.predict](fit, dm).as_dict()
                if model.links:
                    lp = link_probabilities(fit, dm)
                    artifacts["xi.json"] = lp.as_dict()
                    artifacts["binary.json"] = binary_as_dict(
                        lp.country_ids,
                        density_induced_binary(lp, rho),
                        threshold_matching_density(lp, rho),
                        threshold_by_manhattan(lp, cs.adjacency),
                    )
                note["message"] = "predictions written"
            yield year, tag, artifacts, note


def _cell_network(tag: str, payload: dict):
    """(country_ids, network, pred) of one cell's point prediction, from the
    decoded JSON of its model's ``network_artifact``, on the scale the model
    predicts; ``pred`` is the decoded PredictedWeights, None for a model
    without ``predict``, whose network is its thresholded adjacency."""
    if not MODELS[tag].predict:
        ids, induced = binary_from_dict(payload)
        a = induced.adjacency
        return ids, TradeNetwork(a.astype(float), a), None
    pred = PredictedWeights.from_dict(payload)
    return pred.country_ids, TradeNetwork(pred.value, pred.mask), pred


def _stats_rows(ids, scales: dict) -> list:
    """Long-format node-statistic rows of ``scales``, ``{label: network}``,
    networks of one adjacency: the weighted kinds once per scale, the
    binary kinds, which read only the adjacency, once, labelled ``""``."""
    stats = {label: all_statistics(net) for label, net in scales.items()}
    # a binary kind is one statistic on every scale, kept on their support
    stats[""] = next(iter(stats.values()))
    rows = []
    for kind in STAT_KINDS:
        for label in scales if kind in WEIGHTED_KINDS else ("",):
            stat = stats[label][kind]
            for cid, value, defined in zip(ids, stat.values.tolist(), stat.defined.tolist()):
                rows.append((cid, kind, label, value if defined else None))
    return rows


_STATS_FIELDS = ("country_id", "kind", "transform", "value")


def _netstats_cells(stage: _Stage):
    """Tabulate node statistics of each year's observed network, before its
    cells, and of each cell's predicted network."""
    for year in stage.years:
        cs = build_cross_section(stage.panel, year)
        observed = cs.network()
        # a binary-scale weighted row would repeat its binary twin's
        scales = {label: SCALES[label](observed) for label in ("identity", "log_positive")}
        rows = _stats_rows(cs.country_ids, scales)
        stage.write_csv(f"{year}/observed_stats.csv", _STATS_FIELDS, rows)
        for tag in stage.cfg.models:
            with _cell(year, tag) as note:
                (payload,) = stage.inputs(year, tag)
                ids, net, _ = _cell_network(tag, payload)
                check_countries(cs.country_ids, ids, "predicted")
                rows = _stats_rows(ids, {MODELS[tag].scale: net})
                note["message"] = "statistics written"
            yield year, tag, {"node_stats.csv": (_STATS_FIELDS, rows)}, note


@dataclass(frozen=True)
class _TimedStream(EnsembleStream):
    """An ensemble stream that adds the seconds each replication takes to
    come out of it, its generator's set-up and its draw, to ``draw_s[0]``."""

    draw_s: list = field(default_factory=lambda: [0.0])

    def __iter__(self):
        replications = super().__iter__()
        for _ in range(self.m):
            started = time.perf_counter()
            w = next(replications)
            self.draw_s[0] += time.perf_counter() - started
            yield w


def _compare_cell(year, tag, observed, observed_ids, inputs, cfg: RunConfig):
    """One compare cell from picklable inputs: ``(report payload, note)``.

    ``observed`` is the year's observed network, which the cell takes on
    its model's ``scale``.  ``inputs`` is the decoded JSON of the cell's
    declared inputs: its model's ``network_artifact``, then its ``xi.json``
    for a ``links`` model; the ensemble streams from the cell's seed.  This
    is all of a cell's work, run in its ``_cell`` scope in the stage's
    process or in a worker, so its bytes do not depend on which.  The
    note's ``duration_s``, ``draw_s`` (the part of it spent drawing
    replications, generators' set-up included; the rest is statistics)
    and ``peak_rss_mb`` are measured, and an error is named, in the
    process that ran the cell.
    """
    with _cell(year, tag) as note:
        seed = cell_seed(cfg.seed, year, tag)
        network, *xi = inputs
        _, net, pred = _cell_network(tag, network)
        observed = SCALES[MODELS[tag].scale](observed)
        lp = LinkProbabilityMatrix.from_dict(*xi) if xi else None
        if pred is None:
            stream = stream_bernoulli_ensemble(lp, cfg.replications, seed)
        else:
            stream = stream_weighted_ensemble(pred, cfg.replications, seed, link_probs=lp)
        ensemble = _TimedStream(**{f.name: getattr(stream, f.name) for f in fields(stream)})
        report = build_comparison_report(observed, observed_ids, net, ensemble)
        note.update(
            message=f"report written ({cfg.replications} replications)",
            replications=cfg.replications,
            draw_s=ensemble.draw_s[0],
            n_dropped={s.kind: s.summary.n_dropped for s in report.statistics},
            peak_rss_mb=_peak_rss_mb(),
        )
        payload = report_as_dict(report)
    return payload, note


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _in_order(fn, calls, workers: int):
    """Yield ``(key, fn(*args))`` for each ``(key, args)`` of ``calls``, in order.

    With one worker each call runs in this process.  Otherwise the calls
    run in a pool of ``workers`` processes, and ``calls`` is read only as
    a call is submitted, at most ``2 * workers`` calls ahead of the result
    that is due.  An error in a call re-raises here with its type.
    Closing the generator cancels the calls not yet started and waits for
    the pool's processes to exit.

    The workers are forked wherever the platform can fork, whatever its
    default start method: a forked worker starts with this process's
    modules and imports nothing again.
    """
    if workers == 1:
        for key, args in calls:
            yield key, fn(*args)
        return
    # imported here, so the stages that run no pool do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    forks = "fork" in multiprocessing.get_all_start_methods()
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork") if forks else None
    )
    try:
        pending = collections.deque()
        for key, args in calls:
            pending.append((key, pool.submit(fn, *args)))
            if len(pending) == 2 * workers:
                key, future = pending.popleft()
                yield key, future.result()
        for key, future in pending:
            yield key, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _compare_cells(stage: _Stage):
    """K-S tests and ensemble bands for every cell against the observed ITN,
    on every CPU this process may use (see ``_in_order``), in cell order; a
    cell's artifacts are read only when it is submitted."""

    def calls():
        for year in stage.years:
            cs = build_cross_section(stage.panel, year)
            observed = cs.network()
            for tag in stage.cfg.models:
                inputs = stage.inputs(year, tag)
                yield (year, tag), (year, tag, observed, cs.country_ids, inputs, stage.cfg)

    workers = min(_usable_cpus(), len(stage.years) * len(stage.cfg.models))
    with contextlib.closing(_in_order(_compare_cell, calls(), workers)) as results:
        for (year, tag), (payload, note) in results:
            yield year, tag, {"report.json": payload}, note


# Each command of (year, model) cells: the command that writes its inputs,
# a cell's input names by model tag, and the name of its cell generator,
# which takes the ``_Stage`` and yields ``(year, tag, {artifact name:
# payload}, note)`` once the cell's ``_cell`` scope has closed.
STAGES = {
    "fit": ("", lambda tag: (), "_fit_cells"),
    "predict": ("fit", lambda tag: ("fit.json",), "_predict_cells"),
    "netstats": ("predict", lambda tag: (MODELS[tag].network_artifact,), "_netstats_cells"),
    # the point network, and the link probabilities the ensemble draws from
    "compare": ("predict", lambda tag: (MODELS[tag].network_artifact,
                                        *(("xi.json",) if MODELS[tag].links else ())),
                "_compare_cells"),
}


def _run_stage(args) -> None:
    """Run the cells of the command's ``STAGES`` row; the one writer and
    logger of a cell.  A JSON artifact is stamped with the cell's ``model``
    and ``year``, the one label a cell artifact carries; a CSV artifact,
    ``(header, rows)``, is written as it is."""
    producer, inputs, generator = STAGES[args.command]
    stage = _Stage(args, producer, inputs)
    with stage, contextlib.closing(globals()[generator](stage)) as cells:
        for year, tag, artifacts, note in cells:
            for name, payload in artifacts.items():
                text = (_csv_text(*payload) if name.endswith(".csv")
                        else _json_dump({**payload, "model": tag, "year": year}))
                stage.write(f"{year}/{tag}/{name}", text)
            message = f"year {year} model {tag}: {note.pop('message')}"
            stage.log(message, year=year, model=tag, **note)


_KS_HEADER = ("year", "model", "kind", "d_statistic", "p_value", "n_observed", "n_predicted")
_AVG_HEADER = ("year", "model", "kind", "observed", "predicted",
               "ci_low", "ci_high", "ensemble_mean")
_CORR_HEADER = ("year", "model", "x", "y", "observed_r", "predicted_r")


def _report_tables(reports) -> tuple:
    """(ks_tests, averages, correlations) rows of ``(year, tag, report)`` cells."""
    ks_rows, avg_rows, corr_rows = [], [], []
    for year, tag, report in reports:
        for s in report.statistics:
            ks = s.ks
            ks_rows.append((year, tag, s.kind, ks.d_statistic, ks.p_value, ks.n1, ks.n2))
            e = s.summary
            avg_rows.append((year, tag, s.kind, s.observed_avg, s.predicted_avg,
                             e.ci_low, e.ci_high, e.mean))
        for c in report.correlations:
            corr_rows.append((year, tag, c.kind_x, c.kind_y, c.observed_r, c.predicted_r))
    return ks_rows, avg_rows, corr_rows


def cmd_report(args) -> None:
    """Aggregate per-cell comparison reports into flat CSV tables."""
    started = time.perf_counter()
    with _Stage(args, "compare", lambda tag: ("report.json",)) as stage:
        cfg = stage.cfg
        ks_rows, avg_rows, corr_rows = _report_tables(
            (year, tag, report_from_dict(*stage.inputs(year, tag)))
            for year in stage.years
            for tag in cfg.models
        )
        summaries = [summary_stats(build_cross_section(stage.panel, y)) for y in stage.years]
        stage.write_csv("ks_tests.csv", _KS_HEADER, ks_rows)
        stage.write_csv("averages.csv", _AVG_HEADER, avg_rows)
        stage.write_csv("correlations.csv", _CORR_HEADER, corr_rows)
        stage.write_csv("summary.csv", [f.name for f in fields(SummaryStats)],
                        map(astuple, summaries))
    stage.log(
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
_name_list = _list_of(str.strip, "names")


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
        ("fit", _run_stage, "estimate the configured models year by year"),
        ("predict", _run_stage, "write predicted weight and link-probability matrices"),
        ("netstats", _run_stage, "tabulate observed and predicted node statistics"),
        ("compare", _run_stage, "K-S tests and ensemble bands against the observed network"),
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
