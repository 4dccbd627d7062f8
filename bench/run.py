#!/usr/bin/env python3
"""gravnet benchmark: stage wall time and peak RSS on synthetic panels.

Run from the repository root::

    python3 bench/run.py --workload ensemble-n100 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

For a workload the benchmark generates a panel with ``gravnet synth`` from
the seed (set-up), then runs ``fit -> predict -> netstats -> compare ->
report``, each stage in a fresh process started from ``src/`` of the
checkout, one stage at a time and each after the previous one exited (a
closed loop with one client).  While another run still fits in
``--seconds`` it reruns single stages on the finished tree, interleaved
with more ``synth`` runs into a scratch directory, and reports the median
time of each stage and of ``synth`` (``setup_s``).  Each time is the
command's wall time calibrated to a reference host speed, which a thread
of this process measures while the command runs (``SpeedMeter``).  Every
process's peak RSS comes from ``os.wait4`` on that process.

With ``--trace 1`` it runs one untraced pipeline and then one more whose
stages go through ``bench/trace_stage.py``, which wraps the package's layer
functions in timing spans from outside the package, and reports per-layer
metrics instead of the end-to-end ones, along with the tracing overhead.

Every run checks the outputs: each stage exits 0, every artifact the
README lists exists and matches ``manifest.json``, every fit converged,
every report has a finite K-S statistic per kind, and the artifact bytes
are identical after the stage reruns, in the traced pass, and in earlier
runs of the same workload, seed and package source in this checkout.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from layers import CONSTRUCTION_SPAN, LAYERS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACE_SCRIPT = os.path.join(BENCH_DIR, "trace_stage.py")

STAGES = ("fit", "predict", "netstats", "compare", "report")
MODELS = ("OLS", "PPML", "ZIP", "LOGIT")
GRAVNET = ("-c", "import sys; from gravnet.cli import main; sys.exit(main())")

NPROC = len(os.sched_getaffinity(0))
#: BLAS threads for every stage process.  One thread is steadier than the
#: OpenBLAS default on a shared 2-core machine, and never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

STAGE_TIMEOUT_S = 120.0
#: Tiny panel used only to warm lazy set-up in the traced stage processes.
#: Fixed, so the warm-up does not depend on the workload seed; 30 countries
#: is the smallest round size whose full design has full rank at this seed.
WARM_COUNTRIES = 30
WARM_SEED = 0
WARM_REPLICATIONS = 20

#: The speed meter times METER_LOOP iterations of a fixed Python loop every
#: METER_PERIOD_S seconds, on the core the stage process leaves free.
METER_LOOP = 3000
METER_PERIOD_S = 0.02
#: Reference time of one meter loop.  The end-to-end times are reported at
#: this host speed: each command's wall time is multiplied by
#: METER_REF_S / (median meter loop time while the command ran).  It is the
#: meter's median on the 2-core x86_64 machine the bench was built on, so
#: there the calibrated times read close to the wall times.
METER_REF_S = 0.00025


@dataclass(frozen=True)
class Workload:
    n: int
    years: tuple
    replications: int


#: Why each workload was chosen and which layers it loads: bench/README.md.
WORKLOADS = {
    "ensemble-n100": Workload(n=100, years=(2000,), replications=2000),
    "wide-n200": Workload(n=200, years=(2000,), replications=100),
    "panel-10y-n50": Workload(n=50, years=tuple(range(1990, 2000)), replications=200),
}

#: Every time is calibrated to the reference host speed (SpeedMeter).
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    *((f"{stage}_s", "s") for stage in STAGES),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for module, names in LAYERS.items():
        for fname in names:
            base = f"{module}.{fname}"
            out += [(f"{base}.busy_s", "s"), (f"{base}.self_s", "s"), (f"{base}.calls", "count")]
    out += [
        (f"{CONSTRUCTION_SPAN}.constructions", "count"),
        (f"{CONSTRUCTION_SPAN}.busy_s", "s"),
        (f"{CONSTRUCTION_SPAN}.self_s", "s"),
        ("estimation.iterations", "count"),
        ("prediction.ensemble_bytes", "B-computed"),
        ("compare.n_dropped", "count"),
    ]
    for stage in STAGES:
        out += [
            (f"cli.{stage}.wall_s", "s"),
            (f"cli.{stage}.self_s", "s"),
            (f"cli.{stage}.rss_mb", "MB"),
        ]
    out += [
        ("cli.import_s", "s"),
        ("cli.artifacts", "count"),
        ("cli.artifact_bytes", "B"),
        ("trace.pipeline_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


# ---------------------------------------------------------------------------
# processes


def stage_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


@dataclass(frozen=True)
class ProcRun:
    exit_code: int
    start: float
    wall_s: float
    cpu_s: float
    rss_mb: float


class SpeedMeter:
    """Host speed over time, from a fixed Python loop timed on a thread.

    The shared machine's speed drifts by up to 1.6x within seconds and
    across minutes, on both of its cores together, and a stage's wall time
    follows it.  The loop runs on the core a stage process leaves free, for
    about 1 % of that core, while the main thread waits in ``os.wait4``.
    ``calibrated`` turns a command's wall time into the time it would have
    taken at the reference speed METER_REF_S.
    """

    def __init__(self):
        self.samples = []  # (start, seconds per loop)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            x = 0
            for i in range(METER_LOOP):
                x += i * i
            self.samples.append((start, time.perf_counter() - start))
            self._stop.wait(METER_PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def loop_s(self, start, end):
        """Median loop time of the samples taken between start and end."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        return statistics.median(inside) if inside else None

    def calibrated(self, run):
        """The run's wall time at the reference speed, or None if unmetered."""
        loop_s = self.loop_s(run.start, run.start + run.wall_s)
        return run.wall_s * METER_REF_S / loop_s if loop_s else None


def run_process(argv, log_path) -> ProcRun:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=stage_env(), stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    cpu_s = usage.ru_utime + usage.ru_stime
    return ProcRun(proc.returncode, start, wall_s, cpu_s, usage.ru_maxrss / 1024.0)


def gravnet_argv(args):
    return [sys.executable, *GRAVNET, *args]


class Ledger:
    """Operations attempted and failed: stage runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}")
        return ok


# ---------------------------------------------------------------------------
# outputs and checks


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def expected_artifacts(wl: Workload):
    """Every artifact the README lists for this grid (manifest.json aside)."""
    rels = ["ks_tests.csv", "averages.csv", "correlations.csv", "summary.csv"]
    for year in wl.years:
        rels += [f"{year}/coefficients.csv", f"{year}/observed_stats.csv"]
        for tag in MODELS:
            names = ["fit.json", "node_stats.csv", "report.json"]
            if tag != "LOGIT":
                names.append("prediction.json")
            if tag in ("ZIP", "LOGIT"):
                names += ["xi.json", "binary.json"]
            rels += [f"{year}/{tag}/{name}" for name in names]
    return sorted(rels)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(wl: Workload, out: str, ledger: Ledger, label: str):
    """Verify one pipeline's output tree; returns (digest, facts) or None."""
    manifest_path = os.path.join(out, "manifest.json")
    if not ledger.record(os.path.isfile(manifest_path), f"{label}: manifest.json exists"):
        return None
    manifest = read_json(manifest_path)["artifacts"]
    expected = expected_artifacts(wl)
    present = True
    for rel in expected:
        path = os.path.join(out, *rel.split("/"))
        ok = os.path.isfile(path) and manifest.get(rel) == sha256_file(path)
        present &= ledger.record(ok, f"{label}: {rel} exists and matches manifest.json")
    extra = sorted(set(manifest) - set(expected))
    ledger.record(not extra, f"{label}: manifest lists only README artifacts ({extra})")
    if not present:
        return None

    iterations = 0
    n_dropped = 0
    for year in wl.years:
        for tag in MODELS:
            fit = read_json(os.path.join(out, str(year), tag, "fit.json"))
            parts = [fit["logit_part"], fit["poisson_part"]] if tag == "ZIP" else [fit]
            converged = all(p["diagnostics"]["converged"] is True for p in parts)
            ledger.record(converged, f"{label}: {year}/{tag}/fit.json converged")
            iterations += sum(int(p["diagnostics"]["iterations"]) for p in parts)
            report = read_json(os.path.join(out, str(year), tag, "report.json"))
            finite = bool(report["statistics"]) and all(
                isinstance(s["ks_d"], (int, float)) and math.isfinite(s["ks_d"])
                for s in report["statistics"]
            )
            ledger.record(finite, f"{label}: {year}/{tag}/report.json K-S finite per kind")
            n_dropped += sum(
                s["ensemble"]["n_dropped"] for s in report["statistics"] if s["ensemble"]
            )
    listing = "".join(f"{rel} {sha}\n" for rel, sha in sorted(manifest.items()))
    facts = {
        "iterations": iterations,
        "n_dropped": n_dropped,
        "artifacts": len(manifest),
        "artifact_bytes": sum(
            os.path.getsize(os.path.join(out, *rel.split("/"))) for rel in manifest
        ),
    }
    return hashlib.sha256(listing.encode()).hexdigest(), facts


# ---------------------------------------------------------------------------
# set-up and pipelines


def synth_args(n, years, seed, out):
    return [
        "synth", "--out", out, "--n-countries", str(n),
        "--years", ",".join(str(y) for y in years), "--noise", "zip", "--seed", str(seed),
    ]


def run_synth(wl: Workload, seed: int, panel: str, log_path: str) -> ProcRun:
    shutil.rmtree(panel, ignore_errors=True)
    return run_process(gravnet_argv(synth_args(wl.n, wl.years, seed, panel)), log_path)


def write_config(path, panel, out, replications, seed):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "dyads": os.path.join(panel, "dyads.csv"),
                "countries": os.path.join(panel, "countries.csv"),
                "out": out,
                "replications": replications,
                "seed": seed,
            },
            handle,
        )


def run_pipeline(config, out, wdir, ledger, label, traced=False):
    """Run the five stages in order; per-stage ProcRun, or None on failure."""
    shutil.rmtree(out, ignore_errors=True)
    runs = {}
    for stage in STAGES:
        if traced:
            spec = os.path.join(wdir, f"trace-{stage}.spec.json")
            with open(spec, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "warm": [stage, "--config", os.path.join(wdir, "warm.json")],
                        "real": [stage, "--config", config],
                        "spans": os.path.join(wdir, f"trace-{stage}.spans.json"),
                    },
                    handle,
                )
            argv = [sys.executable, TRACE_SCRIPT, spec]
        else:
            argv = gravnet_argv([stage, "--config", config])
        run = run_process(argv, os.path.join(wdir, f"{label}-{stage}.log"))
        if not ledger.record(run.exit_code == 0, f"{label}: gravnet {stage} exits 0"):
            return None
        runs[stage] = run
    return runs


# ---------------------------------------------------------------------------
# traced pass


def load_trace(wdir, stage):
    return read_json(os.path.join(wdir, f"trace-{stage}.spans.json"))


def layer_totals(traces, ledger):
    """busy/self/calls per span name, summed over stages, plus cli self times.

    Per stage, the layer self times plus the cli self time add up to the
    traced stage time by construction; what can fail is the span tree, so
    that is what the ledger checks.
    """
    busy, own, calls = {}, {}, {}
    cli_self = {}
    for stage, trace in traces.items():
        spans = trace["spans"]
        child = [0.0] * len(spans)
        last_end = {}  # parent index -> end of its latest child so far
        nested = True
        for name, start, end, parent in spans:
            outer = spans[parent] if parent >= 0 else (None, 0.0, trace["stage_s"])
            nested &= max(outer[1], last_end.get(parent, 0.0)) <= start <= end <= outer[2]
            last_end[parent] = end
            if parent >= 0:
                child[parent] += end - start
        ledger.record(nested, f"traced {stage}: spans lie inside their parent, siblings in order")
        top = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + duration - child[i]
            # busy time counts a span once even when it nests in its own name
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] = busy.get(name, 0.0) + duration
            if parent < 0:
                top += duration
        cli_self[stage] = trace["stage_s"] - top
        ledger.record(cli_self[stage] >= 0.0, f"traced {stage}: cli self time is not negative")
    return busy, own, calls, cli_self


def traced_pass(wl, seed, wdir, panel, ledger):
    """Warm-up panel, traced synth, traced pipeline; raw trace data or None."""
    warm_panel = os.path.join(wdir, "warm-panel")
    shutil.rmtree(warm_panel, ignore_errors=True)
    write_config(
        os.path.join(wdir, "warm.json"), warm_panel, os.path.join(wdir, "warm-out"),
        WARM_REPLICATIONS, WARM_SEED,
    )
    shutil.rmtree(os.path.join(wdir, "warm-out"), ignore_errors=True)
    traced_panel = os.path.join(wdir, "panel-traced")
    shutil.rmtree(traced_panel, ignore_errors=True)
    spec = os.path.join(wdir, "trace-synth.spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "warm": synth_args(WARM_COUNTRIES, wl.years[:1], WARM_SEED, warm_panel),
                "real": synth_args(wl.n, wl.years, seed, traced_panel),
                "spans": os.path.join(wdir, "trace-synth.spans.json"),
            },
            handle,
        )
    run = run_process([sys.executable, TRACE_SCRIPT, spec], os.path.join(wdir, "traced-synth.log"))
    if not ledger.record(run.exit_code == 0, "traced synth exits 0"):
        return None
    same_panel = sha256_file(os.path.join(traced_panel, "dyads.csv")) == sha256_file(
        os.path.join(panel, "dyads.csv")
    )
    ledger.record(same_panel, "traced synth writes the same panel")

    out = os.path.join(wdir, "out-traced")
    write_config(config_for(wdir, out), panel, out, wl.replications, seed)
    if run_pipeline(config_for(wdir, out), out, wdir, ledger, "traced", traced=True) is None:
        return None
    return {
        "out": out,
        "traces": {stage: load_trace(wdir, stage) for stage in STAGES},
        "synth": load_trace(wdir, "synth"),
    }


def config_for(wdir, out):
    return os.path.join(wdir, f"config-{os.path.basename(out)}.json")


# ---------------------------------------------------------------------------
# one workload


def environment():
    """What the numbers were measured on."""
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    git_sha = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_digest = hashlib.sha256()
    package = os.path.join(SRC, "gravnet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            src_digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                src_digest.update(handle.read())
    return {
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_threads_env": list(BLAS_ENV),
        "machine": platform.machine(),
    }


def next_command(samples, left):
    """The command to rerun next, of those whose median fits in ``left``.

    Each command's median time is an end-to-end metric of its own, and the
    stages' medians add up to ``pipeline_s``.  A k-th + 1 sample of a command
    cuts the relative variance of its own median by about 1/k - 1/(k+1), and
    for a stage that of ``pipeline_s`` by (t/T)**2 times as much, where t is
    the stage's median time and T their sum.  The command that cuts most per
    second of its time goes next.
    """
    expected = {c: statistics.median(r.wall_s for r in runs) for c, runs in samples.items()}
    total = sum(t for c, t in expected.items() if c != "synth")

    def gain_per_second(command):
        k = len(samples[command])
        weight = 1.0 if command == "synth" else 1.0 + (expected[command] / total) ** 2
        return weight / (k * (k + 1) * expected[command])

    fits = [c for c in samples if expected[c] <= left]
    return max(fits, key=gain_per_second) if fits else None


def rerun(wl, seed, config, panel_digest, samples, started, seconds, wdir, ledger):
    """Rerun single stages and ``synth`` while another run fits in ``seconds``.

    Each stage is idempotent on a finished output tree, and a stage rerun is
    what a user waits on; ``synth`` writes into a scratch directory.
    Interleaving spreads every command's samples over the run, so a slow
    spell of a shared machine hits all of them alike.
    """
    scratch = os.path.join(wdir, "panel-rerun")
    while True:
        command = next_command(samples, seconds - (time.perf_counter() - started))
        if command is None:
            return
        log_path = os.path.join(wdir, f"rerun-{command}.log")
        if command == "synth":
            run = run_synth(wl, seed, scratch, log_path)
        else:
            run = run_process(gravnet_argv([command, "--config", config]), log_path)
        if not ledger.record(run.exit_code == 0, f"rerun: gravnet {command} exits 0"):
            return
        if command == "synth":
            same = sha256_file(os.path.join(scratch, "dyads.csv")) == panel_digest
            ledger.record(same, "synth reruns write the same panel")
        samples[command].append(run)


def workdir(name, seed):
    return os.path.join(WORK, f"{name}-seed{seed}")


def run_workload(name, seed, seconds, trace, src_sha256, ledger, meter):
    """Set up, measure and check one workload; (metrics, record) for output."""
    wl = WORKLOADS[name]
    wdir = workdir(name, seed)
    os.makedirs(wdir, exist_ok=True)
    panel = os.path.join(wdir, "panel")
    started = time.perf_counter()
    synth = run_synth(wl, seed, panel, os.path.join(wdir, "synth.log"))
    if not ledger.record(synth.exit_code == 0, "gravnet synth exits 0"):
        return {}, {}

    out = os.path.join(wdir, "out")
    config = config_for(wdir, out)
    write_config(config, panel, out, wl.replications, seed)
    runs = run_pipeline(config, out, wdir, ledger, "pipeline")
    checked = runs and check_outputs(wl, out, ledger, "pipeline")
    if not checked:
        return {}, {}
    digest, facts = checked
    samples = {"synth": [synth], **{stage: [run] for stage, run in runs.items()}}
    if not trace:
        panel_digest = sha256_file(os.path.join(panel, "dyads.csv"))
        rerun(wl, seed, config, panel_digest, samples, started, seconds, wdir, ledger)
        rechecked = check_outputs(wl, out, ledger, "after reruns")
        ledger.record(bool(rechecked) and rechecked[0] == digest,
                      "stage reruns leave the artifact bytes unchanged")
    ledger.record(same_as_recorded(name, seed, src_sha256, digest),
                  "artifact bytes match earlier runs of the same source")

    calibrated = {c: [meter.calibrated(r) for r in runs_] for c, runs_ in samples.items()}
    metered = all(t is not None for times in calibrated.values() for t in times)
    if not ledger.record(metered, "the speed meter sampled while every command ran"):
        return {}, {}
    wall_s = {c: statistics.median(r.wall_s for r in samples[c]) for c in samples}
    stage_s = {s: statistics.median(calibrated[s]) for s in STAGES}
    end_to_end = {
        "setup_s": statistics.median(calibrated["synth"]),
        # the gaps between stage processes are well under a millisecond
        "pipeline_s": sum(stage_s.values()),
        **{f"{stage}_s": value for stage, value in stage_s.items()},
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in samples[s]) for s in STAGES),
    }
    record = {
        "workload": name,
        "seed": seed,
        "artifact_digest": digest,
        "first_pipeline_wall_s": sum(run.wall_s for run in runs.values()),
        "pipeline_wall_s": sum(wall_s[s] for s in STAGES),
        "samples": {
            c: [
                {"wall_s": r.wall_s, "calibrated_s": t, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                 "meter_loop_s": meter.loop_s(r.start, r.start + r.wall_s)}
                for r, t in zip(samples[c], calibrated[c])
            ]
            for c in samples
        },
        "wall_s": wall_s,
        "stage_s": stage_s,
        "end_to_end": end_to_end,
    }
    if not trace:
        return {k: (end_to_end[k], unit) for k, unit in END_TO_END}, record

    traced = traced_pass(wl, seed, wdir, panel, ledger)
    traced_check = traced and check_outputs(wl, traced["out"], ledger, "traced")
    if not traced_check:
        return {}, record
    ledger.record(traced_check[0] == digest, "traced run writes the same artifact bytes")
    layers = layer_metrics(traced, facts, runs, ledger)
    record["per_layer"] = layers
    units = dict(per_layer_names())
    return {k: (layers[k], units[k]) for k in units}, record


def layer_metrics(traced, facts, untraced_runs, ledger):
    """Per-layer metric values from the traced pass and the output facts."""
    traces = dict(traced["traces"], synth=traced["synth"])
    busy, own, calls, cli_self = layer_totals(traces, ledger)
    values = {}
    for module, names in LAYERS.items():
        for fname in names:
            base = f"{module}.{fname}"
            values[f"{base}.busy_s"] = busy.get(base, 0.0)
            values[f"{base}.self_s"] = own.get(base, 0.0)
            values[f"{base}.calls"] = calls.get(base, 0)
    values[f"{CONSTRUCTION_SPAN}.constructions"] = calls.get(CONSTRUCTION_SPAN, 0)
    values[f"{CONSTRUCTION_SPAN}.busy_s"] = busy.get(CONSTRUCTION_SPAN, 0.0)
    values[f"{CONSTRUCTION_SPAN}.self_s"] = own.get(CONSTRUCTION_SPAN, 0.0)
    values["estimation.iterations"] = facts["iterations"]
    values["prediction.ensemble_bytes"] = sum(
        t["ensemble_bytes"] for t in traced["traces"].values()
    )
    values["compare.n_dropped"] = facts["n_dropped"]
    for stage in STAGES:
        values[f"cli.{stage}.wall_s"] = untraced_runs[stage].wall_s
        values[f"cli.{stage}.self_s"] = cli_self[stage]
        values[f"cli.{stage}.rss_mb"] = untraced_runs[stage].rss_mb
    values["cli.import_s"] = statistics.median(t["import_s"] for t in traced["traces"].values())
    values["cli.artifacts"] = facts["artifacts"]
    values["cli.artifact_bytes"] = facts["artifact_bytes"]
    # both after the warm-up, in the same stage processes: plain, then traced
    stage_traces = traced["traces"].values()
    values["trace.pipeline_s"] = sum(t["stage_s"] for t in stage_traces)
    values["trace.overhead_s"] = values["trace.pipeline_s"] - sum(t["plain_s"] for t in stage_traces)
    return values


def same_as_recorded(name, seed, src_sha256, digest):
    """Compare with, or record, the digest of earlier runs of the same source.

    Keyed by the package source, so a change that alters the bytes on purpose
    starts a new record instead of failing against the old one.
    """
    path = os.path.join(WORK, "digests.json")
    known = read_json(path) if os.path.isfile(path) else {}
    key = f"{name}/seed{seed}/src{src_sha256}"
    if key in known:
        return known[key] == digest
    known[key] = digest
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    return True


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still kills and reaps the stage it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "gravnet", "cli.py")):
        print(f"bench: no gravnet source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    ledger = Ledger()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    records = []
    for name in names:
        with SpeedMeter() as meter:
            values, record = run_workload(name, args.seed, args.seconds, args.trace,
                                          env["src_sha256"], ledger, meter)
        records.append(record)
        counts = {s: len(v) for s, v in record.get("samples", {}).items()}
        print(f"workload {name} (seed {args.seed}; samples per command {counts}; "
              f"artifacts sha256 {record.get('artifact_digest')})")
        for command, value in record.get("wall_s", {}).items():
            print(f"  {command + ' wall time, median (not calibrated)':<48} {value:>16.6g} s")
        for key, (value, unit) in values.items():
            print(f"  {key:<48} {value:>16.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}/{key}"] = {"value": value, "unit": unit}
    fail_frac = len(ledger.failures) / max(ledger.attempted, 1)
    print(f"fail_frac {fail_frac:.6g} ratio ({len(ledger.failures)} of {ledger.attempted} operations)")

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "workloads": records, "fail_frac": fail_frac,
                   "failures": ledger.failures}, handle, indent=1, sort_keys=True)

    correct = not ledger.failures and bool(metrics)
    if correct:
        # panels and output trees of a passing run are not needed again;
        # a failing run keeps them for inspection
        for name in names:
            shutil.rmtree(workdir(name, args.seed), ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
