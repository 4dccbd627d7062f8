"""Run one ``gravnet`` command with its layer functions wrapped in timing spans.

The benchmark runs each pipeline stage of its traced pass through this
script instead of the ``gravnet`` entry point.  No source file of the
package changes: the script imports ``gravnet``, replaces each function
named in ``LAYERS`` by a timing wrapper in every ``gravnet`` module that
bound it (``gravnet.cli`` imports with ``from .x import y``, and
``compare`` imports from ``netstats``), wraps
``TradeNetwork.__post_init__`` on the class to count network
constructions, and then calls ``gravnet.cli.main``.

It first runs the same command once on a tiny warm-up configuration, so
lazy LAPACK/SciPy set-up is not charged to the first timed layer call.
Then it times the real command twice in the same warm process: once plain,
before any wrapper is installed, and once traced.  The difference of the
two is the tracing overhead; it is a single-sample estimate.  Spans (name,
start, end, parent index) of the traced run are kept in memory and written
to one JSON file when the command returns::

    python3 bench/trace_stage.py SPEC.json

where SPEC.json holds ``{"warm": [argv...], "real": [argv...], "spans": path}``.
The process exits with the command's exit code.
"""

import contextlib
import functools
import io
import json
import sys
import time

from layers import CONSTRUCTION_SPAN, ENSEMBLE_SAMPLERS, LAYERS

_t_start = time.perf_counter()
import gravnet.cli  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - _t_start


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ensemble_bytes = 0

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_ensemble(self, ensemble):
        # computed from the array the sampler returned, not measured RSS
        self.ensemble_bytes += int(ensemble.replications.nbytes)


def install(tracer: Tracer) -> None:
    """Rebind every layer function in every gravnet namespace that holds it."""
    modules = [m for k, m in sys.modules.items() if k == "gravnet" or k.startswith("gravnet.")]
    for module, names in LAYERS.items():
        defining = sys.modules[f"gravnet.{module}"]
        for fname in names:
            original = getattr(defining, fname)
            hook = tracer.count_ensemble if fname in ENSEMBLE_SAMPLERS else None
            wrapped = tracer.wrap(f"{module}.{fname}", original, hook)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)
    network = sys.modules["gravnet.netstats"].TradeNetwork
    network.__post_init__ = tracer.wrap(CONSTRUCTION_SPAN, network.__post_init__)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with contextlib.redirect_stdout(io.StringIO()):
        code = gravnet.cli.main(spec["warm"])
    if code != 0:
        print(f"trace_stage: warm-up {spec['warm'][0]} exited {code}", file=sys.stderr)
        return code

    plain_start = time.perf_counter()
    code = gravnet.cli.main(spec["real"])
    plain_s = time.perf_counter() - plain_start
    if code != 0:
        print(f"trace_stage: plain {spec['real'][0]} exited {code}", file=sys.stderr)
        return code

    tracer = Tracer()
    install(tracer)
    origin = time.perf_counter()
    code = gravnet.cli.main(spec["real"])
    stage_s = time.perf_counter() - origin

    payload = {
        "exit_code": code,
        "import_s": IMPORT_S,
        "plain_s": plain_s,
        "stage_s": stage_s,
        "ensemble_bytes": tracer.ensemble_bytes,
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
    }
    with open(spec["spans"], "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
