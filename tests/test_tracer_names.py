"""The benchmark's tools must keep working against twistaff.

perfbench/tracer.py resolves each traced name with ``vars(owner)[name]`` when
a traced run starts, and perfbench/micro.py times ``cyclo.mat_mul`` on rows
of ``Cyc`` and ``cyclo.mat_inverse`` on what ``sampling.random_unitary``
returns; a refactor that drops or moves a name, or changes what those
functions take, should fail here, not in the benchmark.  Both modules are
loaded without being changed.
"""

import importlib
import importlib.util
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load(PERFBENCH / "tracer.py", "perfbench_tracer")
    names = tracer.SPANNED + tracer.COUNTED
    assert names
    for name in names:
        importlib.import_module("twistaff." + name.split(".")[0])
        assert callable(tracer._resolve(name)), name


def test_micro_timings_run_on_the_row_edge():
    metrics = _load(PERFBENCH / "micro.py", "perfbench_micro").cyclo_micro(0)
    assert len(metrics) == 12
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
