"""The functions the benchmark tracer wraps must keep their names in twistaff.

perfbench/tracer.py resolves each traced name with ``vars(owner)[name]`` when
a traced run starts; a refactor that drops or moves one should fail here,
not in the benchmark.  The tracer module needs only the standard library and
is loaded without being changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    names = tracer.SPANNED + tracer.COUNTED
    assert names
    for name in names:
        importlib.import_module("twistaff." + name.split(".")[0])
        assert callable(tracer._resolve(name)), name
