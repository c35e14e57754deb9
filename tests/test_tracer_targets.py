"""The benchmark's per-layer spans must name functions the package still has.

``perfbench/tracer.py`` reports a target it cannot find as ``missing`` and
leaves its metrics out instead of failing, so renaming or deleting a package
function it names would silently drop a per-layer metric.  This resolves
every target without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, modname, path, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"tracer target {name} ({modname}.{path}) is gone"
