"""The benchmark's per-layer spans must name functions the package still has.

``perfbench/tracer.py`` reports a target it cannot find as ``missing`` and
leaves its metrics out instead of failing, so renaming or deleting a package
function it names would silently drop a per-layer metric.  This resolves
every target without installing any wrapper, and runs the counter hooks on
real objects, so a renamed attribute they read fails here and not in a
traced pass.
"""

import importlib
import importlib.util
from pathlib import Path

from agmod.aggraph import build_AG, build_AG_star, later_neighbors
from agmod.finmod import Module
from agmod.finring import Ring

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for name, modname, path, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"tracer target {name} ({modname}.{path}) is gone"


def test_tracer_hooks_read_real_objects():
    # the hooks read attributes of the package's graphs, lattices and
    # submodules at span boundaries; run each on real ones
    tracer = _load_tracer()
    t = tracer.Tracer()
    m = Module(Ring([12]), [(2, 0), (6, 0), (4, 0)])
    lattice = m.lattice()
    tracer._lattice_after(t, (m,), lattice)
    assert t.counts["finmod.lattice.submodules"] == len(lattice)
    sub = lattice.all[1]
    tracer._colon_before(t, (m, sub))
    tracer._colon_before(t, (m, sub))
    assert t.counts["finmod.colon.hits"] == 1
    # Module.colon stays only as a tracer target; its one line runs here
    assert all(m.colon(s) is s.colon for s in lattice.all)
    for build in (build_AG, build_AG_star):
        g = build(m)
        before = t.counts["aggraph.edges"]
        tracer._graph_after(t, (m,), g)
        edges = sum(len(row) for row in later_neighbors(g, range(g.n), range(g.n)))
        assert t.counts["aggraph.edges"] - before == edges > 0
    assert t.counts["aggraph.vertices"] == build_AG(m).n + build_AG_star(m).n
