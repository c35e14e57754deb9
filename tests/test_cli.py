import errno
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agmod
from agmod import aggraph, cli, theorems
from agmod.cli import main, parse_gens, parse_instance
from agmod.errors import InternalCheckError, ResourceLimitError
from agmod.finmod import Module, Submodule
from agmod.finring import Ring, prime_factors, ring_table
from agmod.localization import MULT_SET_CAP

from helpers import NON_CYCLIC, edges, key
from oracles import report_submodules
from test_golden import SPECS as GOLDEN_SPECS


@pytest.fixture()
def spec_file(tmp_path):
    def write(obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


Z12 = {"ring": [12], "module": [{"d": 12, "c": 0}]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _localization(capsys, *argv):
    """The localization section of a command's report, which must exit 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, (argv, err)
    return json.loads(out)["localization"]


def test_parse_instance_round_trip():
    module, _ = parse_instance(Z12)
    echo = cli.instance_echo(module)
    module2, _ = parse_instance(echo)
    assert key(module) == key(module2)


def test_parse_instance_rejects_unknown_fields():
    with pytest.raises(cli.SpecError):
        parse_instance({**Z12, "extra": 1})
    with pytest.raises(cli.SpecError):
        parse_instance({"ring": [12], "module": [{"d": 12, "c": 0, "x": 1}]})
    with pytest.raises(cli.SpecError):
        parse_instance({"ring": [12], "module": [{"d": 12, "c": 0}],
                        "options": {"bogus": True}})


def test_parse_instance_collects_all_bad_factors():
    with pytest.raises(cli.SpecError) as err:
        parse_instance({"ring": [12], "module": [{"d": 5, "c": 0}, {"d": 2, "c": 9}]})
    assert len(err.value.details) == 2


def test_parse_gens():
    z12 = Ring([12])
    assert parse_gens(z12, "3,9") == [(3,), (9,)]
    r = Ring([2, 3])
    assert parse_gens(r, "1:0,0:1") == [(1, 0), (0, 1)]
    with pytest.raises(cli.SpecError):
        parse_gens(r, "3")


def test_analyze_report_fields(capsys, spec_file):
    code, out, _ = run_cli(capsys, "analyze", spec_file(Z12))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["instance"] == Z12
    assert report["cardinalities"] == {"ring": 12, "module": 12}
    assert report["lattice"]["count"] == 6
    labels = {s["id"]: s["label"] for s in report["submodules"]}
    assert {labels[i] for i in report["lattice"]["min_primes"]} == {"⟨2⟩", "⟨3⟩"}
    assert labels[report["lattice"]["radical_zero"]] == "⟨6⟩"
    assert report["lattice"]["annihilator"] == [12]
    assert report["lattice"]["cyclic"] is True
    assert "path_4" in report["graphs"]["AG"]["invariants"]["shape"]
    assert report["graphs"]["AG"]["invariants"]["diameter"] == 3
    assert report["clique_witness"]["size"] == 2
    # every referenced submodule id resolves
    ids = set(labels)
    for section in ("minimal", "primes", "min_primes"):
        assert set(report["lattice"][section]) <= ids
    for v in report["graphs"]["AG"]["vertices"]:
        assert v["id"] in ids


def test_analyze_is_deterministic(capsys, spec_file):
    path = spec_file(Z12)
    _, first, _ = run_cli(capsys, "analyze", path)
    _, second, _ = run_cli(capsys, "analyze", path)
    assert first == second


def test_analyze_localization_sections(capsys, spec_file):
    path = spec_file(Z12)
    code, out, _ = run_cli(capsys, "analyze", path, "--localize-at-min-primes")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert loc["idempotent"] == [1]
    assert sorted(loc["components"]["sizes"]) == [3, 4]
    code, out, _ = run_cli(capsys, "analyze", path, "--localize-gens", "3")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert loc["idempotent"] == [9] and loc["image_size"] == 4
    # the minimal-prime localization wins; the unused gens are never parsed
    code, out, _ = run_cli(
        capsys, "analyze", path, "--localize-at-min-primes", "--localize-gens", "x"
    )
    assert code == 0
    assert json.loads(out)["localization"]["idempotent"] == [1]
    # an empty flag gives no generators, and it overrides the spec's own gens
    with_gens = spec_file({**Z12, "options": {"localize_gens": "3"}}, name="gens.json")
    for spec in (path, with_gens):
        code, out, err = run_cli(capsys, "analyze", spec, "--localize-gens", "")
        assert code == 64 and out == "" and "no generators given" in err, spec
    # both commands build the section with one function: on the golden and
    # NON_CYCLIC specs the section of analyze is the localize report's, asked
    # for by flag or by spec option, and the components follow the request:
    # at the minimal-prime complement iff M is cyclic, never at a closure of gens
    specs = list(GOLDEN_SPECS.values())
    specs += [{"ring": r, "module": [{"d": d, "c": c} for d, c in f]} for r, f in NON_CYCLIC]
    for spec in specs:
        base = {"ring": spec["ring"], "module": spec["module"]}
        path, plain = spec_file(spec), spec_file(base, name="plain.json")
        at_min = _localization(capsys, "localize", path, "--at-min-primes")
        assert _localization(capsys, "analyze", path, "--localize-at-min-primes") == at_min
        option = spec_file({**base, "options": {"localize_at_min_primes": True}}, name="min.json")
        assert _localization(capsys, "analyze", option) == at_min, spec
        assert ("components" in at_min) == parse_instance(spec)[0].is_cyclic(), spec
        residues = [3] * len(spec["ring"])
        gens = ":".join(map(str, residues))
        by_gens = _localization(capsys, "localize", plain, "--gens", gens)
        assert _localization(capsys, "analyze", plain, "--localize-gens", gens) == by_gens
        for given in (gens, [residues]):
            option = spec_file({**base, "options": {"localize_gens": given}}, name="gens.json")
            assert _localization(capsys, "analyze", option) == by_gens, (spec, given)
        assert "components" not in by_gens, spec
    # the units of Z_12 have the idempotent of its minimal-prime complement,
    # but S is not asked for as that complement, so it gets no components
    path = spec_file(Z12)
    assert "components" in _localization(capsys, "localize", path, "--at-min-primes")
    for argv in (("localize", path, "--gens", "5,7,11"),
                 ("analyze", path, "--localize-gens", "5,7,11")):
        loc = _localization(capsys, *argv)
        assert loc["idempotent"] == [1] and "components" not in loc, argv


def test_graph_command(capsys, spec_file):
    z6 = spec_file({"ring": [6], "module": [{"d": 6, "c": 0}]})
    code, out, _ = run_cli(capsys, "graph", z6)
    assert code == 0
    assert out == (
        "graph AG {\n"
        '  v0 [label="⟨2⟩"];\n'
        '  v1 [label="⟨3⟩"];\n'
        "  v0 -- v1;\n"
        "}\n"
    )


def test_graph_star_empty_body(capsys, spec_file):
    vec = spec_file({"ring": [2], "module": [{"d": 2, "c": 0}, {"d": 2, "c": 0}]})
    code, out, _ = run_cli(capsys, "graph", vec, "--star")
    assert code == 0
    assert out == "graph AG_star {\n}\n"


def test_localize_command(capsys, spec_file):
    path = spec_file(Z12)
    code, out, _ = run_cli(capsys, "localize", path, "--gens", "3")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert loc["idempotent"] == [9]
    assert loc["image_size"] == 4 and loc["kernel_size"] == 3
    code, out, _ = run_cli(capsys, "localize", path, "--at-min-primes")
    loc = json.loads(out)["localization"]
    assert loc["components"]["sizes"] in ([3, 4], [4, 3])
    assert loc["comparison"]["clique_before"] == loc["comparison"]["clique_after"]


def test_localize_enumerates_no_lattice_of_the_source(capsys, spec_file, monkeypatch):
    # the kernel (1-e)M is reported by its size |M| / |eM|, so localizing
    # Z_4+Z_2+Z_6+Z_3 over Z_4 x Z_6 lists none of its 96 submodules
    calls = []
    lattice = Module.lattice
    monkeypatch.setattr(Module, "lattice", lambda self: calls.append(self.factors) or lattice(self))
    factors = [(4, 0), (2, 0), (6, 1), (3, 1)]
    spec = spec_file({"ring": [4, 6], "module": [{"d": d, "c": c} for d, c in factors]})
    code, out, _ = run_cli(capsys, "localize", spec, "--gens", "1:3")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert (loc["image_size"], loc["kernel_size"]) == (16, 9)
    assert tuple(factors) not in calls


def test_localize_with_zero(capsys, spec_file):
    path = spec_file(Z12)
    code, out, _ = run_cli(capsys, "localize", path, "--gens", "0")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert loc["image_size"] == 1
    assert loc["invariants_after"]["shape"] == ["empty"]


def test_corpus_command(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "corpus", "--max-ring", "8", "--max-module", "16",
        "--theorems", "thm_2_21,cor_2_19", "--out", str(out_file)
    )
    assert code == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["schema"] == 1
    assert not report["violations"]
    assert report["theorems"]["thm_2_21"]["applicable_FAIL"] == 0
    assert report["theorems"]["thm_2_21"]["applicable_pass"] == report["instances"]


def test_corpus_runs_a_repeated_theorem_id_once(capsys, tmp_path):
    outs = [tmp_path / "once.json", tmp_path / "twice.json"]
    for ids, out in zip(["prop_2_5", "prop_2_5,prop_2_5"], outs):
        code, _, _ = run_cli(
            capsys, "corpus", "--max-ring", "4", "--theorems", ids, "--out", str(out)
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_corpus_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "corpus", "--theorems", "nope")
    assert code == 64
    assert "unknown theorem" in err


@pytest.mark.parametrize("ids", [",", "", " , "])
def test_corpus_empty_theorem_list(capsys, ids):
    code, out, err = run_cli(capsys, "corpus", "--max-ring", "6", "--theorems", ids)
    assert code == 64 and out == ""
    assert "no theorem ids given" in err


@pytest.mark.parametrize("argv, message", [
    (["--max-ring", "1"], "select no instance"),
    (["--max-module", "1"], "select no instance"),
    (["--max-ring", "6", "--jobs", "0"], "--jobs must be at least 1"),
    (["--max-ring", "6", "--jobs", "-3"], "--jobs must be at least 1"),
])
def test_corpus_options_that_run_nothing_exit_64(capsys, argv, message):
    code, out, err = run_cli(capsys, "corpus", *argv)
    assert code == 64 and out == ""
    assert message in err


def test_bad_specs_exit_64(capsys, spec_file, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad_json))
    assert code == 64 and "line 1" in err
    code, _, err = run_cli(
        capsys, "analyze", spec_file({"ring": [12], "module": [{"d": 5, "c": 0}]})
    )
    assert code == 64 and "factor" in err
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 64
    # files that cannot be decoded: not UTF-8, nested past the recursion
    # limit, an integer past the int-string conversion limit
    undecodable = [tmp_path / name for name in ("latin.json", "deep.json", "long.json")]
    undecodable[0].write_bytes(b'{"ring": [12], "module": "\xe9"}')
    undecodable[1].write_text("[" * 100000, encoding="utf-8")
    undecodable[2].write_text('{"ring": [' + "1" * 5000 + "]}", encoding="utf-8")
    for path in undecodable:
        for argv in (["analyze"], ["graph"], ["localize", "--at-min-primes"]):
            code, _, err = run_cli(capsys, *argv, str(path))
            assert code == 64 and f"cannot decode spec file {path}" in err, (argv, path)
        proc = subprocess.run(
            [sys.executable, "-m", "agmod.cli", "analyze", str(path)],
            capture_output=True, encoding="utf-8", timeout=30, env=_subprocess_env(),
        )
        assert proc.returncode == 64 and proc.stderr.startswith("agmod: "), proc.stderr
        assert "Traceback" not in proc.stderr
    for options, message in [
        ({"localize_gens": ["x"]}, "localize_gens"),
        ({"localize_gens": 5}, "localize_gens"),
        ({"localize_gens": [True]}, "localize_gens"),
        ({"localize_gens": "x"}, "not a tuple of integers"),
        ({"localize_at_min_primes": "yes"}, "localize_at_min_primes"),
        ({"localize_at_min_primes": 1}, "localize_at_min_primes"),
    ]:
        code, _, err = run_cli(capsys, "analyze", spec_file({**Z12, "options": options}))
        assert code == 64 and message in err, options
    for factor in ({"d": True, "c": 0}, {"d": 12, "c": False}):
        code, _, err = run_cli(
            capsys, "analyze", spec_file({"ring": [12], "module": [factor]})
        )
        assert code == 64 and "factor" in err, factor


def test_the_encoding_gate_reaches_the_package_and_every_test_module(pytestconfig):
    # pyproject.toml makes an EncodingWarning an error in every module of the
    # package and under tests/, and in none under perfbench/: a test module
    # added later must join the last entry's list
    gates = [
        entry.split(":")[3] for entry in pytestconfig.getini("filterwarnings")
        if entry.split(":")[:3] == ["error", "", "EncodingWarning"]
    ]
    names = ["agmod.cli", "agmod.finmod"] + [p.stem for p in Path(__file__).parent.glob("*.py")]
    assert all(any(re.match(g, name) for g in gates) for name in names), (gates, names)
    assert not any(re.match(g, "test_smoke") for g in gates), gates


def test_usage_error_exit_64(capsys):
    assert main(["localize", "x.json"]) == 64  # missing required group


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
    capsys, spec_file, monkeypatch
):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    path = spec_file(Z12)
    assert run_cli(capsys, "analyze", path)[0] == 0
    # a cmd_analyze rebound after the first call (as the benchmark's tracer
    # rebinds it) is the one the next call runs
    seen = []
    analyze = cli.cmd_analyze
    monkeypatch.setattr(
        cli, "cmd_analyze", lambda args, cap: seen.append(args.spec) or analyze(args, cap)
    )
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0 and seen == [path]
    assert json.loads(out)["lattice"]["count"] == 6
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out == f"agmod {agmod.__version__}\n"
    assert run_cli(capsys, "localize", path)[0] == 64
    assert built == [1]


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import agmod.cli\n"
        "assert not built, 'importing agmod.cli built a parser'\n"
        "assert agmod.cli.main(['--version']) == 0 and built\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, encoding="utf-8", timeout=30, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_lattice_cap_env_override(capsys, spec_file, monkeypatch):
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "2")
    code, _, err = run_cli(capsys, "analyze", spec_file(Z12))
    assert code == 3
    assert "cap" in err
    for junk in ("junk", "0", "-3"):
        monkeypatch.setenv("AGMOD_MAX_SUBMODULES", junk)
        code, _, err = run_cli(capsys, "analyze", spec_file(Z12))
        assert code == 64 and "must be a positive integer" in err, junk
    # the cap held for those runs only
    monkeypatch.delenv("AGMOD_MAX_SUBMODULES")
    code, _, _ = run_cli(capsys, "analyze", spec_file(Z12))
    assert code == 0
    assert len(Module(Ring([12]), [(12, 0)]).lattice()) == 6


def test_element_cap_fires_before_the_module_is_built(capsys, spec_file):
    # 10^8 elements would exhaust memory if the carrier were materialized
    huge = {"ring": [100000000], "module": [{"d": 100000000, "c": 0}]}
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", spec_file(huge))
    assert time.perf_counter() - start < 1
    assert code == 3 and "above the cap of 512" in err


def test_element_cap_fires_before_the_multiplicative_set_is_walked(capsys, spec_file):
    # 3 has order 5 * 10^6 modulo 10^8, so walking its powers takes seconds
    huge = {"ring": [100000000], "module": [{"d": 100000000, "c": 0}]}
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "localize", spec_file(huge), "--gens", "3")
    assert time.perf_counter() - start < 1
    assert code == 3 and "above the cap of 512" in err


def test_multiplicative_set_walk_is_capped(capsys, spec_file):
    # Z_2 over Z_2000000: the seven odd primes below generate 800000 units,
    # past the walk's cap, while the powers of 3 number 100000, below it
    spec = spec_file({"ring": [2000000], "module": [{"d": 2, "c": 0}]})
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "localize", spec, "--gens", "3,7,11,13,17,19,23")
    assert time.perf_counter() - start < 10
    assert code == 3 and f"more than {MULT_SET_CAP} elements" in err
    code, out, _ = run_cli(capsys, "localize", spec, "--gens", "3")
    assert code == 0
    assert json.loads(out)["localization"]["mult_set"]["size"] == 100000


def test_lattice_cap_fires_before_the_multiplicative_set_is_walked(
    capsys, spec_file, monkeypatch
):
    # Z_2 has two submodules; with a cap of 1 the run stops at the lattice,
    # before the walk of 800000 units would reach its own cap
    spec = spec_file({"ring": [2000000], "module": [{"d": 2, "c": 0}]})
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "1")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "localize", spec, "--gens", "3,7,11,13,17,19,23")
    assert time.perf_counter() - start < 1
    assert code == 3 and "more than 1 submodules (lattice cap)" in err
    assert "multiplicative set" not in err


def test_a_cap_above_the_default_holds_for_the_whole_run(capsys, spec_file, monkeypatch):
    # Z_2^3 + Z_8^2 over Z_8 has exactly 4162 submodules, more than the
    # default cap: every lattice and class table the run reads keeps its cap
    spec = spec_file({
        "ring": [8],
        "module": [{"d": 2, "c": 0}] * 3 + [{"d": 8, "c": 0}] * 2,
    })
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "4162")
    assert run_cli(capsys, "localize", spec, "--at-min-primes")[0] == 0
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "4161")
    code, _, err = run_cli(capsys, "localize", spec, "--at-min-primes")
    assert code == 3 and "more than 4161 submodules (lattice cap)" in err


def test_localized_image_keeps_the_runs_cap(capsys, spec_file, monkeypatch):
    # Z_2^5 + Z_4 + Z_3 over Z_12 has 10552 submodules; S = {1, 9} keeps its
    # 2-part Z_2^5 + Z_4, with 5276, more than the default cap, which the
    # image must not fall back to
    spec = spec_file({
        "ring": [12],
        "module": [{"d": 2, "c": 0}] * 5 + [{"d": 4, "c": 0}, {"d": 3, "c": 0}],
    })
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "11000")
    code, out, _ = run_cli(capsys, "localize", spec, "--gens", "9")
    assert code == 0
    loc = json.loads(out)["localization"]
    assert (loc["image_size"], loc["kernel_size"]) == (128, 3)
    # the analyze report lists every submodule and both graphs' edges, some
    # 3 GB of text, so it is kept here and not written
    reports = []
    monkeypatch.setattr(cli, "_dump", lambda report, out: reports.append(report))
    assert run_cli(capsys, "analyze", spec, "--localize-gens", "9")[0] == 0
    assert reports[0]["localization"] == loc
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "10551")
    for argv in (["localize", spec, "--gens", "9"], ["analyze", spec, "--localize-gens", "9"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "more than 10551 submodules (lattice cap)" in err, argv


def _subprocess_env() -> dict:
    """The environment with this checkout's agmod first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(agmod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# non-cyclic shapes and a squarefree one, run through every pipeline command
PIPELINE_SHAPES = NON_CYCLIC + [([30], [(30, 0)])]


def _run_pipeline(capsys, spec_file, theorem_ids):
    for moduli, factors in PIPELINE_SHAPES:
        spec = spec_file({
            "ring": moduli,
            "module": [{"d": d, "c": c} for d, c in factors],
        })
        # the projection onto component 0, and an element that is no unit
        proj = ":".join("1" if c == 0 else "0" for c in range(len(moduli)))
        other = ":".join(str(n // 2) for n in moduli)
        for argv in (
            ["analyze", spec],
            ["analyze", spec, "--localize-at-min-primes"],
            ["analyze", spec, "--localize-gens", proj],
            ["analyze", spec, "--localize-gens", other],
            ["graph", spec],
            ["graph", spec, "--star"],
            ["localize", spec, "--at-min-primes"],
            ["localize", spec, "--gens", other],
        ):
            assert run_cli(capsys, *argv)[0] == 0, argv
    modules = [Module(Ring(r), f) for r, f in PIPELINE_SHAPES]
    report = theorems.run_suite(modules, theorem_ids)
    assert not report.violations and not report.skips


def _refuse(what):
    def refused(*args):
        raise AssertionError(f"the pipeline used {what}")

    return refused


def test_pipeline_lists_no_element_of_m(monkeypatch, capsys, spec_file):
    # images r*M, cyclic members and joins come from the factors and the
    # lattice, and thm_2_10 reads lattice members, so nothing lists the
    # elements of M
    monkeypatch.setattr(Module, "elements", property(_refuse("Module.elements")))
    _run_pipeline(capsys, spec_file, theorems.THEOREM_IDS)


def test_pipeline_works_on_masks_only(monkeypatch, capsys, spec_file):
    # lattice members are masks over element indices: no command and no
    # predicate decodes a member's element set
    monkeypatch.setattr(Submodule, "elements", property(_refuse("Submodule.elements")))
    _run_pipeline(capsys, spec_file, theorems.THEOREM_IDS)


def test_one_analyze_factors_each_modulus_once(monkeypatch, capsys, spec_file):
    # the two primes are close to the trial-division bound, so every
    # factorization of the modulus costs
    n = 999983 * 1000003
    calls = []

    def counted(k):
        calls.append(k)
        return prime_factors(k)

    for name, module in list(sys.modules.items()):
        imported = getattr(module, "prime_factors", None) is prime_factors
        if name.split(".")[0] == "agmod" and imported:
            monkeypatch.setattr(module, "prime_factors", counted)
    spec = spec_file({"ring": [n], "module": [{"d": 1, "c": 0}]})
    for extra in ([], ["--localize-at-min-primes"]):
        # the ring's table is built from the primes the ring factored
        ring_table.cache_clear()
        calls.clear()
        assert run_cli(capsys, "analyze", spec, *extra)[0] == 0
        assert calls.count(n) == 1, extra


def test_only_the_ring_and_the_unit_group_factor(monkeypatch, capsys, spec_file):
    # each modulus is factored by Ring.primes, and every later prime fact
    # (semiprimality, rad(0), a maximal colon) is read off the part table or
    # the ring's primes; the one other factorization is of phi(n_c), for a
    # generator of the unit group.  The corpus is generated afresh, so no
    # ring has its primes yet
    callers = set()

    def recorded(k):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a generator expression
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return prime_factors(k)

    for name, module in list(sys.modules.items()):
        imported = getattr(module, "prime_factors", None) is prime_factors
        if name.split(".")[0] == "agmod" and imported:
            monkeypatch.setattr(module, "prime_factors", recorded)
    report = theorems.run_suite(theorems.generate_corpus(theorems.CorpusSpec()))
    assert not report.violations and not report.skips
    for name, obj in GOLDEN_SPECS.items():
        spec = spec_file(obj, f"{name}.json")
        for extra in ([], ["--localize-at-min-primes"]):
            assert run_cli(capsys, "analyze", spec, *extra)[0] == 0, (name, extra)
    assert callers == {"primes", "_unit_generator"}


def test_import_agmod_leaves_the_process_pool_unloaded():
    # only run_suite's pool branch needs concurrent.futures
    code = "import sys, agmod; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, encoding="utf-8", timeout=30, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unfactorable_modulus_exits_3_at_once(tmp_path):
    # Z_1 over Z_{2^61 - 1}: the module is trivial, but the ring modulus has
    # no prime factor below the trial-division bound
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"ring": [2**61 - 1], "module": [{"d": 1, "c": 0}]}), encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "agmod.cli", "analyze", str(spec)],
        capture_output=True, encoding="utf-8", timeout=10, env=_subprocess_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert "resource cap exceeded" in proc.stderr


def test_ring_order_past_the_digit_cap_exits_3_before_any_output(capsys, spec_file, tmp_path):
    # |R| = 2^15000 has 4516 digits, more than a report can write in decimal
    spec = spec_file({"ring": [2] * 15000, "module": [{"d": 2, "c": 0}]})
    out = tmp_path / "report.json"
    message = "agmod: resource cap exceeded: the ring's order has more than 4300 digits"
    for argv in (["analyze"], ["localize", "--at-min-primes"]):
        code, stdout, err = run_cli(capsys, *argv, spec, "--out", str(out))
        assert (code, stdout) == (3, "") and err.startswith(message), (argv, err)
        assert not out.exists()
        proc = subprocess.run(
            [sys.executable, "-m", "agmod.cli", *argv, spec],
            capture_output=True, encoding="utf-8", timeout=60, env=_subprocess_env(),
        )
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr
    # the cap is on the digits: 9 * 10^4299 is written, 10^4300 is not
    factor = [{"d": 2, "c": 0}]
    parse_instance({"ring": [10] * 4299 + [9], "module": factor})
    with pytest.raises(ResourceLimitError):
        parse_instance({"ring": [10] * 4300, "module": factor})


def test_analyze_cost_does_not_grow_with_the_ring(tmp_path):
    # Z_6 over Z_9699690 (the product of the primes up to 19): the module is
    # tiny, so no step of analyze may scale with the 9.7 million ring elements
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ring": [9699690], "module": [{"d": 6, "c": 0}]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "agmod.cli", "analyze", str(spec)],
        capture_output=True, encoding="utf-8", timeout=30, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    witness = json.loads(proc.stdout)["clique_witness"]
    assert witness["size"] == 2 and len(witness["submodules"]) == 2


def test_analyze_dense_module_is_fast(tmp_path):
    # F_2^5 over F_2: 374 submodules and a 373-vertex AG with two colon
    # classes; the graph and its girth and diameter are built per class
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ring": [2], "module": [{"d": 2, "c": 0}] * 5}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "agmod.cli", "analyze", str(spec)],
        capture_output=True, encoding="utf-8", timeout=20, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    ag = json.loads(proc.stdout)["graphs"]["AG"]
    assert ag["invariants"]["girth"] == 3 and ag["invariants"]["diameter"] == 1


def test_closed_stdout_exits_64_without_a_traceback(tmp_path):
    # F_3^4's report is over 1 MB, far more than a pipe holds, so the writer
    # meets the closed pipe in the middle of the report
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ring": [3], "module": [{"d": 3, "c": 0}] * 4}), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "agmod.cli", "analyze", str(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    err = err.decode()
    assert proc.returncode == 64, err
    assert err.splitlines() == ["agmod: cannot write stdout: Broken pipe"]
    assert "Traceback" not in err and "Exception ignored" not in err


def test_unwritable_stdout_without_a_descriptor_exits_64(capsys, spec_file, monkeypatch):
    # an in-process stdout has no descriptor to point at os.devnull
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["analyze", spec_file(Z12)]) == 64
    assert capsys.readouterr().err == "agmod: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "SPEC"], "--out"),
    (["graph", "SPEC"], "--dot"),
    (["corpus", "--max-ring", "12"], "--out"),
], ids=["analyze", "graph", "corpus"])
def test_stdout_gets_the_output_file_bytes_under_an_ascii_locale(tmp_path, argv, flag):
    # every report names members by labels such as ⟨2⟩, which ASCII cannot
    # encode; stdout still gets the UTF-8 bytes that the output file gets
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(Z12), encoding="utf-8")
    target = tmp_path / "output"
    cmd = [sys.executable, "-m", "agmod.cli", *[str(spec) if a == "SPEC" else a for a in argv]]
    env = {**_subprocess_env(), "PYTHONIOENCODING": "ascii"}
    piped = subprocess.run(cmd, capture_output=True, timeout=60, env=env)
    assert (piped.returncode, piped.stderr) == (0, b"")
    written = subprocess.run(cmd + [flag, str(target)], capture_output=True, timeout=60, env=env)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert piped.stdout == target.read_bytes()
    assert "⟨".encode() in piped.stdout


def test_failed_internal_check_exits_70_without_a_traceback(capsys, spec_file, monkeypatch):
    def broken(*args):
        raise InternalCheckError("component sizes do not multiply to the image size")

    monkeypatch.setattr(cli, "check_product_decomposition", broken)
    code, out, err = run_cli(capsys, "localize", spec_file(Z12), "--at-min-primes")
    assert (code, out) == (70, "")
    assert err == ("agmod: internal error (this is a bug): "
                   "component sizes do not multiply to the image size\n")


# every command that writes an output file, each with its output flag last
OUTPUT_ARGVS = [
    ["analyze", "SPEC", "--out"],
    ["graph", "SPEC", "--dot"],
    ["localize", "SPEC", "--at-min-primes", "--out"],
    ["corpus", "--max-ring", "4", "--theorems", "thm_2_21", "--out"],
]


@pytest.mark.parametrize("argv", OUTPUT_ARGVS, ids=lambda argv: argv[0])
def test_unwritable_output_exits_64(capsys, spec_file, tmp_path, argv):
    target = tmp_path / "no" / "such" / "dir" / "r.json"
    argv = [spec_file(Z12) if a == "SPEC" else a for a in argv] + [str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err == f"agmod: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("old_size", [lambda n: 3 * n + 1000, lambda n: n // 2],
                         ids=["longer", "shorter"])
@pytest.mark.parametrize("argv", OUTPUT_ARGVS, ids=lambda argv: argv[0])
def test_existing_output_is_overwritten_in_place(capsys, spec_file, tmp_path, argv, old_size):
    argv = [spec_file(Z12) if a == "SPEC" else a for a in argv]
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    assert run_cli(capsys, *argv, str(fresh)) == (0, "", "")
    report = fresh.read_bytes()
    target.write_bytes(b"#" * old_size(len(report)))
    target.chmod(0o640)
    before = target.stat()
    assert run_cli(capsys, *argv, str(target)) == (0, "", "")
    after = target.stat()
    assert target.read_bytes() == report
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_output_through_a_symlink_rewrites_its_target(capsys, spec_file, tmp_path):
    spec, fresh = spec_file(Z12), tmp_path / "fresh.json"
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_bytes(b"#" * 100_000)
    link.symlink_to(real)
    assert run_cli(capsys, "analyze", spec, "--out", str(fresh)) == (0, "", "")
    assert run_cli(capsys, "analyze", spec, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists(os.devnull)
                    or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
                    reason="os.devnull is not a character device")
def test_output_to_devnull_exits_0(capsys, spec_file):
    assert run_cli(capsys, "analyze", spec_file(Z12), "--out", os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_output_to_a_fifo_gets_the_whole_report(capsys, spec_file, tmp_path):
    # a FIFO cannot seek, so the writer must not ask it for a position to cut at
    spec, fresh, fifo = spec_file(Z12), tmp_path / "fresh.json", tmp_path / "fifo"
    assert run_cli(capsys, "analyze", spec, "--out", str(fresh)) == (0, "", "")
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(capsys, "analyze", spec, "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [fresh.read_bytes()]


def _full_disk_after_one_row(write_members):
    """``cli._write_members`` that writes one row and then raises ENOSPC."""

    def one_row_then_a_full_disk(members, write, depth):
        rows = []

        def write_one(text):
            if rows:
                raise OSError(errno.ENOSPC, "No space left on device")
            rows.append(text)
            write(text)

        write_members(members, write_one, depth)

    return one_row_then_a_full_disk


def test_a_failed_write_leaves_a_prefix_of_the_new_report(capsys, spec_file, tmp_path,
                                                          monkeypatch):
    spec, fresh, target = spec_file(Z12), tmp_path / "fresh.json", tmp_path / "r.json"
    assert run_cli(capsys, "analyze", spec, "--out", str(fresh)) == (0, "", "")
    report = fresh.read_bytes()
    target.write_bytes(b"#" * (2 * len(report)))
    monkeypatch.setattr(cli, "_write_members", _full_disk_after_one_row(cli._write_members))
    code, out, err = run_cli(capsys, "analyze", spec, "--out", str(target))
    assert (code, out) == (64, "")
    assert err == f"agmod: cannot write {target}: No space left on device\n"
    left = target.read_bytes()
    assert left and report.startswith(left) and b"#" not in left


@pytest.mark.parametrize("argv, code", [
    (["analyze", "SPEC", "--out"], 0),
    (["graph", "SPEC", "--dot"], 0),
    (["localize", "SPEC", "--at-min-primes", "--out"], 0),
    (["analyze", "SPEC", "--out"], 64),
], ids=["analyze", "graph", "localize", "analyze-failed-write"])
def test_each_command_frees_its_module(capsys, spec_file, tmp_path, monkeypatch, argv, code):
    # a command's module is freed on return, and on a failed write, by
    # reference counting alone: its lattice members hold its radix, not the
    # module, so no cycle leaves it to the collector, which is off here
    refs = []
    load_spec = cli.load_spec

    def spy(path, cap=None):
        module, options = load_spec(path, cap)
        refs.append(weakref.ref(module))
        module.lattice()  # members, whatever the command reads
        return module, options

    monkeypatch.setattr(cli, "load_spec", spy)
    if code:
        monkeypatch.setattr(cli, "_write_members", _full_disk_after_one_row(cli._write_members))
    argv = [spec_file(GOLDEN_SPECS["z4_z2"]) if a == "SPEC" else a for a in argv]
    gc.disable()
    try:
        assert run_cli(capsys, *argv, str(tmp_path / "out"))[0] == code
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


# JSON values of the shapes reports hold: str keys and strings with non-ASCII,
# control and quote characters, ints of any size and sign, bools, None, and
# nested lists, tuples and dicts (empty ones included).
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "⟨2⟩", "é", "\u2028", "\U0001f600"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=30,
)


# Instance specs, malformed or not: arbitrary JSON values, well-formed specs,
# and objects whose ring, module and options fields take every shape.  Ring
# integers stay small, so a well-formed spec is analyzed in milliseconds.
_SMALL = st.integers(-2, 13)
_JUNK = (st.none() | st.booleans() | _TEXT | st.integers(-(2**80), 2**80)
         | st.lists(_TEXT, max_size=2) | st.dictionaries(_TEXT, _SMALL, max_size=2))
_GENS = st.text("0123456789:,- x", max_size=8)
_OPTIONS = st.dictionaries(
    st.sampled_from(["localize_at_min_primes", "localize_gens", "bogus"]),
    st.booleans() | _GENS | st.lists(_SMALL | st.lists(_SMALL, max_size=3), max_size=3) | _JUNK,
    max_size=2,
)
_WELL_FORMED = st.lists(st.integers(2, 13), min_size=1, max_size=3).flatmap(
    lambda ring: st.fixed_dictionaries(
        {"ring": st.just(ring), "module": st.lists(
            st.sampled_from([{"d": d, "c": c} for c, n in enumerate(ring)
                             for d in range(1, n + 1) if n % d == 0]),
            min_size=1, max_size=3,
        )},
        optional={"options": _OPTIONS},
    )
)
_SPEC = _JSON | _WELL_FORMED | st.fixed_dictionaries(
    {
        "ring": st.lists(_SMALL, max_size=3) | _JUNK,
        "module": st.lists(
            st.dictionaries(st.sampled_from(["d", "c", "e"]), _SMALL | _JUNK, max_size=3)
            | _JUNK, max_size=3,
        ) | _JUNK,
    },
    optional={"options": _OPTIONS | _JUNK, "extra": _JUNK},
)


def test_every_spec_exits_0_3_or_64(capsys, tmp_path, monkeypatch):
    # a malformed spec is a usage error (64) with a message, never a
    # traceback; a well-formed one runs (0) or meets a cap (3)
    monkeypatch.setenv("AGMOD_MAX_SUBMODULES", "64")
    spec, out = str(tmp_path / "spec.json"), str(tmp_path / "out")

    @settings(max_examples=300, deadline=None)
    @given(_SPEC, _GENS, st.sampled_from([
        ["analyze", "--out", out],
        ["analyze", "--out", out, "--localize-gens", "GENS"],
        ["graph", "--dot", out],
        ["graph", "--star", "--dot", out],
        ["localize", "--at-min-primes", "--out", out],
    ]))
    def check(obj, gens, argv):
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code = main([argv[0], spec] + [gens if a == "GENS" else a for a in argv[1:]])
        err = capsys.readouterr().err
        assert code in (0, 3, 64), (obj, argv, err)
        assert (code == 0) == (err == ""), (obj, argv, err)

    check()


def _dumped(obj) -> str:
    chunks = []
    cli._write(obj, chunks.append, 0)
    return "".join(chunks) + "\n"


@given(_JSON)
def test_writer_matches_json_dumps(obj):
    assert _dumped(obj) == json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_writer_matches_json_on_the_corpus_report(corpus_report):
    obj = corpus_report.to_dict()
    assert _dumped(obj) == json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, 1.5, {1: "a"}, {"a": [0, {(1,): 2}]}, b"x"],
                         ids=["set", "float", "int-key", "nested-tuple-key", "bytes"])
def test_writer_rejects_values_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli._write(value, lambda chunk: None, 0)


def test_streamed_edges_match_the_pair_list(oracle_modules):
    # the edge array written from the bitmasks is json's rendering of the
    # [id_i, id_j] edge pairs, i < j, at the same nesting depth
    edgeless = ragged = 0
    for m in oracle_modules:
        for g in (aggraph.build_AG(m), aggraph.build_AG_star(m)):
            pairs_ij = edges(g)
            pairs = [[g.vertices[i].id, g.vertices[j].id] for i, j in pairs_ij]
            edgeless += not pairs_ij
            # the array ends in rows, besides the last, with no later neighbour
            ragged += bool(pairs_ij) and pairs_ij[-1][0] < g.n - 2
            for depth in (0, 3):
                chunks = []
                cli._write(g, chunks.append, depth)
                expected = json.dumps(pairs, indent=2).replace("\n", "\n" + "  " * depth)
                assert "".join(chunks) == expected, (key(m), g.kind, depth)
    assert edgeless and ragged


def test_streamed_member_rows_match_the_dicts(oracle_modules):
    # the submodule, vertex and clique witness rows filled into templates are
    # json's rendering of the dicts the report names them by, one write a row
    empty_star = witnessed = 0
    for m in oracle_modules:
        lat = m.lattice().all
        lists = [(cli._Submodules(lat), report_submodules(lat))]
        for g in (aggraph.build_AG(m), aggraph.build_AG_star(m)):
            lists.append((cli._Refs(g.vertices), [v.ref() for v in g.vertices]))
        empty_star += not lists[-1][0]
        if m.is_cyclic():
            witnesses, _ = m.min_prime_clique_witness()
            lists.append((cli._Refs(witnesses), [w.ref() for w in witnesses]))
            witnessed += bool(witnesses)
        for rows, dicts in lists:
            expected = json.dumps(dicts, sort_keys=True, indent=2, ensure_ascii=False)
            for depth in (0, 3):
                chunks = []
                cli._write(rows, chunks.append, depth)
                assert "".join(chunks) == expected.replace("\n", "\n" + "  " * depth), (
                    key(m), type(rows).__name__, depth)
                assert len(chunks) == len(rows) + 1  # the rows and the close
    assert empty_star and witnessed


def test_member_rows_are_written_in_bounded_memory():
    # Z_8^3: the submodules section is 802 rows, 150 kB of text; writing it
    # must hold no more than a few rows at once.  Generators and labels are
    # kept on the members, so they are found before the trace starts.
    members = cli._Submodules(Module(Ring([8]), [(8, 0)] * 3).lattice().all)
    for s in members:
        s.label
    size = [0]

    def write(chunk):
        size[0] += len(chunk)

    tracemalloc.start()
    try:
        cli._write(members, write, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 802 and size[0] > 150_000
    assert peak < size[0] / 10, (peak, size)


def test_report_is_written_in_bounded_memory(spec_file, tmp_path, monkeypatch):
    # F_3^4: the report is 1.17 MB, nearly all of it edge pairs; writing it
    # must hold no more than a few adjacency rows at once
    peaks = []
    dump = cli._dump

    def traced(obj, out):
        tracemalloc.start()
        try:
            dump(obj, out)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_dump", traced)
    out = tmp_path / "report.json"
    spec = spec_file({"ring": [3], "module": [{"d": 3, "c": 0}] * 4})
    assert main(["analyze", spec, "--out", str(out)]) == 0
    size = out.stat().st_size
    assert size > 1_000_000
    assert peaks[0] < size / 4, (peaks, size)


def test_report_with_several_classes_is_written_in_bounded_memory(spec_file, tmp_path,
                                                                  monkeypatch):
    # Z_8^3: AG has 801 vertices in 4 colon classes and the report is
    # 16.6 MB; writing it holds one edge row of text and one list of tails
    # per class at once, never every row
    peaks, classes = [], []
    dump = cli._dump

    def traced(obj, out):
        classes.append(len(obj["graphs"]["AG"]["edges"].sizes))
        tracemalloc.start()
        try:
            dump(obj, out)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_dump", traced)
    out = tmp_path / "report.json"
    spec = spec_file({"ring": [8], "module": [{"d": 8, "c": 0}] * 3})
    assert main(["analyze", spec, "--out", str(out)]) == 0
    size = out.stat().st_size
    assert classes == [4] and size > 16_000_000
    assert peaks[0] < size / 10, (peaks, size)


def test_dot_is_written_in_bounded_memory(spec_file, tmp_path, monkeypatch):
    # Z_8^3: the DOT text is 5 MB, nearly all of it edge lines; writing it
    # must hold no more than one vertex's edge row at once
    peaks = []
    to_dot = aggraph.to_dot

    def traced(graph, write):
        tracemalloc.start()
        try:
            to_dot(graph, write)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(aggraph, "to_dot", traced)
    out = tmp_path / "ag.dot"
    spec = spec_file({"ring": [8], "module": [{"d": 8, "c": 0}] * 3})
    assert main(["graph", spec, "--dot", str(out)]) == 0
    size = out.stat().st_size
    assert size > 5_000_000
    assert peaks[0] < size / 4, (peaks, size)
