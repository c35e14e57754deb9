"""Command-line surface: analyze instances, export graphs, localize, run the corpus.

Instance specs are strict JSON: {"ring": [n1, ...], "module": [{"d": d, "c": c},
...]} with optional {"options": ...}; unknown fields are rejected and factor
validation reports every offending entry.  All outputs are deterministic byte
for byte for a given input and package version.

Exit codes: 0 ok, 2 theorem violation, 3 resource cap hit (or corpus skips,
unless --skips-ok), 64 usage or spec errors, including an output path that
cannot be written, 70 a failed internal check (always a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring

from . import __version__, aggraph, theorems
from .errors import (
    AgmodError,
    DomainError,
    ResourceLimitError,
    SpecError,
    StructuralError,
)
from .finmod import Module
from .finring import Ring
from .localization import (
    check_product_decomposition,
    localize,
    min_prime_complement,
    mult_closure,
    zero_divisor_free,
)

_OPTION_KEYS = {"localize_at_min_primes", "localize_gens"}
RING_DIGIT_CAP = 4300  # Python's default int-to-str limit; reports write |R|
_RING_ORDER_BOUND = 10**RING_DIGIT_CAP  # the least order with more digits


def _is_int(x) -> bool:
    """A JSON integer; true and false are not integers in a spec."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_instance(obj, cap: int | None = None) -> tuple[Module, dict]:
    """Validate a spec object into a module plus normalized options; the
    module's lattice cap is ``cap`` (``finmod.LATTICE_CAP`` when None)."""
    if not isinstance(obj, dict):
        raise SpecError("instance spec must be a JSON object")
    unknown = sorted(set(obj) - {"ring", "module", "options"})
    if unknown:
        raise SpecError(f"unknown spec fields: {unknown}", unknown)
    if "ring" not in obj or "module" not in obj:
        raise SpecError("spec needs 'ring' and 'module' fields")

    ring_spec = obj["ring"]
    if (
        not isinstance(ring_spec, list)
        or not ring_spec
        or not all(_is_int(n) and n >= 2 for n in ring_spec)
    ):
        raise SpecError("'ring' must be a nonempty list of integers >= 2")
    ring = Ring(ring_spec)
    if ring.cardinality >= _RING_ORDER_BOUND:
        raise ResourceLimitError(
            f"the ring's order has more than {RING_DIGIT_CAP} digits", RING_DIGIT_CAP
        )

    mod_spec = obj["module"]
    if not isinstance(mod_spec, list):
        raise SpecError("'module' must be a list of {'d': ..., 'c': ...} factors")
    bad = []
    factors = []
    for i, item in enumerate(mod_spec):
        if (
            not isinstance(item, dict)
            or set(item) != {"d", "c"}
            or not _is_int(item.get("d"))
            or not _is_int(item.get("c"))
        ):
            bad.append({"index": i, "factor": item, "error": "needs integer fields d, c"})
            continue
        d, c = item["d"], item["c"]
        if not 0 <= c < len(ring.moduli):
            bad.append({"index": i, "factor": item, "error": "no such ring component"})
        elif d < 1 or ring.moduli[c] % d != 0:
            bad.append(
                {"index": i, "factor": item, "error": f"d must divide {ring.moduli[c]}"}
            )
        else:
            factors.append((d, c))
    if bad:
        raise SpecError(f"invalid module factors: {bad}", bad)
    if not factors:
        raise SpecError("'module' needs at least one factor")

    options = _parse_options(ring, obj.get("options", {}))
    return Module(ring, factors, cap), options


def _parse_options(ring: Ring, options) -> dict:
    """Validate spec options; localize_gens comes back as ring elements."""
    if not isinstance(options, dict):
        raise SpecError("'options' must be an object")
    unknown = sorted(set(options) - _OPTION_KEYS)
    if unknown:
        raise SpecError(f"unknown option fields: {unknown}", unknown)
    out = dict(options)
    if not isinstance(options.get("localize_at_min_primes", False), bool):
        raise SpecError("'localize_at_min_primes' must be true or false")
    if "localize_gens" not in options:
        return out
    gens = options["localize_gens"]
    if isinstance(gens, str):
        out["localize_gens"] = parse_gens(ring, gens)
        return out
    if not isinstance(gens, list) or not gens:
        raise SpecError("'localize_gens' must be a string or a nonempty list")
    elems = [g if isinstance(g, list) else [g] for g in gens]
    if not all(len(g) == len(ring.moduli) and all(map(_is_int, g)) for g in elems):
        raise SpecError(
            f"'localize_gens' entries must be integers or lists of "
            f"{len(ring.moduli)} integers, got {gens}"
        )
    out["localize_gens"] = [ring.element(g) for g in elems]
    return out


def instance_echo(module: Module) -> dict:
    return {
        "ring": list(module.ring.moduli),
        "module": [{"d": d, "c": c} for d, c in module.factors],
    }


def load_spec(path: str, cap: int | None = None) -> tuple[Module, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too long an int
        raise SpecError(f"cannot decode spec file {path}: {exc}")
    return parse_instance(obj, cap)


def parse_gens(ring: Ring, text: str):
    """Ring elements as comma-separated residue tuples, residues joined by ':'."""
    gens = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        residues = part.split(":")
        if len(residues) != len(ring.moduli):
            raise SpecError(
                f"element {part!r} has {len(residues)} residues, ring has "
                f"{len(ring.moduli)} components"
            )
        try:
            gens.append(ring.element(int(x) for x in residues))
        except ValueError:
            raise SpecError(f"element {part!r} is not a tuple of integers")
    if not gens:
        raise SpecError("no generators given")
    return gens


def _output(path: str | None, emit) -> None:
    """Run ``emit(write)`` on the file at ``path``, or on stdout, opened
    before anything is written.  The stdout descriptor gets a UTF-8 writer
    of its own, as the file does, so the bytes are the same whatever the
    locale; an in-process stdout without one (a test's capture) takes text.
    A path or stdout that cannot be written, such as a pipe its reader
    closed, is a usage error; the stdout descriptor is then pointed at
    os.devnull, so the flush at interpreter exit prints nothing.

    The file is written over in place, with no O_TRUNC: cutting a report to
    size zero costs more than writing a light one.  After the last write,
    whether ``emit`` returns or raises, a longer file is cut at the written
    end (os.devnull and FIFOs have no size), so a failed write leaves a
    prefix of the new output and no byte of the old file."""
    fd = None if path else _stdout_fd()
    try:
        if not path:
            sys.stdout.flush()
        if path or fd is not None:
            # the opener drops O_TRUNC; open() closes its descriptor if wrapping it fails
            with open(path or fd, "w", encoding="utf-8", closefd=fd is None,
                      opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
                try:
                    emit(fh.write)
                    fh.flush()
                finally:
                    size = path and os.fstat(fh.fileno()).st_size
                    if size and size > (end := os.lseek(fh.fileno(), 0, os.SEEK_CUR)):
                        os.ftruncate(fh.fileno(), end)
        else:
            emit(sys.stdout.write)
            sys.stdout.flush()
    except OSError as exc:
        if fd is not None:
            _silence_stdout(fd)
        raise SpecError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None


def _stdout_fd() -> int | None:
    """The stdout descriptor, or None for an in-process stdout without one."""
    try:
        return sys.stdout.fileno()
    except (OSError, ValueError):
        return None


def _silence_stdout(fd: int) -> None:
    """Point the stdout descriptor ``fd`` at os.devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _dump(obj, out: str | None) -> None:
    """Stream the bytes of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) plus a newline, without building the text."""

    def emit(write):
        _write(obj, write, 0)
        write("\n")

    _output(out, emit)


def _write(obj, write, depth: int) -> None:
    """Write ``obj`` at nesting ``depth`` as the json module's indent=2 encoder
    would; a value a report never holds (a float, a set, a non-str key)
    raises TypeError."""
    if isinstance(obj, str):
        write(encode_basestring(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, _Refs):
        _write_members(obj, write, depth)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        if all(type(x) is int for x in obj):
            write("[" + inner + ("," + inner).join(map(str, obj)))
        else:
            sep = "[" + inner
            for item in obj:
                write(sep)
                sep = "," + inner
                _write(item, write, depth + 1)
        write("\n" + "  " * depth + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be str, got {list(obj)!r}")
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key in sorted(obj):
            write(sep + encode_basestring(key) + ": ")
            sep = "," + inner
            _write(obj[key], write, depth + 1)
        write("\n" + "  " * depth + "}")
    elif isinstance(obj, aggraph.AnnGraph):
        _write_edges(obj, write, depth)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_edges(graph: aggraph.AnnGraph, write, depth: int) -> None:
    """The edge pairs [id_i, id_j], i < j, one row of i per write.

    Row i is its head (``[``, id_i, ``,``) joined to the tails (id_j, ``]``)
    of the later neighbours j, sliced by ``aggraph.later_neighbors``.
    """
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    item = "\n" + "  " * (depth + 2)
    ids = [str(v.id) for v in graph.vertices]
    tails = [i + inner + "]" for i in ids]
    sep = "[" + inner
    for i, row in enumerate(aggraph.later_neighbors(graph, range(graph.n), tails)):
        if row:
            head = "[" + item + ids[i] + "," + item
            write(sep + head + ("," + inner + head).join(row))
            sep = "," + inner
    write("[]" if sep[0] == "[" else outer + "]")


class _Refs(tuple):
    """Submodules a report names by their ``Submodule.ref()`` object
    {"id", "label", "size"}; ``_write`` renders each from one template."""


class _Submodules(_Refs):
    """Lattice members, whose report objects add their generators ("gens")."""


def _write_members(members: _Refs, write, depth: int) -> None:
    """The members' objects, one row per write, each filled into one
    template for its kind of row."""
    inner, key = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    ref = '"id": %d,' + key + '"label": %s,' + key + '"size": %d' + inner + "}"
    sep = "[" + inner
    if isinstance(members, _Submodules):
        row = "{" + key + '"gens": %s,' + key + ref
        item, coord = "\n" + "  " * (depth + 3), "\n" + "  " * (depth + 4)
        head, comma, tail = "[" + coord, "," + coord, item + "]"
        for s in members:
            gens = ("," + item).join(head + comma.join(map(str, g)) + tail for g in s.gens)
            gens = "[" + item + gens + key + "]" if gens else "[]"
            write(sep + row % (gens, s.id, encode_basestring(s.label), s.size))
            sep = "," + inner
    else:
        row = "{" + key + ref
        for s in members:
            write(sep + row % (s.id, encode_basestring(s.label), s.size))
            sep = "," + inner
    write("[]" if sep[0] == "[" else "\n" + "  " * depth + "]")


def _graph_dict(graph: aggraph.AnnGraph) -> dict:
    return {
        "vertices": _Refs(graph.vertices),
        "edges": graph,
        "invariants": aggraph.invariants(graph).to_dict(),
    }


def _localization_dict(module: Module, gens) -> dict:
    """The localization section for the request ``gens``: S is the
    minimal-prime complement when ``gens`` is None, else the closure of the
    ring elements ``gens``.  It compares the invariants of AG before and
    after localizing at S (a graph type already seen is a lookup,
    ``aggraph.invariants``), and at the minimal-prime complement of a cyclic
    M adds the ``components``, one per minimal prime (Theorem 2.17)."""
    module.class_table()  # the caps hold before S is walked
    s = min_prime_complement(module) if gens is None else mult_closure(module.ring, gens)
    loc = localize(module, s)
    inv_before = aggraph.invariants(aggraph.build_AG(module))
    inv_after = aggraph.invariants(aggraph.build_AG(loc.image))
    out = {
        "mult_set": {
            "generator_count": s.generator_count,
            "size": s.size,
            "contains_zero": s.contains_zero,
        },
        "idempotent": list(loc.idem),
        "image_size": loc.image.size,
        "kernel_size": module.size // loc.image.size,  # M = eM (+) (1-e)M
        "zero_divisor_free": zero_divisor_free(module, s),
        "invariants_before": inv_before.to_dict(),
        "invariants_after": inv_after.to_dict(),
        "comparison": {
            "clique_before": inv_before.clique_number,
            "clique_after": inv_after.clique_number,
            "chromatic_before": inv_before.chromatic_number,
            "chromatic_after": inv_after.chromatic_number,
            "semiprime": module.is_semiprime(),
        },
    }
    if gens is None and module.is_cyclic():
        parts = check_product_decomposition(module, loc)
        out["components"] = {
            "idempotents": [list(e) for _, e, _ in parts],
            "sizes": [part.bit_count() for _, _, part in parts],
        }
    return out


def cmd_analyze(args, cap: int | None) -> int:
    module, options = load_spec(args.spec, cap)
    lat = module.lattice()
    star = aggraph.build_AG_star(module)
    ag = aggraph.build_AG(module)
    gen = module.cyclic_generator()
    report = {
        "schema": 1,
        "version": __version__,
        "instance": instance_echo(module),
        "cardinalities": {"ring": module.ring.cardinality, "module": module.size},
        "submodules": _Submodules(lat.all),
        "lattice": {
            "count": len(lat),
            "minimal": [s.id for s in module.minimal_submodules()],
            "primes": [s.id for s in module.primes()],
            "min_primes": [s.id for s in module.min_primes()],
            "radical_zero": module.prime_radical().id,
            "annihilator": list(module.annihilator().divisors),
            "annihilator_nil": module.annihilator().is_nil(),
            "semiprime": module.is_semiprime(),
            "cyclic": gen is not None,
            "cyclic_generator": None if gen is None else list(gen),
            "classification": list(module.classify()),
        },
        "graphs": {
            "AG": _graph_dict(ag),
            "AG_star": _graph_dict(star),
        },
    }
    if args.localize_at_min_primes or options.get("localize_at_min_primes"):
        report["localization"] = _localization_dict(module, None)
    elif args.localize_gens is not None:
        report["localization"] = _localization_dict(
            module, parse_gens(module.ring, args.localize_gens)
        )
    elif "localize_gens" in options:
        report["localization"] = _localization_dict(module, options["localize_gens"])
    if gen is not None:
        witnesses, wreport = module.min_prime_clique_witness()
        report["clique_witness"] = {
            "submodules": _Refs(witnesses),
            **wreport,
        }
    _dump(report, args.out)
    return 0


def cmd_graph(args, cap: int | None) -> int:
    module, _ = load_spec(args.spec, cap)
    graph = aggraph.build_AG_star(module) if args.star else aggraph.build_AG(module)
    _output(args.dot, lambda write: aggraph.to_dot(graph, write))
    return 0


def cmd_localize(args, cap: int | None) -> int:
    module, _ = load_spec(args.spec, cap)
    gens = None if args.at_min_primes else parse_gens(module.ring, args.gens)
    report = {
        "schema": 1,
        "version": __version__,
        "instance": instance_echo(module),
        "localization": _localization_dict(module, gens),
    }
    _dump(report, args.out)
    return 0


def cmd_corpus(args, cap: int | None) -> int:
    if args.jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
    spec = theorems.CorpusSpec(
        max_ring_card=args.max_ring, max_module_card=args.max_module
    )
    ids = None
    if args.theorems is not None:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
        if not ids:
            raise SpecError("no theorem ids given")
        unknown = [t for t in ids if t not in theorems.PREDICATES]
        if unknown:
            raise SpecError(f"unknown theorem ids: {unknown}", unknown)
    corpus = theorems.generate_corpus(spec)
    if not corpus:
        raise SpecError(
            f"--max-ring {args.max_ring} and --max-module {args.max_module} "
            "select no instance"
        )
    report = theorems.run_suite(corpus, ids, corpus_spec=spec, jobs=args.jobs, cap=cap)
    payload = report.to_dict()
    payload["version"] = __version__
    payload["instances"] = len(corpus)
    _dump(payload, args.out)
    if report.violations:
        return 2
    if report.skips and not args.skips_ok:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agmod",
        description="Annihilating-submodule graphs of finite modules: exact "
        "invariants and structural-theorem checking.",
    )
    parser.add_argument("--version", action="version", version=f"agmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full JSON report for one instance")
    p.add_argument("spec", help="instance spec JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--localize-at-min-primes",
        action="store_true",
        help="add a localization section at the minimal-prime complement",
    )
    p.add_argument(
        "--localize-gens",
        help="add a localization section at the closure of these ring elements "
        "(comma-separated; residues within an element joined by ':')",
    )

    p = sub.add_parser("graph", help="DOT output for AG (or AG* with --star)")
    p.add_argument("spec")
    p.add_argument("--star", action="store_true", help="export AG* instead of AG")
    p.add_argument("--dot", help="write DOT here instead of stdout")

    p = sub.add_parser("localize", help="localize an instance and compare invariants")
    p.add_argument("spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at-min-primes", action="store_true")
    group.add_argument("--gens", help="ring elements generating the multiplicative set")
    p.add_argument("--out")

    p = sub.add_parser("corpus", help="run the structural predicates over a corpus")
    p.add_argument("--max-ring", type=int, default=36)
    p.add_argument("--max-module", type=int, default=128)
    p.add_argument("--theorems", help="comma-separated predicate ids (default: all)")
    p.add_argument("--out", help="write the suite report here")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--skips-ok",
        action="store_true",
        help="exit 0 even when resource-capped instances were skipped",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    env = os.environ.get("AGMOD_MAX_SUBMODULES")
    cap = None  # the lattice cap for this run; finmod.LATTICE_CAP when None
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            print(f"agmod: AGMOD_MAX_SUBMODULES must be a positive integer, got {env!r}",
                  file=sys.stderr)
            return 64
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 64 if exc.code not in (0, None) else 0
    # looked up at call time, so a rebound cmd_<command> is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args, cap)
    except ResourceLimitError as exc:
        print(f"agmod: resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (SpecError, StructuralError, DomainError) as exc:
        print(f"agmod: {exc}", file=sys.stderr)
        for d in exc.details:
            print(f"agmod:   {d}", file=sys.stderr)
        return 64
    except AgmodError as exc:
        print(f"agmod: internal error (this is a bug): {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
