"""Golden digests: the bytes of reports, frozen from a reference run.

A refactor must leave every report byte-identical; any change to what
``analyze``, ``localize``, ``graph`` or the corpus suite print shows up here
as a digest mismatch.  Re-capture a digest only when a report format changes
on purpose, and say so where the change is described.  The package version
that ``analyze`` and ``localize`` echo is blanked before hashing, so a version
bump alone changes no digest.
"""

import hashlib
import json
import re

import pytest

from agmod import theorems
from agmod.cli import main
from agmod.finmod import Lattice

SPECS = {
    "z12": {"ring": [12], "module": [{"d": 12, "c": 0}]},
    "z30": {"ring": [30], "module": [{"d": 30, "c": 0}]},
    "z18_over_z36": {"ring": [36], "module": [{"d": 18, "c": 0}]},
    "z2xz4": {"ring": [2, 4], "module": [{"d": 2, "c": 0}, {"d": 4, "c": 1}]},
    "f2_squared": {"ring": [2], "module": [{"d": 2, "c": 0}, {"d": 2, "c": 0}]},
    "z4_z2": {"ring": [4], "module": [{"d": 4, "c": 0}, {"d": 2, "c": 0}]},
    "z2_z6_z4": {"ring": [12],
                 "module": [{"d": 2, "c": 0}, {"d": 6, "c": 0}, {"d": 4, "c": 0}]},
    "z4_z4_z2_z2": {"ring": [4], "module": [{"d": 4, "c": 0}, {"d": 4, "c": 0},
                                           {"d": 2, "c": 0}, {"d": 2, "c": 0}]},
    "f3_4": {"ring": [3], "module": [{"d": 3, "c": 0}] * 4},
    "mixed": {"ring": [2, 3],
              "module": [{"d": 2, "c": 0}, {"d": 2, "c": 0}, {"d": 3, "c": 1}]},
    "z12_gens_list": {"ring": [12], "module": [{"d": 12, "c": 0}],
                      "options": {"localize_gens": [3, 9]}},
    "z12_gens_text": {"ring": [12], "module": [{"d": 12, "c": 0}],
                      "options": {"localize_gens": "4"}},
    "z2xz4_gens": {"ring": [2, 4], "module": [{"d": 2, "c": 0}, {"d": 4, "c": 1}],
                   "options": {"localize_gens": [[1, 2]]}},
    "z30_min": {"ring": [30], "module": [{"d": 30, "c": 0}],
                "options": {"localize_at_min_primes": True}},
}

DIGESTS = [
    ("z12", ["analyze"], "6b6153dd4c272bc91073ee3187563c2805ec9bc9f30269ed4b8ad692b093be35"),
    ("z12", ["analyze", "--localize-at-min-primes"],
     "99f15679ecfca45c92713530c9d14e87eed119ec87968708bf672c1465d5bd5d"),
    ("z12", ["analyze", "--localize-gens", "3"],
     "f955fb9c52072aa2e3b4a8a0c4bb8e7e0d5495977acb02b16efcc9ed74e8e10c"),
    ("z30", ["analyze", "--localize-at-min-primes"],
     "459af36efd79ac54c9d2df4f9c08b3e4820181f781936c0fe72ee0f80b4ec0a7"),
    ("z18_over_z36", ["analyze", "--localize-gens", "2,3"],
     "1b0d7f02ec27b3db7decd3f44698ec941676e217f15a31864f8d240a42384a59"),
    ("z2xz4", ["analyze", "--localize-at-min-primes"],
     "f2beff9c8cec5f12711f5cef54c695d4c0cfa8561b3841c1fe589ec789d30185"),
    ("z2xz4", ["analyze", "--localize-gens", "1:2"],
     "3169991a567a2cfd77801bc7d6c34575677f42ea873a3a799508933f855917b1"),
    ("f2_squared", ["analyze"],
     "b0a6682a1c9042eaff0bb5738a25d661caa4636b9a75f7d9c8b71b04cf4574ed"),
    ("z4_z2", ["analyze", "--localize-gens", "3"],
     "ee6156617bce369a3295dbb50a4850cb47eb5a9d2bd6c98fb43a05674b478865"),
    ("mixed", ["analyze", "--localize-at-min-primes"],
     "4d6447885b5a8abf48cf6125b22c57517b725eeb3c378f5113448f220cccb8e0"),
    ("z12_gens_list", ["analyze"],
     "8f258db7c9e6c8fd4c2db6c30c92e1294ca5465a1a66565fd7a5d9736843fec0"),
    ("z12_gens_text", ["analyze"],
     "561ae5dfd658a4527743482b48b3ca8d5e01c6316ec064078856290b511b6864"),
    ("z2xz4_gens", ["analyze"],
     "3169991a567a2cfd77801bc7d6c34575677f42ea873a3a799508933f855917b1"),
    ("z30_min", ["analyze"],
     "459af36efd79ac54c9d2df4f9c08b3e4820181f781936c0fe72ee0f80b4ec0a7"),
    ("z12", ["localize", "--at-min-primes"],
     "cda68de7eec0f921a84edd9396ba098a8a32b55c2a1aa4a5b2011397fdd3f088"),
    ("z30", ["localize", "--at-min-primes"],
     "271996f01fe7af5a3d458754240c4a890496d195efaae5d83b179600c5d79605"),
    ("z2xz4", ["localize", "--at-min-primes"],
     "821d71554862b19781b5c2e4af9c88e4a3f91d5291801b1daef469d4483f925d"),
    ("z4_z2", ["localize", "--at-min-primes"],
     "92c5a5479c1cdc18e8cb909d896724d0cf94bc9463ea9ed86efb933a8faf39ee"),
    ("z12", ["graph"], "76adf8293decd2401846214d8216d0129e6d71208a4007a86e41c1bee403653c"),
    ("z12", ["graph", "--star"],
     "e3e4f39c8048a0e5479c24f316146c2272f9313d68801f2f2bfa2dbd53aea64b"),
    ("z2xz4", ["graph", "--star"],
     "31022773eca3838e5ed083351ef160978ae43699cb69c6a56f153303da1bf676"),
    ("f2_squared", ["graph"],
     "d43c2ba3e537ffc422c368372a187461e8ccce84c1699e793d62942037df1dfa"),
    ("mixed", ["graph", "--star"],
     "178c9e73565d0764e55b017b74de70283a75f8b35acf051aae2c2fc0dc9dc00c"),
    # AG has 53 vertices: colon classes of 10 and 15 members that are cliques,
    # of 11 and 15 that are stable sets, and two single vertices
    ("z2_z6_z4", ["graph"],
     "42a84ae38c73620d2132e95414ced158c16285191902d45ac086d2c06eefe1b4"),
    ("z2_z6_z4", ["graph", "--star"],
     "ec97512f757b90ab77f259559b4bc336e8613f8bb61ec33cf197733ac4bfa033"),
    # reports whose invariants come from quotient graphs that cut classes:
    # AG of z2_z6_z4 keeps 4 of its self-killing classes of 15 and 10
    # members and 3 of its stable ones of 15 and 11, and AG of z4_z4_z2_z2
    # keeps 3 of its self-killing classes of 181 and 66 members
    ("z2_z6_z4", ["analyze"],
     "b2a9bc45676fae222eef745a8ba29011b4c142834108a62f6e75c20347a1e2ed"),
    ("z4_z4_z2_z2", ["analyze"],
     "c9497885558842010a00b1ef62f7abf1cce571ccc24c3534292ae52a276ee0ac"),
    # dense edge lists, each row a slice of its class's list of tails: AG of
    # f3_4 is one self-killing class of 210 members and M (K_211), and AG of
    # z4_z4_z2_z2 has two self-killing classes, of 181 and 66 members, and M
    ("f3_4", ["analyze"],
     "2ed8097e2d4ce46b7117555e91bab7e7bd89fac46a61a6c55fcda2306c4a15b4"),
    ("f3_4", ["graph"],
     "4cd48fc4864da8edadcfbfcd23fdae87a32e97f94bbcbe790989406535af9cf1"),
    ("z4_z4_z2_z2", ["graph"],
     "5d4c461eebc580b7535e35d2e7966098b63020a61b71f7cdb691117483032be9"),
    ("z4_z4_z2_z2", ["graph", "--star"],
     "28004b11246cd41bc75a6885f7fc810cd0ddb5726c41d60d8a51e6b7d0dbc06c"),
]

# The default-corpus suite report with every predicate, as canonical JSON.
CORPUS_DIGEST = "8adebf4d1f9695017e8eac989b92ef49337b84b0a486622bd36189ba724c11f6"

# The max-ring-16 suite report under a lattice cap of 4 (210 skips).
CAPPED_CORPUS_DIGEST = "7cc2fdf278b570e1de2c004281d88a0a78d92477b7d5f02c2c6952ec42423243"

# The wide suite report (max-ring 400, max-module 512: 3250 instances, no
# violation and no skip), as canonical JSON.
WIDE_CORPUS_DIGEST = "8d8a2278048ce73e64e307567bfdef66c4347d8614cf63ed5f1f31d91b6af0c6"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blank_version(data: bytes) -> bytes:
    """The report bytes with the echoed package version replaced by ''."""
    data, n = re.subn(
        rb'^  "version": "[^"]*"(,?)$', rb'  "version": ""\1', data, flags=re.M
    )
    assert n == 1, "report does not echo exactly one version"
    return data


@pytest.mark.parametrize(
    "name, argv, digest", DIGESTS, ids=[f"{n}-{' '.join(a)}" for n, a, _ in DIGESTS]
)
def test_cli_output_digest(tmp_path, name, argv, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    out = tmp_path / "out"
    flag = "--dot" if argv[0] == "graph" else "--out"
    assert main([argv[0], str(spec), *argv[1:], flag, str(out)]) == 0
    data = out.read_bytes()
    if argv[0] != "graph":
        data = blank_version(data)
    assert sha256(data) == digest


@pytest.mark.parametrize("name", ["z12", "z30", "z2xz4"])
def test_localize_at_min_primes_builds_no_lattice(tmp_path, monkeypatch, name):
    # the split of a cyclic M is read off its parts as masks, and both
    # graphs off the class table, so the report keeps its bytes with the
    # lattice refused
    (digest,) = [d for n, argv, d in DIGESTS
                 if n == name and argv == ["localize", "--at-min-primes"]]

    def refused(self, module, sums):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(Lattice, "__init__", refused)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    out = tmp_path / "out"
    assert main(["localize", str(spec), "--at-min-primes", "--out", str(out)]) == 0
    assert sha256(blank_version(out.read_bytes())) == digest


def test_corpus_report_digest(corpus_report):
    data = json.dumps(corpus_report.to_dict(), sort_keys=True, ensure_ascii=False)
    assert sha256(data.encode()) == CORPUS_DIGEST


def test_capped_corpus_report_digest():
    spec = theorems.CorpusSpec(max_ring_card=16)
    report = theorems.run_suite(theorems.generate_corpus(spec), corpus_spec=spec, cap=4)
    assert len(report.skips) == 210
    data = json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=False)
    assert sha256(data.encode()) == CAPPED_CORPUS_DIGEST


def test_wide_corpus_report_digest():
    spec = theorems.CorpusSpec(max_ring_card=400, max_module_card=512)
    report = theorems.run_suite(theorems.generate_corpus(spec), corpus_spec=spec)
    assert len(report.results) == 3250 * 21
    assert not report.violations and not report.skips
    data = json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=False)
    assert sha256(data.encode()) == WIDE_CORPUS_DIGEST
