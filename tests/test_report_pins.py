"""Byte pins for `iwahori verify-all --json` reports.

Reports are deterministic for a fixed (group, p, precision, n_samples,
seed), so any change to the arithmetic or to the factorization that
alters a single verdict, margin or count changes the SHA-256 below.  The
hashes were computed before the scalar and factorization fast paths
existed; a faster path that keeps these bytes computes the same reports.

With a single tracked digit most valuations are cap markers, so the
``verify {axioms,compat,oracle}`` pins below go through the undecided
comparisons, infinite = infinite verdicts and decided-at-cap ">=" verdicts
with their margins; their hashes were computed before ``PValue`` carried
its own comparisons.
"""

import hashlib

import pytest

from iwahori import cli
from iwahori.cli import main

PINS = [
    (("sl2", 5, 10, 40, 11),
     "801c3f7575202be6230a1a74691145d51230e4628eec7cf7fe90427ad84c23cc"),
    (("sl3", 5, 10, 30, 11),
     "6f315def27f30fc501603fb9b6b57e3aa8b0bf7b16c933c308da699711d71642"),
    (("sp4", 7, 12, 30, 11),
     "2eb81b377fce41a6029026ba944541a3a4c5d809d9bbb9ff5e0b30042f0a57d2"),
    # the same checks with only four tracked digits
    (("sp4", 7, 4, 30, 11),
     "86917ddb205ab74acf0d67878574494c5b087ace107f782ce0004508e806c925"),
]


@pytest.mark.parametrize("config, digest", PINS,
                         ids=["-".join(map(str, c)) for c, _ in PINS])
def test_verify_all_report_bytes(config, digest, tmp_path, capsys):
    group, p, precision, n_samples, seed = config
    code = main(["verify-all", "--group", group, "--p", str(p),
                 "--precision", str(precision), "--n-samples", str(n_samples),
                 "--seed", str(seed), "--json", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / f"verify-all-{group}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_interleaved_runs_in_one_process_keep_the_report_bytes(tmp_path, capsys):
    # each (group, p, N) is built once per process and reused by later runs
    cli._gated_group.cache_clear()
    pins = {config[:3]: (config, digest) for config, digest in PINS}
    for key in [("sp4", 7, 12), ("sl3", 5, 10), ("sp4", 7, 4), ("sp4", 7, 12)]:
        (group, p, precision, n_samples, seed), digest = pins[key]
        code = main(["verify-all", "--group", group, "--p", str(p),
                     "--precision", str(precision), "--n-samples", str(n_samples),
                     "--seed", str(seed), "--json", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        data = (tmp_path / f"verify-all-{group}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, key
    assert cli._gated_group.cache_info().misses == 3


# (group, p, check) at precision 1, 30 samples, seed 11
CAP_PINS = [
    (("sl2", 5, "axioms"), "c7b4160d984ab98026935207e2591e255b453124655633a6c2210f3356e154e5"),
    (("sl2", 5, "compat"), "e0b001edec90da136614f2723769651d2608d06f45eda48d3a35c2a7382f5786"),
    (("sl2", 5, "oracle"), "24bbed46ed1f8b69b258b98b1ae529b636d87612b3db0cbc89b6178ee243205e"),
    (("sl3", 5, "axioms"), "530054ab7fe49731749b5d1a4a2679eadd83c6b2073ce518c362d453994c64de"),
    (("sl3", 5, "compat"), "c5cc1c621f25c14854acfc15291036b0bbbc16d65ead279a3b13a9137b7b32f7"),
    (("sl3", 5, "oracle"), "10182898fa098c819575fa56d216690971c1a185b50c1bba7bea5b89148f3f42"),
    (("sp4", 7, "axioms"), "6fe2709a8b15f7d403db55cdd7159124261d7cd646de83e24bc18aa43daa0296"),
    (("sp4", 7, "compat"), "1acef3279402edcfe76456c5bda66212886b5f9bc9ccba3ab9e69089be6af0ec"),
    (("sp4", 7, "oracle"), "78301a8096153c9baf49b96f17e64ff850b31816e2f0b9bc1d0bfc61b1ec20be"),
]


@pytest.mark.parametrize("config, digest", CAP_PINS,
                         ids=["-".join(map(str, c)) for c, _ in CAP_PINS])
def test_cap_report_bytes(config, digest, tmp_path, capsys):
    group, p, check = config
    code = main(["verify", check, "--group", group, "--p", str(p), "--precision", "1",
                 "--n-samples", "30", "--seed", "11", "--json", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / f"verify-{check}-{group}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_sp4_golden_report_bytes(capsys):
    # computed before sp4-golden read its verma checks off axioms.check_verma
    assert main(["sp4-golden", "--p", "7", "--precision", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "028c96a5245dc9368f267bbd7588ace64a1d60ac11934867376a3629b6245bd2")
