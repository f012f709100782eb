"""Byte pins for `iwahori verify-all --json` reports.

Reports are deterministic for a fixed (group, p, precision, n_samples,
seed), so any change to the arithmetic or to the factorization that
alters a single verdict, margin or count changes the SHA-256 below.  The
hashes were computed before the scalar and factorization fast paths
existed; a faster path that keeps these bytes computes the same reports.
"""

import hashlib

import pytest

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
