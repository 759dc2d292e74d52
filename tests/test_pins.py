"""Byte pins of whole ``qinfo qkd`` runs: the sha256 of each output file.

One table of (config JSON, argv, output file -> sha256).  Each case runs in
process through ``cli.main`` in its own temporary directory, so the relative
paths below are the files a shell run of the same argv would write.
"""

import hashlib
import json

import pytest

from qinfo import cli


def _intercept_resend(q: float) -> dict:
    return {"n": 64, "delta": 0.5, "threshold": 7,
            "channel": {"kind": "intercept_resend", "param": q}}


QKD_PINS = {
    # 300 trials span two chunks, and 23 of them abort at the check; the
    # digests pin the table and the transcripts to the named streams' bits
    "chunk": (
        {"n": 64, "threshold": 7, "channel": {"kind": "intercept_resend", "param": 0.3}},
        ["--seed", "1", "--trials", "300", "--out", "c.csv", "--transcripts", "c.json"],
        {"c.csv": "1a2a812c12bd79bc12e8b4d377c1dcc7525e6253e25cdfa797deaee4a6f421b6",
         "c.json": "266a70332231b59476e9a9fc9d0ea1fceec2e1aaddd5f9cd96896cddd07a94ee"}),
    # 293 qubits per trial: an odd count leaves a spare 32-bit half of the
    # last raw Philox word of each fair-bit row.  5 of 300 trials abort at
    # sifting and 207 end with matching keys
    "odd-length": (
        {"n": 65, "delta": 0.5, "threshold": 12, "channel": {"kind": "depolarizing", "param": 0.1}},
        ["--seed", "1", "--trials", "300", "--out", "o.csv", "--transcripts", "o.json"],
        {"o.csv": "7e72fbc908576af3d76315f13366776205ad558580791bbffcea938e1b736b1e",
         "o.json": "8485c10c8fd93e6d3ccb728c886aa26c1031fb676fc67e16d89339b083ba1a06"}),
    # at intercept_resend 0.0 and 1.0 the mask is constant and no stream is
    # drawn for it.  At both rates 7 of the 300 trials abort at sifting; the
    # rest reconcile at 0.0 and abort at the check at 1.0.  The digests were
    # taken from the runs that drew the mask
    "eve-0.0": (
        _intercept_resend(0.0),
        ["--seed", "1", "--trials", "300", "--out", "e0.0.csv", "--transcripts", "t0.0.json"],
        {"e0.0.csv": "ae30f518985a42b3939579ceecae83d866ec591655420466161fab6317ab4d5a",
         "t0.0.json": "831a6c34b8982e3a6700b916e918b57ffcc1be4a3a6f4bb0942ed32e4105a7fa"}),
    "eve-1.0": (
        _intercept_resend(1.0),
        ["--seed", "1", "--trials", "300", "--out", "e1.0.csv", "--transcripts", "t1.0.json"],
        {"e1.0.csv": "042eae78d3f05f55b2069bd8ff35e080da3c6779df818bbbb1a6ff83d2b7ef4b",
         "t1.0.json": "691d6e3f00352411a657c194ab8f5d5b25ce7582cc7ac4fd4676258997cc0c61"}),
    # full interception on Steane at n=512: every trial aborts at the check,
    # so the bytes pin Eve's and Bob's raw-word measurements and the
    # template writer's transcripts.  The digests were taken before either
    "audit-shape": (
        {"n": 512, "delta": 1.0, "threshold": 76, "code": "steane",
         "channel": {"kind": "intercept_resend", "param": 1.0}},
        ["--seed", "29", "--trials", "100", "--out", "a.csv", "--transcripts", "a.json"],
        {"a.csv": "c4062d1716b192e56fbc83a4bd8d6845369542c1ff58999b1dfb8693b9fffef2",
         "a.json": "291c7192b91a8d39e2aad7b8c50bbc54dc46dba62fa756a3df194d003b4eebef"}),
}


@pytest.mark.parametrize("config, argv, digests", QKD_PINS.values(), ids=QKD_PINS.keys())
def test_qkd_output_digests(config, argv, digests, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qkd.json").write_text(json.dumps(config))
    assert cli.main(["qkd", "--config", "qkd.json", *argv]) == 0
    assert capsys.readouterr().out == ""   # --out takes the table off stdout
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests
