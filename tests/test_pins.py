"""Byte pins of whole ``qinfo`` runs: the one place where output bytes are pinned.

One table of (argv, config JSON, exit code, outputs).  Each case runs in
process through ``cli.main`` in its own temporary directory, with the config,
when there is one, written to ``qkd.json`` there, so the relative paths below
are the files a shell run of the same argv would write.  ``outputs`` maps
``stdout``, ``stderr`` and each output file to a sha256 (64 hex digits) or to
its exact text; stdout and stderr are empty unless a row says otherwise.
"""

import hashlib
import json
import re

import pytest

from qinfo import cli


def _intercept_resend(q: float) -> dict:
    return {"n": 64, "delta": 0.5, "threshold": 7,
            "channel": {"kind": "intercept_resend", "param": q}}


def _qkd(*argv: str) -> list[str]:
    return ["qkd", "--config", "qkd.json", *argv]


def _compress(probs: str, blocks: str, eps: str, *argv: str) -> list[str]:
    return ["compress", "--probs", probs, "--blocks", blocks, "--eps", eps, *argv]


PINS = {
    # 300 trials span two chunks, and 23 of them abort at the check; the
    # digests pin the table and the transcripts to the named streams' bits
    "chunk": (
        _qkd("--seed", "1", "--trials", "300", "--out", "c.csv", "--transcripts", "c.json"),
        {"n": 64, "threshold": 7, "channel": {"kind": "intercept_resend", "param": 0.3}}, 0,
        {"c.csv": "1a2a812c12bd79bc12e8b4d377c1dcc7525e6253e25cdfa797deaee4a6f421b6",
         "c.json": "266a70332231b59476e9a9fc9d0ea1fceec2e1aaddd5f9cd96896cddd07a94ee"}),
    # 293 qubits per trial: an odd count leaves a spare 32-bit half of the
    # last raw Philox word of each fair-bit row.  5 of 300 trials abort at
    # sifting and 207 end with matching keys
    "odd-length": (
        _qkd("--seed", "1", "--trials", "300", "--out", "o.csv", "--transcripts", "o.json"),
        {"n": 65, "delta": 0.5, "threshold": 12, "channel": {"kind": "depolarizing", "param": 0.1}},
        0,
        {"o.csv": "7e72fbc908576af3d76315f13366776205ad558580791bbffcea938e1b736b1e",
         "o.json": "8485c10c8fd93e6d3ccb728c886aa26c1031fb676fc67e16d89339b083ba1a06"}),
    # at intercept_resend 0.0 and 1.0 the mask is constant and no stream is
    # drawn for it.  At both rates 7 of the 300 trials abort at sifting; the
    # rest reconcile at 0.0 and abort at the check at 1.0.  The digests were
    # taken from the runs that drew the mask
    "eve-0.0": (
        _qkd("--seed", "1", "--trials", "300", "--out", "e0.0.csv", "--transcripts", "t0.0.json"),
        _intercept_resend(0.0), 0,
        {"e0.0.csv": "ae30f518985a42b3939579ceecae83d866ec591655420466161fab6317ab4d5a",
         "t0.0.json": "831a6c34b8982e3a6700b916e918b57ffcc1be4a3a6f4bb0942ed32e4105a7fa"}),
    "eve-1.0": (
        _qkd("--seed", "1", "--trials", "300", "--out", "e1.0.csv", "--transcripts", "t1.0.json"),
        _intercept_resend(1.0), 0,
        {"e1.0.csv": "042eae78d3f05f55b2069bd8ff35e080da3c6779df818bbbb1a6ff83d2b7ef4b",
         "t1.0.json": "691d6e3f00352411a657c194ab8f5d5b25ce7582cc7ac4fd4676258997cc0c61"}),
    # full interception on Steane at n=512: every trial aborts at the check,
    # so the bytes pin Eve's and Bob's raw-word measurements and the
    # template writer's transcripts.  The digests were taken before either
    "audit-shape": (
        _qkd("--seed", "29", "--trials", "100", "--out", "a.csv", "--transcripts", "a.json"),
        {"n": 512, "delta": 1.0, "threshold": 76, "code": "steane",
         "channel": {"kind": "intercept_resend", "param": 1.0}}, 0,
        {"a.csv": "c4062d1716b192e56fbc83a4bd8d6845369542c1ff58999b1dfb8693b9fffef2",
         "a.json": "291c7192b91a8d39e2aad7b8c50bbc54dc46dba62fa756a3df194d003b4eebef"}),
    # compress sweeps cut from one class table: unsorted and repeated block
    # lengths, the trimmed rate path, --quantum and a zero-probability symbol
    "s1": (_compress("[0.75,0.25]", "18,6,14,6,10", "0.3", "--rate", "0.7"), None, 0,
           {"stdout": "ab328d064e79c96c76cc1eed2267b96d1a8bcdf5be6f460b6c7fb7f46cf2c3b6"}),
    "s2": (_compress("[0.5,0.3,0.2]", "3,5,7,9,11", "0.3", "--rate", "1.75"), None, 0,
           {"stdout": "fbf7d97f0caa3b2831af929a1bc599875d57a0bfcab8aa3b419dde975a6bb4d4"}),
    "s3": (_compress("[0.75,0.25]", "8,2,6,4,2", "0.3", "--quantum"), None, 0,
           {"stdout": "ce03b18ef139de305ad767671c903ede04a4b5bc737cd9dfdce94fc972f2991b"}),
    "s4": (_compress("[0.5,0.25,0.25,0]", "1,4,8,12", "0.2", "--rate", "1.6"), None, 0,
           {"stdout": "779158123d839a0dace4aa528f091ef08a6e6aca54da8965df256e929937d6e7"}),
    # a rate error at an admitted length comes before a later length's size cap,
    # and a first length above the cap comes before any rate error.  Both error
    # lines were taken before the sweep built its classes grouped by length
    "rate-error-before-size-cap": (
        _compress("[0.75,0.25]", "6,30", "0.3", "--rate", "0.1"), None, 2,
        {"stderr": "error: rate times block length must be at least 1 bit\n"}),
    "size-cap-before-rate-error": (
        _compress("[0.75,0.25]", "30,6", "0.3", "--rate", "0.1"), None, 2,
        {"stderr": "error: typical set enumeration above the size cap\n"}),
}


def _seen(data: bytes, want: str) -> str:
    """sha256 of data when want is a digest, else data as text."""
    return hashlib.sha256(data).hexdigest() if re.fullmatch("[0-9a-f]{64}", want) else data.decode()


@pytest.mark.parametrize("argv, config, code, outputs", PINS.values(), ids=PINS.keys())
def test_output_bytes(argv, config, code, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "qkd.json").write_text(json.dumps(config))
    assert cli.main(argv) == code
    std = capsys.readouterr()
    want = {"stdout": "", "stderr": "", **outputs}
    got = {name: (tmp_path / name).read_bytes() for name in want.keys() - {"stdout", "stderr"}}
    got.update(stdout=std.out.encode(), stderr=std.err.encode())
    assert {name: _seen(got[name], value) for name, value in want.items()} == want
