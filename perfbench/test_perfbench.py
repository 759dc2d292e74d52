"""The benchmark's own tests.

Each oracle accepts real qinfo output and rejects a deliberately corrupted
copy of it, so a failure count of 0 is not true by construction; the traced
run leaves every workload's outputs byte-identical and puts qinfo back as it
was.  Run from the repository root with ``python3 -m pytest perfbench``
(about a minute, most of it the two HSW passes).
"""

import dataclasses
import gc
import itertools
import json
import math
import sys

import numpy as np
import pytest

from perfbench import run

run.import_qinfo()

from qinfo import bb84, capacity, cli, codes, states  # noqa: E402

from perfbench import oracles, spans, workloads  # noqa: E402


@pytest.fixture(scope="module")
def steane():
    return codes.steane_css()


def _batch(code, kind, param, threshold, trials, seed):
    cfg = bb84.ProtocolConfig(n=512, delta=1.0, threshold=threshold, code=code,
                              master_seed=seed)
    return bb84.run_batch(cfg, bb84.ChannelModel(kind, param), trials)


def _flip(bits, i=0):
    out = np.array(bits, copy=True)
    out[i] ^= 1
    return out


def test_keygen_oracle_rejects_a_flipped_key_bit(steane):
    ideal = _batch(steane, "ideal", 0.0, 56, 3, 11)
    assert oracles.check_keygen_batch(ideal, "ideal", 512) == []
    bad = [dataclasses.replace(ideal[0], bob_key=_flip(ideal[0].bob_key))] + ideal[1:]
    assert any("keys differ" in p for p in oracles.check_keygen_batch(bad, "ideal", 512))


def test_keygen_oracle_rejects_corrupt_noisy_batches(steane):
    noisy = _batch(steane, "depolarizing", 0.1, 511, 20, 12)
    assert oracles.check_keygen_batch(noisy, "depolarizing", 512) == []
    t = noisy[0]
    offset = dataclasses.replace(t, announced_offset=_flip(t.announced_offset))
    assert any("codeword" in p for p in
               oracles.check_keygen_batch([offset], "depolarizing", 512))
    good_block = int(np.flatnonzero(t.block_success)[0])
    key = dataclasses.replace(t, bob_key=_flip(t.bob_key, good_block))
    assert any("marked successful" in p for p in
               oracles.check_keygen_batch([key], "depolarizing", 512))
    high = [dataclasses.replace(x, qber_estimate=0.2) for x in noisy]
    assert any("QBER" in p for p in oracles.check_keygen_batch(high, "depolarizing", 512))


def test_audit_oracle_rejects_corrupt_files(tmp_path):
    config = tmp_path / "protocol.json"
    config.write_text(json.dumps({"n": 512, "delta": 1.0, "threshold": 76, "code": "steane",
                                  "channel": {"kind": "intercept_resend", "param": 1.0}}))
    out, tr = tmp_path / "trials.csv", tmp_path / "transcripts.json"
    code = cli.main(["qkd", "--config", str(config), "--seed", "5", "--trials", "20",
                     "--out", str(out), "--transcripts", str(tr)])
    csv_text, tr_text = out.read_text(), tr.read_text()
    assert oracles.check_audit(code, csv_text, tr_text, 20, 512) == []
    assert oracles.check_audit(2, csv_text, tr_text, 20, 512)
    lines = csv_text.splitlines()
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    assert oracles.check_audit(code, dropped, tr_text, 20, 512)
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) + 1 / 512)
    edited = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    assert any("check bits" in p for p in oracles.check_audit(code, edited, tr_text, 20, 512))
    short = json.dumps(json.loads(tr_text)[:-1])
    assert oracles.check_audit(code, csv_text, short, 20, 512)


def test_hsw_oracle_rejects_chi_above_capacity():
    chi, _ = capacity.hsw_capacity_estimate(states.identity_channel(2), restarts=0)
    assert oracles.check_hsw("identity-2", chi) == []
    for case, cap in oracles.HSW_CAPACITY.items():
        assert oracles.check_hsw(case, cap) == []
        assert oracles.check_hsw(case, cap + 1e-6)
        assert oracles.check_hsw(case, cap - 2e-3)


def test_qutrit_channel_output_entropy_matches_closed_form():
    op = workloads.qutrit_depolarizing(0.3)
    out = op.apply_mat(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [0.1, 0.1, 0.8])


@pytest.mark.parametrize("probs", [(0.75, 0.25), (0.5, 0.3, 0.2)])
def test_composition_oracle_matches_brute_force(probs):
    h = oracles.entropy_bits(*probs)
    for n in range(1, 9):
        size, mass = 0, 0.0
        for seq in itertools.product(range(len(probs)), repeat=n):
            sur = sum(-math.log2(probs[s]) for s in seq)
            if abs(sur / n - h) <= 0.3:
                size += 1
                mass += math.prod(probs[s] for s in seq)
        got = oracles.typical_size_mass(probs, n, 0.3)
        assert got[0] == size and math.isclose(got[1], mass, rel_tol=1e-12, abs_tol=1e-15)


def _compress(tmp_path, probs, blocks, rate):
    out = tmp_path / "sweep.csv"
    argv = ["compress", "--probs", json.dumps(list(probs)), "--blocks",
            ",".join(map(str, blocks)), "--eps", "0.3", "--out", str(out)]
    argv += ["--quantum"] if rate is None else ["--rate", repr(rate)]
    assert cli.main(argv) == 0
    return out.read_text()


@pytest.mark.parametrize("probs,blocks,rate", [
    ((0.75, 0.25), (6, 10, 12), 0.95),
    ((0.75, 0.25), (6, 10, 12), 0.7),
    ((0.5, 0.3, 0.2), (3, 5, 7), 1.7),
    ((0.75, 0.25), (2, 4, 6), None),
])
def test_compress_oracle_rejects_a_wrong_row(tmp_path, probs, blocks, rate):
    text = _compress(tmp_path, probs, blocks, rate)
    assert oracles.check_compress(text, probs, blocks, 0.3, rate) == []
    lines = text.splitlines()
    for col, edit in ((2, lambda v: str(int(v) + 1)),
                      (3, lambda v: repr(float(v) * (1 + 1e-9))),
                      (4, lambda v: repr(float(v) + 1e-6))):
        row = lines[-1].split(",")
        row[col] = edit(row[col])
        bad = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
        assert oracles.check_compress(bad, probs, blocks, 0.3, rate), (col, row)


def test_raising_op_or_unreadable_output_counts_as_failed():
    class Broken(workloads.Workload):
        def pass_ops(self, index):
            def boom():
                raise ValueError("op failed")
            unreadable = workloads.Op("unreadable", lambda: "abc", lambda out: int(out))
            return [workloads.Op("raises", boom, None), unreadable]

    phase = run.Phase()
    run.run_pass(Broken(0, run.OUT_DIR), 0, phase)
    assert (phase.attempted, phase.failed, len(phase.pass_s)) == (2, 2, 1)
    assert "op failed" in phase.problems[0] and "could not read" in phase.problems[1]


def test_reference_kernel_never_runs_the_collector():
    # adj_throughput and setup_s divide by this kernel's speed, so its time
    # must not depend on what qinfo leaves on the heap.
    phases = []
    gc.collect()
    gc.callbacks.append(lambda phase, info: phases.append(phase))
    try:
        assert run.reference_kernel() == run.reference_kernel()
    finally:
        gc.callbacks.pop()
    assert phases == []


def _qinfo_bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "qinfo" or name.startswith("qinfo.")
            for attr, value in vars(mod).items()}


def test_tracer_restores_qinfo_and_splits_self_time():
    from qinfo import typical
    before = _qinfo_bindings()
    init = vars(states.DensityMatrix)["__init__"]
    with spans.Tracer() as tracer:
        assert hasattr(typical.typical_set, "__wrapped__")
        assert bb84.decode is codes.decode and hasattr(bb84.decode, "__wrapped__")
        typical.typical_set_mass(typical.SourceModel((0.75, 0.25), 10, 0.3))
    assert _qinfo_bindings() == before
    assert vars(states.DensityMatrix)["__init__"] is init
    outer = tracer.stats["typical.typical_set_mass"]
    inner = tracer.stats["typical.typical_set"]
    assert outer.calls == inner.calls == 1
    assert math.isclose(outer.self_s + inner.incl_s, outer.incl_s, rel_tol=1e-9)
    assert tracer.counters["typical.sequences_enumerated"] == 2 ** 10


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_is_byte_identical(workload, capsys):
    before = _qinfo_bindings()
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # The traced phase replays the untraced passes; any digest mismatch is a
    # failed op, so correct means every output matched byte for byte.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {name for name, _, _ in spans.PER_LAYER}
    assert _qinfo_bindings() == before
