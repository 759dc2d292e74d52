import collections
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_compress_row, json_text
from qinfo import bb84, cli, codes, formats, typical
from qinfo.bb84 import ChannelModel, ProtocolConfig, run_batch, run_bb84
from qinfo.cli import main
from qinfo.codes import hamming_7_4, repetition_code, steane_css
from qinfo.typical import ENUMERATION_CAP_BITS, QUANTUM_DIM_CAP

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "dist.json").write_text("[0.5, 0.5]")
    (tmp_path / "mixed.json").write_text(json.dumps(formats.matrix_to_json(
        0.5 * np.array([[1, 0], [0, 0]]) + 0.5 * np.array([[0.5, 0.5], [0.5, 0.5]]))))
    (tmp_path / "identity2.json").write_text(json.dumps(formats.matrix_to_json(np.eye(2) / 2)))
    (tmp_path / "bsc.json").write_text(json.dumps({"rows": [[0.89, 0.11], [0.11, 0.89]]}))
    (tmp_path / "bec.json").write_text(json.dumps({"rows": [[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]}))
    (tmp_path / "ch23.json").write_text(json.dumps({"rows": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]}))
    (tmp_path / "p.json").write_text("[0.7, 0.2, 0.1]")
    (tmp_path / "q.json").write_text("[0.4, 0.4, 0.2]")
    (tmp_path / "rho.json").write_text(json.dumps(formats.matrix_to_json(
        np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))))
    (tmp_path / "sigma.json").write_text(json.dumps(formats.matrix_to_json(
        np.array([[0.5, 0.1j], [-0.1j, 0.5]]))))
    (tmp_path / "hamming.txt").write_text(formats.code_to_text(hamming_7_4()))
    (tmp_path / "rep3.txt").write_text(formats.code_to_text(repetition_code(3)))
    (tmp_path / "qkd.json").write_text(json.dumps({
        "n": 64, "delta": 1.0, "threshold": 7, "code": "steane",
        "channel": {"kind": "ideal"}}))
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestFormats:
    def test_matrix_round_trip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = formats.matrix_from_json(formats.matrix_to_json(m))
        assert np.allclose(back, m)

    def test_code_text_round_trip(self):
        c = hamming_7_4()
        back = formats.code_from_text(formats.code_to_text(c))
        assert np.array_equal(back.generator, c.generator)
        assert np.array_equal(back.parity_check, c.parity_check)

    def test_code_text_derives_parity_when_absent(self):
        text = "3 1\n111\n"
        c = formats.code_from_text(text)
        assert (c.n, c.k, c.distance) == (3, 1, 3)

    def test_bad_code_text_rejected(self):
        with pytest.raises(ValueError):
            formats.code_from_text("3 1\n11\n")

    def test_transcript_json_fields(self):
        cfg = ProtocolConfig(n=32, delta=1.0, threshold=3, code=steane_css(), master_seed=4)
        t = run_bb84(cfg, ChannelModel("intercept_resend", 1.0))
        obj = formats.transcript_to_json(t)
        assert set(obj) >= {"aborted", "alice_bits", "alice_bases", "bob_bases",
                            "bob_bits", "check_indices", "disagreements",
                            "announced_offset", "alice_key", "bob_key", "qber_estimate"}
        assert len(obj["alice_bits"]) == cfg.qubits_sent
        json.dumps(obj)   # serialisable



NAN, INF = float("nan"), float("inf")
JSON_EDGE_CASES = [
    {}, [], (), None, True, False, 0, -7, 2 ** 70, 0.5, "", "x",
    {"a": {}, "b": [], "c": (), "d": {"e": {"f": []}}},
    [[], [[]], {"x": [{}]}, ([],)],
    (1, (2, 3), [4, (5,)]),
    [1, 2, True, 3], [True, False], [0, -1, 2 ** 70, -(2 ** 64)], [1, 2.0, 3], [1, None],
    [np.float64(0.1), np.float64(-2.5e-300), -0.0, 0.0, NAN, INF, -INF,
     np.float64("nan"), np.float64(-np.inf), 1e300, 5e-324, 1 / 3],
    ["\u00e9t\u00e9", "\u2603", "\U0001f600", "\ud800", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t"],
    {"b": 1, "a": 2, "B": 3, "\u00e9": 4, "": 5, "\x00": 6, "a b": [7, True]},
    {"outer": [{"inner": (1, [2, {"deep": [None, NAN]}])}]},
]


def random_json_value(rng, depth=0):
    """A random nest of every kind json.dumps accepts, up to depth 4."""
    kind = int(rng.integers(0, 9 if depth < 4 else 6))
    if kind == 0:
        return [None, True, False][int(rng.integers(0, 3))]
    if kind == 1:
        return int(rng.integers(-10 ** 6, 10 ** 6))
    if kind == 2:
        return float(rng.choice([rng.normal(), -0.0, NAN, INF, -INF, 1e-310]))
    if kind == 3:
        return np.float64(rng.normal() * 10.0 ** int(rng.integers(-20, 20)))
    if kind == 4:
        return "".join(chr(int(c)) for c in rng.integers(0, 0x3000, int(rng.integers(0, 8))))
    if kind == 5:
        return [int(x) for x in rng.integers(0, 5000, int(rng.integers(0, 20)))]
    if kind == 6:
        return {"k" + chr(int(rng.integers(0, 300))):
                random_json_value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))}
    items = [random_json_value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    return tuple(items) if kind == 7 else items


class TestJsonWriter:
    @pytest.mark.parametrize("obj", JSON_EDGE_CASES, ids=range(len(JSON_EDGE_CASES)))
    def test_edge_cases_equal_json_dumps(self, obj):
        assert formats.dump_json(obj) == json_text(obj)

    def test_random_nests_equal_json_dumps(self):
        rng = np.random.default_rng(20261018)
        for i in range(400):
            obj = random_json_value(rng)
            assert formats.dump_json(obj) == json_text(obj), i

    def test_transcript_payload_equals_json_dumps(self):
        cfg = ProtocolConfig(n=32, delta=1.0, threshold=3, code=steane_css(), master_seed=9)
        payload = [formats.transcript_to_json(t)
                   for t in run_batch(cfg, ChannelModel("intercept_resend", 0.5), 3)]
        assert formats.dump_json(payload) == json_text(payload)

    @pytest.mark.parametrize("obj", [
        np.int64(1), {1, 2}, object(), np.bool_(True), np.zeros(2),
        [1, np.int64(2)], (1, {2}), {"a": {"b": object()}},
    ], ids=["int64", "set", "object", "bool_", "ndarray", "int64-in-list",
            "set-in-tuple", "nested-object"])
    def test_unsupported_types_raise_like_json_dumps(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)
        with pytest.raises(TypeError):
            formats.dump_json(obj)

    def test_non_str_keys_equal_json_dumps(self):
        assert formats.dump_json({1: "a"}) == json_text({1: "a"})


# stdout of the table commands in both formats, captured before their csv and
# json branches were merged into one; {dir} is the workdir fixture
GOLDEN_TABLES = [
    (["entropy", "--dist", "{dir}/p.json"],
     "shannon_entropy\n1.15677964945\n",
     '{\n  "shannon_entropy": 1.1567796494470395\n}\n'),
    (["entropy", "--dist", "{dir}/p.json", "--relative", "{dir}/q.json"],
     "shannon_entropy,relative_entropy\n1.15677964945,0.26514844544\n",
     '{\n  "relative_entropy": 0.2651484454403227,\n'
     '  "shannon_entropy": 1.1567796494470395\n}\n'),
    (["qinfo", "--density", "{dir}/rho.json"],
     "von_neumann_entropy\n0.819186093629\n",
     '{\n  "von_neumann_entropy": 0.8191860936289241\n}\n'),
    (["qinfo", "--density", "{dir}/rho.json", "--fidelity-with", "{dir}/sigma.json"],
     "von_neumann_entropy,fidelity\n0.819186093629,0.952409119067\n",
     '{\n  "fidelity": 0.9524091190666188,\n  "von_neumann_entropy": 0.8191860936289241\n}\n'),
    (["codes", "--code", "{dir}/hamming.txt"],
     "n,k,d,t,singleton_ok,gv_rate,meets_gv_rate,weakly_self_dual\n"
     "7,4,3,1,1,0.408327221418,1,0\n",
     '{\n  "d": 3,\n  "gv_rate": 0.40832722141767275,\n  "k": 4,\n  "meets_gv_rate": true,\n'
     '  "n": 7,\n  "singleton_ok": true,\n  "t": 1,\n  "weakly_self_dual": false\n}\n'),
    (["codes", "--code", "{dir}/rep3.txt"],
     "n,k,d,t,singleton_ok,gv_rate,meets_gv_rate,weakly_self_dual\n"
     "3,1,3,1,1,0.0817041659455,1,0\n",
     '{\n  "d": 3,\n  "gv_rate": 0.08170416594551044,\n  "k": 1,\n  "meets_gv_rate": true,\n'
     '  "n": 3,\n  "singleton_ok": true,\n  "t": 1,\n  "weakly_self_dual": false\n}\n'),
    (["capacity", "--channel", "{dir}/bsc.json"],
     "capacity,p0,p1\n0.500084041835,0.5,0.5\n",
     '{\n  "capacity": 0.5000840418354721,\n  "input": [\n    0.5,\n    0.5\n  ]\n}\n'),
    (["capacity", "--channel", "{dir}/ch23.json"],
     "capacity,p0,p1\n0.332886672239,0.489366435061,0.510633564939\n",
     '{\n  "capacity": 0.33288667223896407,\n'
     '  "input": [\n    0.489366435060631,\n    0.5106335649393691\n  ]\n}\n'),
]


GOLDEN_TABLE_RUNS = [(argv, fmt, expected) for argv, csv, js in GOLDEN_TABLES
                     for fmt, expected in (("csv", csv), ("json", js))]


class TestGoldenTables:
    @pytest.mark.parametrize("argv,fmt,expected", GOLDEN_TABLE_RUNS,
                             ids=[f"{argv[0]}-{i // 2}-{fmt}"
                                  for i, (argv, fmt, _) in enumerate(GOLDEN_TABLE_RUNS)])
    def test_stdout_bytes(self, workdir, capsys, argv, fmt, expected):
        argv = [a.replace("{dir}", str(workdir)) for a in argv]
        assert run_cli([*argv, "--format", fmt], capsys) == (0, expected)


class TestEntropyCommand:
    def test_uniform_bit(self, workdir, capsys):
        code, out = run_cli(["entropy", "--dist", str(workdir / "dist.json")], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1"

    def test_inline_and_json_format(self, capsys):
        code, out = run_cli(["entropy", "--inline", "[0.25,0.25,0.25,0.25]",
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["shannon_entropy"] == pytest.approx(2.0)

    def test_parse_error_exit_2(self, capsys):
        code = main(["entropy", "--dist", "/does/not/exist.json"])
        assert code == 2

    @pytest.mark.parametrize("fmt,expected", [("csv", "shannon_entropy\n0\n"),
                                              ("json", '{\n  "shannon_entropy": 0.0\n}\n')],
                             ids=["csv", "json"])
    def test_zero_entropy_has_no_sign(self, capsys, fmt, expected):
        assert run_cli(["entropy", "--inline", "[1,0]", "--format", fmt], capsys) == (0, expected)


class TestQinfoCommand:
    def test_maximally_mixed(self, workdir, capsys):
        code, out = run_cli(["qinfo", "--density", str(workdir / "identity2.json")], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1"

    def test_mixed_fixture(self, workdir, capsys):
        code, out = run_cli(["qinfo", "--density", str(workdir / "mixed.json"),
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["von_neumann_entropy"] == pytest.approx(0.60088, abs=1e-5)


class TestCodesCommand:
    def test_hamming_report(self, workdir, capsys):
        code, out = run_cli(["codes", "--code", str(workdir / "hamming.txt"),
                             "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert (rep["n"], rep["k"], rep["d"]) == (7, 4, 3)
        assert rep["singleton_ok"]


# Captured before the typical-set table replaced the per-sequence loops; the
# sweep output must stay byte-identical.  The one exception is the ternary
# n=11 mass, which the per-sequence left-to-right sum printed as
# 0.948590821671 on CPython 3.11; 0.94859082167 is the correctly rounded exact
# sum, which the type-class sums print and CPython 3.12's compensated sum()
# gave as well.  test_golden_rows_print_the_exact_sums checks every classical
# row against the exact oracle.
GOLDEN_COMPRESS = [
    (["--probs", "[0.75,0.25]", "--blocks", "4,8,12", "--eps", "0.3", "--rate", "0.95"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "4,0.3,4,0.421875,0.421875\n"
     "8,0.3,92,0.786071777344,0.786071777344\n"
     "12,0.3,1585,0.913921415806,0.913921415806\n"),
    (["--probs", "[0.75,0.25]", "--blocks", "4,8,12", "--eps", "0.3", "--rate", "0.5"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "4,0.3,4,0.421875,0.31640625\n"
     "8,0.3,92,0.786071777344,0.344833374023\n"
     "12,0.3,1585,0.913921415806,0.306204736233\n"),
    (["--probs", "[0.5,0.3,0.2]", "--blocks", "3,5,7", "--eps", "0.3", "--rate", "1.75"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "3,0.3,16,0.717,0.717\n"
     "5,0.3,141,0.74418,0.74418\n"
     "7,0.3,1527,0.8955712,0.8955712\n"),
    (["--probs", "[0.75,0.25]", "--blocks", "2,4,6", "--eps", "0.3", "--quantum"],
     "n,epsilon,rank,typical_mass,fidelity\n"
     "2,0.3,0,0,0.31640625\n"
     "4,0.3,4,0.421875,0.278091430664\n"
     "6,0.3,21,0.652587890625,0.457547307014\n"),
    # benchmark-sized rows: the long sums are where a change of summation order
    # would show, on both the untrimmed and the trimmed rate path
    (["--probs", "[0.75,0.25]", "--blocks", "14,18", "--eps", "0.3", "--rate", "0.97"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "14,0.3,6475,0.943911295384,0.943911295384\n"
     "18,0.3,62985,0.903588048546,0.903588048546\n"),
    (["--probs", "[0.75,0.25]", "--blocks", "14,18", "--eps", "0.3", "--rate", "0.7"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "14,0.3,6475,0.943911295384,0.51276094839\n"
     "18,0.3,62985,0.903588048546,0.480736589569\n"),
    (["--probs", "[0.5,0.3,0.2]", "--blocks", "9,11", "--eps", "0.3", "--rate", "1.75"],
     "n,epsilon,set_size,typical_mass,reliability\n"
     "9,0.3,14254,0.914092728,0.914092728\n"
     "11,0.3,125379,0.94859082167,0.94859082167\n"),
]


class TestCompressCommand:
    @pytest.mark.parametrize("args,expected", GOLDEN_COMPRESS)
    def test_golden_sweep(self, args, expected, capsys):
        assert run_cli(["compress", *args], capsys) == (0, expected)

    @pytest.mark.parametrize("args,expected", [
        case for case in GOLDEN_COMPRESS if "--quantum" not in case[0]])
    def test_golden_rows_print_the_exact_sums(self, args, expected):
        opts = dict(zip(args[::2], args[1::2]))
        probs, eps, rate = json.loads(opts["--probs"]), float(opts["--eps"]), float(opts["--rate"])
        for line in expected.splitlines()[1:]:
            n, _, size, mass, reliability = line.split(",")
            exact = exact_compress_row(probs, int(n), eps, rate)
            assert [size, mass, reliability] == [
                str(exact[0]), formats.fmt(float(exact[1])), formats.fmt(float(exact[2]))]

    @pytest.mark.parametrize("args,expected", [GOLDEN_COMPRESS[1], GOLDEN_COMPRESS[3]],
                             ids=["classical-trimmed", "quantum"])
    def test_summary_rows_list_no_sequence(self, args, expected, capsys, monkeypatch):
        def refuse(model):
            raise AssertionError("the a^n table was built")
        monkeypatch.setattr(typical, "_typical_table", refuse)
        assert run_cli(["compress", *args], capsys) == (0, expected)
        # the paths that list sequences still build it
        m = typical.SourceModel((0.75, 0.25), 8, 0.3)
        with pytest.raises(AssertionError, match="table was built"):
            typical.shannon_scheme(m, 0.5).included
        with pytest.raises(AssertionError, match="table was built"):
            typical.typical_subspace_projector(typical.QuantumSourceModel(
                np.diag([0.75, 0.25]).astype(complex), 2, 0.3))

    def test_cached_parser_serves_bad_then_good_calls(self, capsys):
        # one parser serves every call, so a failed parse must leave nothing behind
        assert cli.build_parser() is cli.build_parser()
        conflict = ["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "0.3",
                    "--quantum", "--rate", "0.5"]
        with pytest.raises(SystemExit) as err:
            main(conflict)
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "argument --rate: not allowed with argument --quantum")
        assert main(["compress", "--probs", "[0.5,0.6]", "--blocks", "4", "--eps", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert run_cli(["entropy", "--inline", "[0.5, 0.5]"], capsys) == (
            0, "shannon_entropy\n1\n")
        args, expected = GOLDEN_COMPRESS[3]
        assert run_cli(["compress", *args], capsys) == (0, expected)
        args, expected = GOLDEN_COMPRESS[0]
        assert run_cli(["compress", *args], capsys) == (0, expected)

    @pytest.mark.parametrize("quantum", [[], ["--quantum"]], ids=["classical", "quantum"])
    def test_one_symbol_source_at_the_cap(self, quantum, capsys):
        header = ("n,epsilon,rank,typical_mass,fidelity" if quantum
                  else "n,epsilon,set_size,typical_mass,reliability")
        assert run_cli(["compress", "--probs", "[1]", "--blocks", "1,24", "--eps", "0.3",
                        *quantum], capsys) == (0, f"{header}\n1,0.3,1,1,1\n24,0.3,1,1,1\n")

    def test_huge_finite_rate_prints_the_unbound_row(self, capsys):
        # 2^floor(rate n) - 1 indices are built only when they bind
        args = ["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "0.3", "--rate"]
        # rate * n overflows to inf from 1e308 on
        for rate in ["2", "1e300", "1e308", repr(sys.float_info.max)]:
            assert run_cli([*args, rate], capsys) == (
                0, "n,epsilon,set_size,typical_mass,reliability\n4,0.3,16,1,1\n")
        for rate in [1e300, 1e308, sys.float_info.max]:
            scheme = typical.shannon_scheme(typical.SourceModel((0.5, 0.5), 4, 0.3), rate)
            assert len(scheme.included) == scheme.set_size == 16

    def test_classical_sweep(self, capsys):
        code, out = run_cli(["compress", "--probs", "[0.75,0.25]", "--blocks", "4,8",
                             "--eps", "0.3", "--rate", "0.95"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,epsilon,set_size,typical_mass,reliability"
        assert len(lines) == 3

    def test_quantum_sweep(self, capsys):
        code, out = run_cli(["compress", "--probs", "[0.75,0.25]", "--blocks", "4,8",
                             "--eps", "0.2", "--quantum"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert float(rows[1][4]) > float(rows[0][4])   # fidelity grows with n


def compress_argv(probs, blocks, eps, rate=None) -> list[str]:
    """``qinfo compress`` arguments; rate None sweeps ``--quantum``."""
    return ["compress", "--probs", json.dumps(list(probs)), "--blocks", ",".join(map(str, blocks)),
            "--eps", repr(eps), *(["--quantum"] if rate is None else ["--rate", repr(rate)])]


def per_block_compress(probs, blocks, eps, rate=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a compress sweep made one block at a time
    from ``shannon_scheme`` or ``schumacher_summary``, stopping at the first error."""
    rows = []
    try:
        for n in blocks:
            if rate is None:
                rho = np.diag(np.array(probs, dtype=complex))
                row = typical.schumacher_summary(typical.QuantumSourceModel(rho, n, eps))
            else:
                s = typical.shannon_scheme(typical.SourceModel(tuple(probs), n, eps), rate)
                row = (s.set_size, s.set_mass, s.reliability)
            rows.append(formats.csv_row([n, eps, *row]))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    header = ("n,epsilon,rank,typical_mass,fidelity" if rate is None
              else "n,epsilon,set_size,typical_mass,reliability")
    return 0, "\n".join([header, *rows]) + "\n", ""


class TestCompressSweep:
    """One class table serves a whole sweep: each printed row, and the first
    error, equal a loop of one scheme per block length, byte for byte."""

    @staticmethod
    def run(argv, capsys) -> tuple[int, str, str]:
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def boundary_epsilon(probs, n, rng) -> float:
        """|surprisal/n - H| of a random sorted member, summed from the left as the
        tables sum it, so that class's flag turns on the last bit of epsilon."""
        a = len(probs)
        counts = rng.multinomial(n, np.ones(a) / a)
        total = 0.0
        for s in range(a):
            for _ in range(counts[s]):
                total += -math.log2(probs[s]) if probs[s] > 0 else math.inf
        deviation = abs(total / n - typical.SourceModel(tuple(probs), n, 0.3).entropy)
        return deviation if 0 < deviation < math.inf else float(rng.uniform(0.05, 0.5))

    def random_sweep(self, rng):
        a = int(rng.integers(1, 6))
        if rng.random() < 0.25:   # dyadic: a class's deviation can equal epsilon = k/8 exactly
            probs = [[1.0], [0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125],
                     [0.5, 0.25, 0.125, 0.125, 0.0]][a - 1]
        else:
            probs = rng.dirichlet(np.ones(a))
            if a > 1 and rng.random() < 0.3:
                probs[rng.integers(a)] = 0.0
                probs /= probs.sum()
            probs = probs.tolist()
        quantum = rng.random() < 0.3
        cap = int(ENUMERATION_CAP_BITS / math.log2(max(a, 2)))
        if quantum and a > 1:
            cap = int(math.log(QUANTUM_DIM_CAP, a) + 1e-9)
        blocks = rng.integers(1, min(cap, 12) + 1, int(rng.integers(1, 7))).tolist()
        if rng.random() < 0.5:
            blocks.append(blocks[0])   # a repeated length
        if probs[0] in (0.5, 1.0):
            eps = float(rng.choice([0.125, 0.25, 0.375, 0.5]))
        else:
            eps = self.boundary_epsilon(probs, blocks[int(rng.integers(len(blocks)))], rng)
        if quantum:
            return probs, blocks, eps, None
        entropy = typical.SourceModel(tuple(probs), 1, 0.3).entropy
        rate = max(entropy * float(rng.uniform(0.6, 1.3)), 1.0 / min(blocks))
        return probs, blocks, eps, rate

    def test_random_sweeps_equal_one_scheme_per_block(self, rng, capsys):
        outcomes = collections.Counter()
        for _ in range(300):
            probs, blocks, eps, rate = self.random_sweep(rng)
            expected = per_block_compress(probs, blocks, eps, rate)
            assert self.run(compress_argv(probs, blocks, eps, rate), capsys) == expected, (
                probs, blocks, eps, rate)
            rows = [line.split(",") for line in expected[1].splitlines()[1:]]
            outcomes.update(quantum=rate is None, failed=expected[0] != 0,
                            trimmed=rate is not None and any(r[3] != r[4] for r in rows))
        # both schemes, the trimmed rate path and the capacity error all ran
        assert outcomes["quantum"] >= 50 and outcomes["trimmed"] >= 20, outcomes
        assert 0 < outcomes["failed"] < 150, outcomes

    @pytest.mark.parametrize("probs,blocks,eps,rate,fragment", [
        ((0.75, 0.25), [4, 0, 30], 0.3, 0.5, "block length must be >= 1"),
        ((0.75, 0.25), [0, 4], -0.1, 0.5, "block length must be >= 1"),
        ((0.75, 0.25), [4, 0], -0.1, 0.5, "epsilon must be"),
        ((0.75, 0.25), [4, 30, 0], 0.3, 0.5, "above the size cap"),
        ((0.75, 0.25), [30, 4], 0.3, math.inf, "above the size cap"),
        ((0.75, 0.25), [4, 30], 0.3, math.inf, "rate must be finite"),
        ((0.75, 0.25), [6, 4, 30], 0.3, 0.2, "rate times block length"),
        ((0.75, 0.25), [4, 8, 30], 0.3, 0.85, "typical set (92) exceeds 63 indices"),
        ((0.75, 0.25), [2, 0, 9], 0.3, None, "block length must be >= 1"),
        ((0.75, 0.25), [2, 9, 0], 0.3, None, "above the dimension cap"),
        ((1.0,), [3, 25, 0], 0.3, None, "above the size cap"),
        ((0.5, 0.5), [4, 10 ** 400, 0], 0.3, 0.5, "above the size cap"),
    ], ids=["length", "length-before-epsilon", "epsilon", "size-cap", "size-cap-before-rate",
            "rate-finite", "rate-times-length", "capacity", "quantum-length", "dimension-cap",
            "quantum-one-symbol-size-cap", "huge-length"])
    def test_first_failing_block_reports_its_error(self, probs, blocks, eps, rate, fragment,
                                                   capsys):
        expected = per_block_compress(probs, blocks, eps, rate)
        assert expected[0] == 2 and fragment in expected[2]
        assert self.run(compress_argv(probs, blocks, eps, rate), capsys) == expected

    @pytest.mark.parametrize("n", [10 ** 12, 10 ** 400], ids=["1e12", "401-digit"])
    @pytest.mark.parametrize("quantum,message", [
        (False, "typical set enumeration above the size cap"),
        (True, "dense quantum block above the dimension cap"),
    ], ids=["classical", "quantum"])
    def test_huge_block_length_fails_on_the_cap_at_once(self, n, quantum, message, capsys):
        # neither cap builds d^n or a float of n
        start = time.perf_counter()
        got = self.run(compress_argv((0.5, 0.5), [n], 0.3, None if quantum else 1.0), capsys)
        assert got == (2, "", f"error: {message}\n")
        assert time.perf_counter() - start < 1.0


class TestCapacityCommand:
    def test_bsc(self, workdir, capsys):
        code, out = run_cli(["capacity", "--channel", str(workdir / "bsc.json")], capsys)
        assert code == 0
        cap = float(out.strip().splitlines()[1].split(",")[0])
        assert cap == pytest.approx(0.500084041835, abs=1e-6)

    def test_bec(self, workdir, capsys):
        code, out = run_cli(["capacity", "--channel", str(workdir / "bec.json"),
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["capacity"] == pytest.approx(0.7, abs=1e-6)


def assert_audit_golden(tmp_path):
    # the qkd-audit shape: full interception on Steane, n=512, both outputs
    (tmp_path / "eve.json").write_text(json.dumps({
        "n": 512, "delta": 1.0, "threshold": 76, "code": "steane",
        "channel": {"kind": "intercept_resend", "param": 1.0}}))
    out, transcripts = tmp_path / "trials.csv", tmp_path / "transcripts.json"
    assert main(["qkd", "--config", str(tmp_path / "eve.json"), "--seed", "6",
                 "--trials", "20", "--out", str(out), "--transcripts", str(transcripts)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "859f4a2cd3c349f356aca46d64f0831ad7787a3d7531ed5403cfa3a1b00f21bb")
    assert hashlib.sha256(transcripts.read_bytes()).hexdigest() == (
        "8aae9dc87cd3f3491e84e340e9229c7d67d3eefab08b235d1c1ce45c321a4f27")


class TestQkdCommand:
    def test_ideal_batch(self, workdir, capsys):
        code, out = run_cli(["qkd", "--config", str(workdir / "qkd.json"),
                             "--seed", "3", "--trials", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,aborted,sifted_count,qber,key_len,keys_match"
        assert len(lines) == 6            # header + 4 trials + aggregate
        agg = lines[-1].split(",")
        assert agg[0] == "aggregate"
        assert float(agg[1]) == 0.0       # abort rate
        assert float(agg[3]) == 1.0       # key match rate

    def test_seed_required(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["qkd", "--config", str(workdir / "qkd.json")])
        assert err.value.code == 2

    def test_byte_identical_reruns(self, workdir, capsys):
        args = ["qkd", "--config", str(workdir / "qkd.json"), "--seed", "9", "--trials", "3"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_abort_batches_still_exit_zero(self, workdir, capsys):
        conf = json.loads((workdir / "qkd.json").read_text())
        conf["channel"] = {"kind": "intercept_resend", "param": 1.0}
        conf["threshold"] = 5
        (workdir / "eve.json").write_text(json.dumps(conf))
        code, out = run_cli(["qkd", "--config", str(workdir / "eve.json"),
                             "--seed", "4", "--trials", "3"], capsys)
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == 1.0

    def test_transcript_dump(self, workdir, capsys):
        path = workdir / "transcripts.json"
        code, _ = run_cli(["qkd", "--config", str(workdir / "qkd.json"),
                           "--seed", "5", "--trials", "2",
                           "--transcripts", str(path)], capsys)
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data) == 2 and not data[0]["aborted"]

    def test_audit_run_is_byte_identical(self, tmp_path):
        assert_audit_golden(tmp_path)

    def test_audit_golden_holds_across_chunk_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bb84, "_CHUNK", 7)   # 20 trials run as 7 + 7 + 6
        assert_audit_golden(tmp_path)

    def test_chunk_size_moves_no_byte(self, workdir, capsys, monkeypatch):
        def run(tag):
            out, transcripts = workdir / f"{tag}.csv", workdir / f"{tag}.json"
            code, stdout = run_cli(["qkd", "--config", str(workdir / "qkd.json"), "--seed", "8",
                                    "--trials", "10", "--out", str(out),
                                    "--transcripts", str(transcripts)], capsys)
            assert code == 0 and stdout == ""
            return out.read_bytes(), transcripts.read_bytes()

        default = run("default")
        monkeypatch.setattr(bb84, "_CHUNK", 3)
        assert run("three") == default
        assert default[0].decode().splitlines()[10].startswith("9,")

    def test_steane_code_is_built_once_per_process(self, workdir, monkeypatch):
        builds = []

        def counting_steane():
            builds.append(1)
            return steane_css()

        cli._steane.cache_clear()
        monkeypatch.setattr(codes, "steane_css", counting_steane)
        written = []
        for tag in ("first", "second"):
            out, transcripts = workdir / f"{tag}.csv", workdir / f"{tag}.json"
            assert main(["qkd", "--config", str(workdir / "qkd.json"), "--seed", "9",
                         "--trials", "3", "--out", str(out),
                         "--transcripts", str(transcripts)]) == 0
            written.append((out.read_bytes(), transcripts.read_bytes()))
        assert written[0] == written[1]
        assert builds == [1]

    def test_code_files_give_the_steane_run(self, workdir, capsys):
        # Hamming over its dual, read from code files, is the Steane code bit for bit
        (workdir / "simplex.txt").write_text(formats.code_to_text(codes.dual_code(hamming_7_4())))
        runs = []
        for code in ("steane", {"c1": str(workdir / "hamming.txt"),
                                "c2": str(workdir / "simplex.txt")}):
            (workdir / "files.json").write_text(json.dumps(
                {"n": 64, "code": code, "channel": {"kind": "depolarizing", "param": 0.05}}))
            transcripts = workdir / "transcripts.json"
            runs.append((run_cli(["qkd", "--config", str(workdir / "files.json"), "--seed", "2",
                                  "--trials", "4", "--transcripts", str(transcripts)], capsys),
                         transcripts.read_bytes()))
        assert runs[0] == runs[1] and runs[0][0][0] == 0

    def test_all_sifting_aborts_print_an_empty_aggregate_qber(self, tmp_path, capsys):
        # no trial has a qber, so the aggregate cell is empty like the trial rows'
        (tmp_path / "sift.json").write_text(json.dumps(
            {"n": 64, "delta": 0.0, "channel": {"kind": "ideal"}}))
        code, out = run_cli(["qkd", "--config", str(tmp_path / "sift.json"),
                             "--seed", "1", "--trials", "2"], capsys)
        assert code == 0
        assert out == ("trial,aborted,sifted_count,qber,key_len,keys_match\n"
                       "0,1,126,,0,0\n1,1,125,,0,0\naggregate,1,,0\n")


QKD_IDEAL = {"n": 64, "channel": {"kind": "ideal"}}
QKD = ["qkd", "--config", "{bad}", "--seed", "1"]


class TestBadInput:
    # Each case writes `payload` to bad.json; argv refers to it as {bad}.
    @pytest.mark.parametrize("argv,payload,fragment", [
        pytest.param(QKD + ["--trials", "0"], QKD_IDEAL, "--trials", id="trials-0"),
        pytest.param(QKD + ["--trials", "-3"], QKD_IDEAL, "--trials", id="trials-negative"),
        pytest.param(QKD, [64], "JSON object", id="qkd-array"),
        pytest.param(QKD, {"n": 64, "channel": "ideal"}, "channel", id="qkd-channel-string"),
        pytest.param(QKD, {"n": None, "channel": {"kind": "ideal"}}, "must be numbers",
                     id="qkd-n-null"),
        pytest.param(QKD, {"n": 64, "channel": {"kind": "ideal", "param": [0.1]}},
                     "must be numbers", id="qkd-param-list"),
        pytest.param(QKD, {"n": 64, "delta": float("inf"), "channel": {"kind": "ideal"}},
                     "finite delta", id="qkd-delta-infinite"),
        pytest.param(QKD, {"n": 64, "delta": 1e308, "channel": {"kind": "ideal"}},
                     "delta must keep (4 + delta) * 64 finite, got 1e+308",
                     id="qkd-delta-overflows-qubit-count"),
        # a valid config whose trial would send 512 million qubits fails before it runs
        pytest.param(QKD, {"n": 512, "delta": 1e6, "channel": {"kind": "ideal"}},
                     "qubits, above 4194304: lower n = 512 or delta = 1000000.0",
                     id="qkd-trial-above-qubit-cap"),
        pytest.param(QKD, {"n": 3, "channel": {"kind": "ideal"}}, "shorter than one code block",
                     id="qkd-n-below-code-block"),
        # 0.11 n, the default threshold, would overflow too; ProtocolConfig names n either way
        pytest.param(QKD, {"n": 10 ** 400, "channel": {"kind": "ideal"}},
                     "n must be <= 1.79769e+308, got 100000000000000000...0000000000000000000",
                     id="qkd-n-beyond-float"),
        pytest.param(QKD, {"n": 10 ** 400, "threshold": 7, "channel": {"kind": "ideal"}},
                     "n must be <= 1.79769e+308, got 100000000000000000...0000000000000000000",
                     id="qkd-n-beyond-float-with-threshold"),
        pytest.param(QKD, {"channel": {"kind": "ideal"}}, "missing field 'n'", id="qkd-no-n"),
        pytest.param(QKD, {**QKD_IDEAL, "code": "hamming"},
                     "code must be 'steane' or {'c1': path, 'c2': path}", id="qkd-code-name"),
        pytest.param(QKD, {**QKD_IDEAL, "code": {"c1": 7, "c2": "c2.txt"}},
                     "code must be 'steane' or {'c1': path, 'c2': path}",
                     id="qkd-code-path-number"),
        pytest.param(QKD, {**QKD_IDEAL, "code": {"c1": "no-such-dir/c1.txt", "c2": "c2.txt"}},
                     "no-such-dir/c1.txt", id="qkd-code-file-missing"),
        # both outputs are opened before the first trial, so stdout stays empty
        pytest.param(QKD + ["--trials", "2", "--transcripts", "{bad}/t.json"], QKD_IDEAL,
                     "bad.json/t.json", id="qkd-transcripts-unwritable"),
        pytest.param(QKD, {"n": 64, "channel": {}}, "missing field 'kind'", id="qkd-no-kind"),
        pytest.param(["entropy", "--inline", '{"a":1}'], None, "distribution",
                     id="entropy-object"),
        pytest.param(["qinfo", "--density", "{bad}"], [1, 0, 0, 1], "matrix", id="density-list"),
        pytest.param(["qinfo", "--density", "{bad}"], {"dim": True, "re": [1.0]}, "matrix dim",
                     id="density-dim-bool"),
        pytest.param(["capacity", "--channel", "{bad}"], [[0.9, 0.1], [0.1, 0.9]], "channel",
                     id="channel-list"),
        pytest.param(["compress", "--probs", "5", "--blocks", "4", "--eps", "0.3"], None,
                     "distribution", id="compress-scalar"),
        pytest.param(["entropy", "--inline", "[null, 1]"], None, "finite", id="entropy-null"),
        pytest.param(["entropy", "--inline", "[0.5, 0.6]"], None, "sum to 1.1, expected 1",
                     id="entropy-sum"),
        pytest.param(["capacity", "--channel", "{bad}"], {"rows": [[None, 1], [0, 1]]},
                     "finite", id="channel-null"),
        pytest.param(["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "nan"], None,
                     "epsilon", id="compress-eps-nan"),
        pytest.param(["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "0.3",
                      "--rate", "inf"], None, "rate must be finite", id="compress-rate-inf"),
        pytest.param(["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "0.3",
                      "--rate", "nan"], None, "rate must be finite", id="compress-rate-nan"),
        pytest.param(["capacity", "--channel", "{bad}", "--tol", "nan"],
                     {"rows": [[0.9, 0.1], [0.2, 0.8]]}, "tol must be a finite number",
                     id="capacity-tol-nan"),
        pytest.param(["capacity", "--channel", "{bad}", "--tol", "-1"],
                     {"rows": [[0.9, 0.1], [0.2, 0.8]]}, "tol must be a finite number",
                     id="capacity-tol-negative"),
        pytest.param(["capacity", "--channel", "{bad}", "--tol", "inf"],
                     {"rows": [[0.9, 0.1], [0.2, 0.8]]}, "tol must be a finite number",
                     id="capacity-tol-inf"),
        pytest.param(["entropy", "--inline", "[true, false]"], None, "must hold only numbers",
                     id="entropy-bool"),
        pytest.param(["capacity", "--channel", "{bad}"], {"rows": [[True, False], [False, True]]},
                     "must hold only numbers", id="channel-bool"),
        pytest.param(["qinfo", "--density", "{bad}"], {"dim": 1, "re": [True]},
                     "must hold only numbers", id="density-re-bool"),
        pytest.param(["entropy", "--inline", '["0.5", "0.5"]'], None, "must hold only numbers",
                     id="entropy-numeric-strings"),
        pytest.param(["entropy", "--inline", '["a", 0.5]'], None, "must hold only numbers",
                     id="entropy-string"),
        pytest.param(["qinfo", "--density", "{bad}"], {"dim": 1, "re": ["1"]},
                     "must hold only numbers", id="density-re-string"),
        pytest.param(["capacity", "--channel", "{bad}"],
                     {"rows": [["0.9", "0.1"], ["0.1", "0.9"]]}, "must hold only numbers",
                     id="channel-string"),
        pytest.param(["capacity", "--channel", "{bad}"], {"rows": [[0.9, 0.1], [0.1, "x"]]},
                     "must hold only numbers", id="channel-nested-string"),
        pytest.param(["compress", "--probs", "[1]", "--blocks", "25", "--eps", "0.3"], None,
                     "above the size cap", id="compress-one-symbol-over-cap"),
        pytest.param(["compress", "--probs", "[1]", "--blocks", "25", "--eps", "0.3",
                      "--quantum"], None, "above the size cap",
                     id="compress-quantum-one-symbol-over-cap"),
        pytest.param(["capacity", "--channel", "{bad}", "--tol", "0"],
                     {"rows": [[0.89, 0.11], [0.11, 0.89]]}, "best 0.5000840",
                     id="capacity-no-convergence"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, payload, fragment):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main([a.replace("{bad}", str(bad)) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]
        assert "np." not in lines[0]

    # Both outputs are opened before the first trial runs, so a bad path of
    # either kind leaves neither file holding a byte.
    @pytest.mark.parametrize("out,transcripts,fragment", [
        ("nodir/x.csv", "t.json", "nodir/x.csv"),
        ("x.csv", "nodir/t.json", "nodir/t.json"),
    ], ids=["out-unwritable", "transcripts-unwritable"])
    def test_bad_output_path_writes_no_byte(self, tmp_path, capsys, out, transcripts, fragment):
        (tmp_path / "q.json").write_text(json.dumps(QKD_IDEAL))
        code = main(["qkd", "--config", str(tmp_path / "q.json"), "--seed", "1", "--trials", "2",
                     "--out", str(tmp_path / out), "--transcripts", str(tmp_path / transcripts)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]
        for path in (tmp_path / out, tmp_path / transcripts):
            assert not path.exists() or path.stat().st_size == 0

    # Raised by a patch, not by a real input: a code file declaring 10^8 columns
    # allocates 800 MB before its basis runs out of memory.
    @pytest.mark.parametrize("module,name,argv,payload", [
        (bb84, "_run_trials", QKD, json.dumps(QKD_IDEAL)),
        (codes, "_nullspace_basis", ["codes", "--code", "{bad}"], "7 0\n"),
    ], ids=["qkd-batch", "codes-nullspace"])
    def test_memory_error_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                      module, name, argv, payload):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 36.4 TiB for an array")
        monkeypatch.setattr(module, name, exhausted)
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code = main([a.replace("{bad}", str(bad)) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: Unable to allocate 36.4 TiB for an array\n"

    # a fresh `python -m qinfo.cli` process, whose shallow stack still parses
    # JSON nested 980 deep; under pytest's deeper stack json would give up first
    @pytest.mark.parametrize("kind", ['"' + "a" * 5000 + '"', "[" * 980 + "]" * 980],
                             ids=["long-string", "nested-980"])
    def test_unknown_channel_kind_gives_one_short_error_line(self, tmp_path, kind):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 64, "channel": {"kind": ' + kind + "}}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qinfo.cli", "qkd", "--config", str(bad),
                               "--seed", "1"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unknown channel kind ")
        assert lines[0].endswith("expected 'ideal', 'depolarizing' or 'intercept_resend'")
        assert len(lines[0]) < 120

    @pytest.mark.parametrize("argv", [
        ["entropy", "--inline", "{deep}"],
        ["compress", "--probs", "{deep}", "--blocks", "4", "--eps", "0.3"],
        ["entropy", "--dist", "{bad}"],
        ["capacity", "--channel", "{bad}"],
        ["qkd", "--config", "{bad}", "--seed", "1"],
    ], ids=["entropy-inline", "compress-probs", "entropy-file", "capacity-file", "qkd-file"])
    def test_deep_nesting_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        deep = "[" * 100000 + "]" * 100000
        bad = tmp_path / "bad.json"
        bad.write_text(deep)
        code = main([a.replace("{bad}", str(bad)).replace("{deep}", deep) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: JSON input is nested too deeply\n"

    @pytest.mark.parametrize("argv,fragment", [
        (["entropy"], "one of the arguments --dist --inline is required"),
        (["entropy", "--dist", "{bad}", "--inline", "[0.5, 0.5]"],
         "argument --inline: not allowed with argument --dist"),
        (["compress", "--probs", "[0.5,0.5]", "--blocks", "4", "--eps", "0.3", "--quantum",
          "--rate", "nan"], "argument --rate: not allowed with argument --quantum"),
    ], ids=["entropy-no-source", "entropy-two-sources", "compress-quantum-rate"])
    def test_flag_conflicts_exit_2_with_usage(self, tmp_path, capsys, argv, fragment):
        bad = tmp_path / "bad.json"
        bad.write_text("[0.5, 0.5]")
        with pytest.raises(SystemExit) as err:
            main([a.replace("{bad}", str(bad)) for a in argv])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: ") and "Traceback" not in captured.err
        assert [ln for ln in lines if "error: " in ln] == [lines[-1]] and fragment in lines[-1]
