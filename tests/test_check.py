"""The shared boundary rules: every public integer and finite-real parameter."""

import json
import math

import numpy as np
import pytest

from qinfo import _check
from qinfo.bb84 import ChannelModel, ProtocolConfig, run_batch
from qinfo.capacity import bec, bsc, channel_capacity, hsw_capacity_estimate, noiseless
from qinfo.cli import main
from qinfo.codes import (
    CssCode,
    decode,
    dual_code,
    hamming_7_4,
    index_to_bits,
    parity_code,
    repetition_code,
    steane_css,
    syndrome_table,
)
from qinfo.entropy import binary_entropy, fano_bound
from qinfo.qentropy import min_fidelity_estimate
from qinfo.states import DensityMatrix, depolarizing_channel, identity_channel, thermal_state
from qinfo.typical import SourceModel, shannon_scheme

STEANE = steane_css()
IDEAL = ChannelModel("ideal")


def protocol(n=64, threshold=7, master_seed=0, delta=1.0):
    return ProtocolConfig(n=n, delta=delta, threshold=threshold, code=STEANE,
                          master_seed=master_seed)


# (parameter, call with the value, minimum or None, a valid value)
INTEGER_PARAMETERS = [
    ("ProtocolConfig.n", lambda v: protocol(n=v, threshold=0), 1, 64),
    ("ProtocolConfig.threshold", lambda v: protocol(threshold=v), 0, 7),
    ("ProtocolConfig.master_seed", lambda v: protocol(master_seed=v), None, -3),
    ("run_batch.trials", lambda v: run_batch(protocol(), IDEAL, v), 0, 2),
    ("repetition_code.n", repetition_code, 1, 3),
    ("parity_code.n", parity_code, 1, 3),
    ("index_to_bits.idx", lambda v: index_to_bits(v, 4), 0, 5),
    ("index_to_bits.n", lambda v: index_to_bits(8, v), 4, 4),   # n must hold idx
    ("syndrome_table.t", lambda v: syndrome_table(hamming_7_4(), v), 0, 1),
    ("decode.t", lambda v: decode(hamming_7_4(), "0100000", v), 0, 1),
    ("CssCode.t", lambda v: CssCode(hamming_7_4(), dual_code(hamming_7_4()), t=v), 0, 1),
    ("SourceModel.block_length", lambda v: SourceModel((0.75, 0.25), v, 0.3), 1, 4),
    ("fano_bound.alphabet_size", lambda v: fano_bound(0.1, v), 2, 4),
    ("channel_capacity.max_iter", lambda v: channel_capacity(bsc(0.1), max_iter=v), 1, 500),
    ("hsw_capacity_estimate.restarts",
     lambda v: hsw_capacity_estimate(identity_channel(2), restarts=v, tol=1e-3), 0, 0),
    ("hsw_capacity_estimate.seed",
     lambda v: hsw_capacity_estimate(identity_channel(2), restarts=0, tol=1e-3, seed=v),
     None, -5),
    ("DensityMatrix.dims", lambda v: DensityMatrix(np.eye(4) / 4, (v, 2)), 1, 2),
    ("DensityMatrix.maximally_mixed.dim", DensityMatrix.maximally_mixed, 1, 2),
    ("noiseless.k", noiseless, 1, 2),
    ("min_fidelity_estimate.trials",
     lambda v: min_fidelity_estimate(identity_channel(2), trials=v, refine_steps=0), 0, 2),
    ("min_fidelity_estimate.refine_steps",
     lambda v: min_fidelity_estimate(identity_channel(2), trials=1, refine_steps=v), 0, 1),
]


class TestIntegerParameters:
    @pytest.mark.parametrize("call,minimum,valid", [row[1:] for row in INTEGER_PARAMETERS],
                             ids=[row[0] for row in INTEGER_PARAMETERS])
    def test_bool_fraction_and_below_minimum_rejected_numpy_integer_accepted(
            self, call, minimum, valid):
        bad = [True, 2.5, float(valid)] + ([minimum - 1] if minimum is not None else [])
        for value in bad:
            with pytest.raises(ValueError, match="integer"):
                call(value)
        call(np.int64(valid))

    @pytest.mark.parametrize("payload", [
        {"n": 512.5, "channel": {"kind": "ideal"}},
        {"n": "64", "channel": {"kind": "ideal"}},
        {"n": 64, "threshold": 7.9, "channel": {"kind": "ideal"}},
        {"n": True, "channel": {"kind": "ideal"}},
        {"n": 64, "channel": {"kind": "ideal", "param": True}},
    ], ids=["n-fraction", "n-string", "threshold-fraction", "n-bool", "param-bool"])
    def test_qkd_config_exits_2_with_one_error_line(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["qkd", "--config", str(bad), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


# (parameter name in the message, call with the value)
REAL_PARAMETERS = [
    ("beta", lambda v: thermal_state(np.diag([0.0, 1.0]), v)),
    ("flip", bsc),
    ("erase", bec),
    ("f", depolarizing_channel),
    ("param", lambda v: ChannelModel("depolarizing", v)),
    ("delta", lambda v: protocol(delta=v)),
    ("rate", lambda v: shannon_scheme(SourceModel((0.75, 0.25), 4, 0.3), v)),
    ("p", binary_entropy),
    ("p_err", lambda v: fano_bound(v, 4)),
    ("epsilon", lambda v: SourceModel((0.75, 0.25), 4, v)),
    ("tol", lambda v: channel_capacity(bsc(0.1), tol=v)),
]


class TestRealParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.5", None],
                             ids=["nan", "inf", "bool", "str", "none"])
    @pytest.mark.parametrize("name,call", REAL_PARAMETERS, ids=[r[0] for r in REAL_PARAMETERS])
    def test_non_finite_and_non_numbers_rejected_by_name(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must be .*finite"):
            call(value)

    @pytest.mark.parametrize("name,call", REAL_PARAMETERS, ids=[r[0] for r in REAL_PARAMETERS])
    def test_numpy_scalars_accepted(self, name, call):
        value = 0.5 if name != "rate" else 0.9
        call(np.float64(value))
        call(np.float32(value))


class TestMessages:
    def test_numpy_values_print_without_their_repr(self):
        with pytest.raises(ValueError) as err:
            _check.real(np.float64(2.5), "p", 0, 1)
        assert str(err.value) == "p must be a finite number in [0, 1], got 2.5"
        with pytest.raises(ValueError) as err:
            _check.integer(np.int64(-1), "t", 0)
        assert str(err.value) == "t must be >= 0, a non-negative integer, got -1"

    def test_open_lower_end(self):
        assert _check.real(1e-300, "epsilon", 0, strict=True) == 1e-300
        with pytest.raises(ValueError, match=r"epsilon must be a finite number in \(0, inf\]"):
            _check.real(0.0, "epsilon", 0, strict=True)
