"""The boundary rules: every public integer and finite-real parameter, and one
table of the structural inputs that each remaining validation rejects."""

import json
import math

import numpy as np
import pytest

from qinfo import _check, entropy, formats
from qinfo.bb84 import ChannelModel, ProtocolConfig, run_batch
from qinfo.capacity import (
    bec,
    bsc,
    channel_capacity,
    hsw_capacity_estimate,
    noiseless,
    square_root_measurement,
)
from qinfo.cli import main
from qinfo.codes import (
    CssCode,
    LinearCode,
    bits,
    css_basis_state,
    decode,
    dual_code,
    gf2_inv,
    hamming_7_4,
    index_to_bits,
    parity_code,
    repetition_code,
    simulate_css_correction,
    steane_css,
    syndrome_table,
)
from qinfo.entropy import binary_entropy, fano_bound
from qinfo.qentropy import ensemble_state, entropy_exchange, fidelity, min_fidelity_estimate
from qinfo.states import (
    DensityMatrix,
    QuantumChannel,
    check_measurement,
    depolarizing_channel,
    identity_channel,
    partial_trace,
    thermal_state,
    unitary_channel,
)
from qinfo.typical import (
    QuantumSourceModel,
    SourceModel,
    is_typical,
    schumacher_compress,
    shannon_scheme,
)

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
    ("ShannonScheme.decompress.index",
     lambda v: shannon_scheme(SourceModel((0.75, 0.25), 4, 0.3), 1.0).decompress(v), None, 1),
    ("min_fidelity_estimate.trials",
     lambda v: min_fidelity_estimate(identity_channel(2), trials=v, refine_steps=0), 1, 2),
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


MIXED2, MIXED3 = DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)
REP17 = repetition_code(17)

# (case, call, the start of the message it must raise)
BAD_INPUTS = [
    ("ProtocolConfig.threshold-at-n", lambda: protocol(threshold=64),
     "threshold must be < n = 64, got 64"),
    ("ProtocolConfig.code-t-0",
     lambda: ProtocolConfig(64, 1.0, 7, CssCode(hamming_7_4(), dual_code(hamming_7_4())), 0),
     "reconciliation needs a CSS code correcting >= 1 error"),
    ("square_root_measurement.dimension", lambda: square_root_measurement(np.eye(17), []),
     "square-root measurement capped at dimension 16"),
    ("bits.empty", lambda: bits([]), "bit string must be a nonempty vector"),
    ("gf2_inv.singular", lambda: gf2_inv(np.ones((2, 2), np.uint8)),
     "matrix is singular over GF(2)"),
    ("LinearCode.generator-vector", lambda: LinearCode(np.ones(3)),
     "generator must be an n x k matrix"),
    ("LinearCode.generator-dependent", lambda: LinearCode([[1, 1], [1, 1], [0, 0]]),
     "generator columns must be independent"),
    ("LinearCode.parity-shape",
     lambda: LinearCode(hamming_7_4().generator, np.zeros((2, 7), np.uint8)),
     "parity check must be (3, 7), got (2, 7)"),
    ("LinearCode.messages-k-17", lambda: LinearCode(np.eye(17)).messages(),
     "message enumeration capped at k <= 16"),
    ("CssCode.lengths", lambda: CssCode(hamming_7_4(), repetition_code(3)),
     "component codes must share the block length n"),
    ("css_basis_state.n-17", lambda: css_basis_state(CssCode(REP17, REP17), "1" * 17),
     "dense basis states capped at n <= 16"),
    ("simulate_css_correction.n-11",
     lambda: simulate_css_correction(CssCode(*[repetition_code(11)] * 2), "1" * 11, "0" * 11,
                                     "0" * 11),
     "dense correction simulation capped at n <= 10"),
    ("validate_dist.negative", lambda: entropy.validate_dist([1.5, -0.5]),
     "negative probability -0.5"),
    ("validate_dist.empty", lambda: entropy.validate_dist([]),
     "distribution must be a nonempty vector"),
    ("validate_joint.scalar", lambda: entropy.joint_entropy(1.0),
     "joint distribution must have at least one axis"),
    ("relative_entropy.sizes", lambda: entropy.relative_entropy([1.0], [0.5, 0.5]),
     "distributions must have equal cardinality"),
    ("marginal.repeated-axis", lambda: entropy.marginal(np.eye(2) / 2, (0, 0)), "repeated axis"),
    ("mutual_information.overlap", lambda: entropy.mutual_information(np.eye(2) / 2, (0,), (0,)),
     "axis groups must be disjoint"),
    ("validate_stochastic.vector", lambda: entropy.validate_stochastic([0.5, 0.5]),
     "transition matrix must be two dimensional"),
    ("validate_stochastic.row-sum", lambda: entropy.validate_stochastic([[0.5, 0.6]]),
     "transition rows must each sum to 1"),
    ("markov_joint.dimensions", lambda: entropy.markov_joint([0.5, 0.5], np.eye(3), np.eye(3)),
     "chain dimensions do not match"),
    ("average_code_length.lengths", lambda: entropy.average_code_length([0.5, 0.5], [1]),
     "one length per symbol required"),
    ("matrix_from_json.size", lambda: formats.matrix_from_json({"dim": 2, "re": [1.0]}),
     "matrix payload does not hold 2x2 entries"),
    ("code_from_text.empty", lambda: formats.code_from_text(" \n"), "empty code file"),
    ("code_from_text.head", lambda: formats.code_from_text("7\n"), "first line must be 'n k'"),
    ("code_from_text.columns", lambda: formats.code_from_text("3 1\n"),
     "expected 1 generator columns"),
    ("code_from_text.separator", lambda: formats.code_from_text("3 1\n111\nX\n"),
     "expected 'H' separator before parity rows"),
    ("code_from_text.parity-rows", lambda: formats.code_from_text("3 1\n111\nH\n110\n"),
     "expected 2 parity rows"),
    ("fidelity.dimensions", lambda: fidelity(MIXED2, MIXED3),
     "states must share a dimension, got 2 and 3"),
    ("entropy_exchange.dimensions", lambda: entropy_exchange(MIXED3, depolarizing_channel(0.1)),
     "channel 2 -> 2 must be square and match the state dimension 3"),
    ("ensemble_state.dimensions", lambda: ensemble_state([(0.5, MIXED2), (0.5, MIXED3)]),
     "ensemble members must share a dimension"),
    ("DensityMatrix.vector", lambda: DensityMatrix(np.ones(3)),
     "density matrix must be square, got shape (3,)"),
    ("partial_trace.keep", lambda: partial_trace(DensityMatrix(np.eye(4) / 4, (2, 2)), "C"),
     "keep must be 'A' or 'B', got 'C'"),
    ("check_measurement.shape", lambda: check_measurement([np.eye(3)], 2),
     "measurement operators must be 2 x 2"),
    ("QuantumChannel.empty", lambda: QuantumChannel([]),
     "a channel needs at least one Kraus operator"),
    ("QuantumChannel.compose", lambda: identity_channel(2).compose(identity_channel(3)),
     "channel dimensions do not chain"),
    ("unitary_channel.not-unitary", lambda: unitary_channel(np.ones((2, 2))),
     "matrix is not unitary"),
    ("is_typical.length", lambda: is_typical([0, 1], SourceModel((0.75, 0.25), 4, 0.3)),
     "sequence length 2 != block length 4"),
    ("ShannonScheme.rate-below-one-bit",
     lambda: shannon_scheme(SourceModel((0.75, 0.25), 4, 0.3), 0.2),
     "rate times block length must be at least 1 bit"),
    ("schumacher_compress.dimension",
     lambda: schumacher_compress(QuantumSourceModel(MIXED2, 2, 0.3), MIXED2),
     "state dimension does not match the block space"),
]


class TestBadInputs:
    @pytest.mark.parametrize("call,message", [row[1:] for row in BAD_INPUTS],
                             ids=[row[0] for row in BAD_INPUTS])
    def test_raises_its_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).startswith(message)
