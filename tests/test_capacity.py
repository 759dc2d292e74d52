import hashlib
import math

import numpy as np
import pytest

from qinfo.capacity import (
    ConvergenceError,
    _lockstep,
    _nelder_mead,
    _theta_to_ensemble,
    _unit_outputs,
    bec,
    bsc,
    channel_capacity,
    channel_mutual_info,
    hsw_capacity_estimate,
    hsw_chi,
    noiseless,
    output_entropy_bound,
    square_root_measurement,
)
from qinfo.entropy import binary_entropy, random_dist
from qinfo.qentropy import _holevo
from qinfo.rng import stream
from qinfo.states import (
    KET_0,
    KET_1,
    KET_PLUS,
    QuantumChannel,
    depolarizing_channel,
    identity_channel,
    ket,
    outer,
    random_channel,
    random_pure_state,
)

from conftest import random_kraus
from oracles import hsw_estimate_scipy


def drive_alone(search, score) -> tuple[tuple, int, int]:
    """Run a ``_nelder_mead`` search scoring one point per call.

    Returns its result, the number of points scored and the number of
    multi-point asks after the first simplex (its shrink steps).
    """
    nfev, shrinks = 0, 0
    points = next(search)
    try:
        while True:
            nfev += len(points)
            points = search.send([score(x) for x in points])
            shrinks += len(points) > 1
    except StopIteration as done:
        return done.value, nfev, shrinks


def weyl_depolarizing(f: float, d: int = 3) -> QuantumChannel:
    """rho -> (1-f) rho + f I/d from the d^2 Weyl operators X^a Z^b."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    kraus = []
    for a in range(d):
        for b in range(d):
            weight = 1.0 - f + f / d ** 2 if a == b == 0 else f / d ** 2
            kraus.append(np.sqrt(weight) * np.linalg.matrix_power(shift, a)
                         @ np.linalg.matrix_power(clock, b))
    return QuantumChannel(kraus)


class TestChannelMutualInfo:
    def test_noiseless_uniform(self):
        assert channel_mutual_info([0.25] * 4, noiseless(4)) == pytest.approx(2.0, abs=1e-9)

    def test_useless_bsc(self, rng):
        for _ in range(5):
            px = random_dist(2, rng)
            assert channel_mutual_info(px, bsc(0.5)) == pytest.approx(0.0, abs=1e-9)

    def test_bsc_closed_form(self):
        expected = 1 - binary_entropy(0.11)
        assert channel_mutual_info([0.5, 0.5], bsc(0.11)) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            channel_mutual_info([0.5, 0.5], noiseless(3))


class TestChannelCapacity:
    def test_identity(self):
        cap, px = channel_capacity(noiseless(2))
        assert cap == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(px, 0.5)

    def test_bsc_011_matches_analytic(self):
        cap, px = channel_capacity(bsc(0.11))
        assert cap == pytest.approx(1 - binary_entropy(0.11), abs=1e-6)
        assert np.allclose(px, 0.5, atol=1e-6)

    def test_bec_family(self):
        for e in (0.0, 0.3, 0.75):
            cap, _ = channel_capacity(bec(e))
            assert cap == pytest.approx(1 - e, abs=1e-6)

    def test_returned_input_achieves_capacity(self, rng):
        for _ in range(10):
            t = np.stack([random_dist(3, rng) for _ in range(3)])
            cap, px = channel_capacity(t, tol=1e-11)
            assert channel_mutual_info(px, t) == pytest.approx(cap, abs=1e-8)

    def test_capacity_beats_random_inputs(self, rng):
        for _ in range(5):
            t = np.stack([random_dist(4, rng) for _ in range(3)])
            cap, _ = channel_capacity(t, tol=1e-11)
            for _ in range(64):
                assert channel_mutual_info(random_dist(3, rng), t) <= cap + 1e-6

    def test_capacity_within_log_bounds(self, rng):
        for _ in range(10):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = np.stack([random_dist(ny, rng) for _ in range(nx)])
            cap, _ = channel_capacity(t)
            assert -1e-9 <= cap <= math.log2(min(nx, ny)) + 1e-9

    def test_zero_column_support_restriction(self):
        t = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]])
        cap, _ = channel_capacity(t)
        assert 0.0 < cap < 1.0

    def test_iteration_cap_raises_with_best(self):
        with pytest.raises(ConvergenceError) as err:
            channel_capacity(bsc(0.11), tol=0.0, max_iter=5)
        assert err.value.capacity_bits == pytest.approx(1 - binary_entropy(0.11), abs=1e-6)


    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            channel_capacity([[0.9, 0.1], [0.2, 0.8]], tol=tol)


class TestHswChi:
    def test_identity_orthogonal_ensemble(self):
        ens = [(0.5, KET_0), (0.5, KET_1)]
        assert hsw_chi(identity_channel(2), ens) == pytest.approx(1.0, abs=1e-9)

    def test_fully_depolarizing_kills_everything(self, rng):
        ens = [(0.5, random_pure_state(2, rng)), (0.5, random_pure_state(2, rng))]
        assert hsw_chi(depolarizing_channel(1.0), ens) == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_closed_form(self):
        # outputs of |0>, |1> have eigenvalues (1 - f/2, f/2)
        for f in (0.2, 0.5):
            ens = [(0.5, KET_0), (0.5, KET_1)]
            assert hsw_chi(depolarizing_channel(f), ens) == pytest.approx(
                1 - binary_entropy(f / 2), abs=1e-9)

    def test_bounded_by_output_entropy(self, rng):
        for _ in range(20):
            ch = random_channel(2, 2, rng)
            probs = random_dist(3, rng)
            ens = [(p, random_pure_state(2, rng)) for p in probs]
            chi = hsw_chi(ch, ens)
            assert -1e-9 <= chi <= output_entropy_bound(ch, ens) + 1e-9
            assert chi <= 1.0 + 1e-9

    @pytest.mark.parametrize("fn", [hsw_chi, output_entropy_bound])
    @pytest.mark.parametrize("vec", [
        np.zeros(2), np.array([np.nan, 1.0]), np.array([np.inf, 1.0]), np.ones(3),
    ], ids=["zero", "nan", "inf", "wrong-size"])
    def test_rejects_bad_vector(self, fn, vec):
        with pytest.raises(ValueError):
            fn(depolarizing_channel(0.5), [(0.5, KET_0), (0.5, vec)])


class TestHswEstimate:
    def test_identity_channel(self):
        chi, _ = hsw_capacity_estimate(identity_channel(2), restarts=1, seed=3)
        assert chi >= 0.9999

    def test_fully_depolarizing(self):
        chi, _ = hsw_capacity_estimate(depolarizing_channel(1.0), restarts=1, seed=3)
        assert chi == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_half(self):
        chi, _ = hsw_capacity_estimate(depolarizing_channel(0.5), restarts=2, seed=3)
        assert chi == pytest.approx(1 - binary_entropy(0.25), abs=1e-3)

    def test_golden_estimate(self):
        # captured from the per-member objective that the stacked Holevo
        # kernel replaced; the batched one must reproduce it bit for bit
        chi, ens = hsw_capacity_estimate(depolarizing_channel(0.5), restarts=0, seed=3)
        assert chi.hex() == "0x1.82809d5be7089p-3"
        assert [p.hex() for p, _ in ens] == [
            "0x1.0000003c81074p-2", "0x1.0000008667411p-2",
            "0x1.0000001ad6e28p-2", "0x1.fffffe4481aa1p-3"]

    # identity(2) has pure, rank-deficient outputs (acceptance criterion 8's
    # call); the 9-Kraus qutrit channel has full-rank 3x3 outputs
    @pytest.mark.parametrize("make,restarts,seed,chi_hex,weight_hexes,vecs_sha256", [
        pytest.param(
            lambda: identity_channel(2), 1, 5, "0x1.0000000000004p+0",
            ["0x1.ffffffef51591p-3", "0x1.00000000491f6p-2",
             "0x1.0000001045253p-2", "0x1.ffffffef921ddp-3"],
            "2add603f3c6c6b74d9faab3133a7a949fcae5faecfcae6f7805a545979e9c9c7",
            id="identity-2"),
        pytest.param(
            lambda: weyl_depolarizing(0.3), 0, 0, "0x1.53793ee25b9dfp-1",
            ["0x1.c71c71a7b57edp-4", "0x1.c71c71e7ad367p-4", "0x1.c71c71e4945c1p-4",
             "0x1.c71c71a1849e9p-4", "0x1.c71c71906a199p-4", "0x1.c71c71dbedd0ep-4",
             "0x1.c71c718ebf3ffp-4", "0x1.c71c721570f1dp-4", "0x1.c71c71d9fc335p-4"],
            "0b67f28afecfcdd73ab0fe28d9894cb420a9ebbaa8cfe90abb47fa5faa93b65a",
            id="qutrit-weyl-depolarizing-0.3"),
    ])
    def test_golden_bits(self, make, restarts, seed, chi_hex, weight_hexes, vecs_sha256):
        # captured before the objective kernels were restacked; every bit of
        # (chi, ensemble) must survive any optimisation of the objective
        chi, ens = hsw_capacity_estimate(make(), restarts=restarts, seed=seed)
        assert chi.hex() == chi_hex
        assert [p.hex() for p, _ in ens] == weight_hexes
        vecs = np.stack([v for _, v in ens])
        assert hashlib.sha256(vecs.tobytes()).hexdigest() == vecs_sha256

    # outputs in dimension 8 take the per-row entropy sum
    @pytest.mark.parametrize("d,d_out", [(2, 2), (3, 3), (2, 8)], ids=["2", "3", "2-to-8"])
    def test_objective_equals_validated_chi(self, d, d_out, rng):
        # the search scores theta with the trusted kernels; hsw_chi of the
        # same ensemble as pairs must agree bit for bit, fallback rows included,
        # and a stack of K points must give each point the bits of its own call
        op = QuantumChannel(random_kraus(d, d_out, d, rng))
        m = d * d
        thetas, singles = [], []
        for i in range(500):
            theta = rng.normal(size=m + m * 2 * d) * 10.0 ** rng.integers(-3, 3)
            dead = int(rng.integers(0, m))
            if i % 4 == 0:
                theta[m + dead * 2 * d: m + (dead + 1) * 2 * d] = 0.0
            w, vecs = _theta_to_ensemble(theta, d)
            if i % 4 == 0:
                assert np.array_equal(vecs[dead], ket(dead % d, d))
            pairs = list(zip(w.tolist(), vecs))
            chi = _holevo(w, _unit_outputs(op, vecs))
            assert -chi == -hsw_chi(op, pairs)
            thetas.append(theta)
            singles.append((w, vecs, chi))
        at = 0
        for k in [1, 5, 21, 64] * 5:
            w, vecs = _theta_to_ensemble(np.stack(thetas[at:at + k]), d)
            chis = _holevo(w, _unit_outputs(op, vecs))
            assert chis.shape == (k,)
            for j, (w1, vecs1, chi1) in enumerate(singles[at:at + k]):
                assert w[j].tobytes() == w1.tobytes() and vecs[j].tobytes() == vecs1.tobytes()
                assert chis[j].hex() == chi1.hex()
            at += k

    # qubit searches that stop on the tolerances, one of them from a start
    # with a dead row, the flat objective of the fully depolarizing channel,
    # which shrinks, and a qutrit search stopped by a small iteration cap
    @pytest.mark.parametrize("make,d,dead_row,xatol,fatol,maxiter,stops", [
        (lambda rng: identity_channel(2), 2, None, 1e-3, 1e-6, 2000, "tol"),
        (lambda rng: depolarizing_channel(0.3), 2, 2, 1e-3, 1e-6, 2000, "tol"),
        (lambda rng: depolarizing_channel(1.0), 2, None, 1e-3, 1e-6, 2000, "shrink"),
        (lambda rng: random_channel(3, 2, rng), 3, 4, 1e-7, 1e-8, 120, "maxiter"),
    ], ids=["qubit", "dead-row", "shrink", "qutrit-maxiter"])
    def test_port_equals_scipy_nelder_mead(self, make, d, dead_row, xatol, fatol, maxiter,
                                           stops, rng):
        from scipy.optimize import minimize
        op = make(rng)
        m = d * d

        def objective(theta):
            w, vecs = _theta_to_ensemble(theta, d)
            return -_holevo(w, _unit_outputs(op, vecs))

        x0 = rng.normal(size=m + m * 2 * d)
        if dead_row is not None:
            x0[m + dead_row * 2 * d: m + (dead_row + 1) * 2 * d] = 0.0
        want = minimize(objective, x0, method="Nelder-Mead", options={
            "maxiter": maxiter, "xatol": xatol, "fatol": fatol, "adaptive": True})
        (x, fun, nit), nfev, shrinks = drive_alone(
            _nelder_mead(x0, maxiter=maxiter, xatol=xatol, fatol=fatol), objective)
        assert x.tobytes() == want.x.tobytes() and fun.hex() == want.fun.hex()
        assert (nit, nfev) == (want.nit, want.nfev)
        assert (nit == maxiter) == (stops == "maxiter")
        assert (shrinks > 0) == (stops == "shrink")

    def test_lockstep_gives_each_search_its_own_steps(self):
        # 40 searches of a 7-dimensional quadratic with iteration caps 20-59:
        # the first round's 320 points go out as two stacks, and the searches
        # end in different rounds
        centre = np.linspace(-1.0, 1.0, 7)

        def score(x):
            return np.sum((x - centre) ** 2 * np.arange(1, 8), axis=-1)

        starts = [stream(3, f"lockstep-{i}").normal(size=7) for i in range(40)]
        got = _lockstep(score, [_nelder_mead(x0, 20 + i, 1e-6, 1e-10)
                                for i, x0 in enumerate(starts)])
        for i, (x0, (x, fun, nit)) in enumerate(zip(starts, got)):
            (want_x, want_fun, want_nit), _, _ = drive_alone(
                _nelder_mead(x0, 20 + i, 1e-6, 1e-10), score)
            assert x.tobytes() == want_x.tobytes() and fun.hex() == want_fun.hex()
            assert nit == want_nit == 20 + i

    # restarts 0 runs one search alone, the others run 2-5 searches in
    # lock-step; each estimate must equal the old loop's, bit for bit
    @pytest.mark.parametrize("make,restarts", [
        (lambda: random_channel(2, 3, stream(11, "hsw-lockstep")), (0, 4)),
        (lambda: QuantumChannel(random_kraus(2, 3, 2, stream(12, "hsw-lockstep"))), (1, 3)),
        (lambda: depolarizing_channel(0.3), (2,)),
    ], ids=["qubit", "qubit-to-qutrit", "depolarizing-0.3"])
    def test_lockstep_equals_scipy_restart_loop(self, make, restarts):
        op = make()
        want = hsw_estimate_scipy(op, restarts=max(restarts), seed=21)
        for r in restarts:
            chi, ens = hsw_capacity_estimate(op, restarts=r, seed=21)
            assert chi.hex() == want[r][0].hex()
            assert [p.hex() for p, _ in ens] == [p.hex() for p, _ in want[r][1]]
            assert (np.stack([v for _, v in ens]).tobytes()
                    == np.stack([v for _, v in want[r][1]]).tobytes())

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            hsw_capacity_estimate(identity_channel(2), restarts=-1)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            hsw_capacity_estimate(identity_channel(2), restarts=0, tol=tol)

    def test_monotone_in_restarts(self):
        ch = depolarizing_channel(0.3)
        a, _ = hsw_capacity_estimate(ch, restarts=1, seed=9)
        b, _ = hsw_capacity_estimate(ch, restarts=3, seed=9)
        assert b >= a - 1e-12

    def test_identity_at_least_classical_capacity(self):
        chi, _ = hsw_capacity_estimate(identity_channel(2), restarts=1, seed=3)
        cap, _ = channel_capacity(noiseless(2))
        assert chi >= cap - 1e-4


class TestSquareRootMeasurement:
    def test_orthogonal_partition_recovers_projectors(self):
        pa = outer(ket(0, 4)) + outer(ket(1, 4))
        pb = outer(ket(2, 4))
        povm = square_root_measurement(pa + pb, [pa, pb])
        assert np.allclose(povm[0], pa)
        assert np.allclose(povm[1], pb)
        assert np.allclose(sum(povm), np.eye(4))

    def test_two_nonorthogonal_signals_beat_naive_guessing(self):
        s1, s2 = outer(KET_0), outer(KET_PLUS)
        povm = square_root_measurement(np.eye(2, dtype=complex), [s1, s2])
        success = 0.5 * np.trace(povm[0] @ s1).real + 0.5 * np.trace(povm[1] @ s2).real
        naive = 1 - 0.5 * abs(np.vdot(KET_0, KET_PLUS)) ** 2
        assert success > naive
        assert success == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-9)

    def test_no_signals_leave_only_the_completion_element(self):
        povm = square_root_measurement(np.eye(3, dtype=complex), [])
        assert len(povm) == 1 and np.array_equal(povm[0], np.eye(3))

    def test_positivity_and_completeness_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            signals = [outer(random_pure_state(d, rng)) for _ in range(3)]
            povm = square_root_measurement(np.eye(d, dtype=complex), signals)
            total = np.zeros((d, d), dtype=complex)
            for e in povm:
                assert np.linalg.eigvalsh(e).min() > -1e-7
                total += e
            assert np.max(np.abs(total - np.eye(d))) < 1e-7
