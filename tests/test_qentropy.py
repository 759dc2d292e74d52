import math

import numpy as np
import pytest

from qinfo.entropy import (
    binary_entropy, joint_entropy, random_dist, shannon_entropy, validate_dist,
)
from qinfo.qentropy import (
    _holevo,
    classical_quantum_state,
    coherent_information,
    ensemble_average_fidelity,
    ensemble_state,
    entanglement_fidelity,
    entropy_exchange,
    fidelity,
    holevo_chi,
    is_entangled_pure,
    min_fidelity_estimate,
    quantum_conditional_entropy,
    quantum_fano_gap,
    quantum_joint_entropy,
    quantum_mutual_information,
    quantum_relative_entropy,
    von_neumann_entropy,
)
from qinfo.rng import stream
from qinfo.states import (
    KET_0,
    KET_1,
    KET_PLUS,
    DensityMatrix,
    QuantumChannel,
    apply_unitary,
    depolarizing_channel,
    identity_channel,
    measure,
    outer,
    partial_trace,
    purify,
    random_channel,
    random_density_matrix,
    random_projector,
    random_pure_state,
    random_unitary,
    tensor_product,
    unitary_channel,
)

from conftest import bell_state, random_kraus
from oracles import (
    apply_kraus_loop,
    bloch_grid_min_fidelity,
    holevo_per_member,
    purified_entanglement_fidelity,
    w_matrix_entropy,
)

ATOL = 1e-7

# the p = 1/2 equal mixture of |0><0| and |+><+|
MIXED_FIXTURE = DensityMatrix(0.5 * outer(KET_0) + 0.5 * outer(KET_PLUS))


def mixed_fixture_entropy() -> float:
    # eigenvalue-formula oracle: lambda = (1 +- sqrt(1 + 2p^2 - 2p)) / 2 at p = 1/2
    lam1 = (1 + math.sqrt(0.5)) / 2
    return -(lam1 * math.log2(lam1) + (1 - lam1) * math.log2(1 - lam1))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityMatrix.pure(KET_0)) == 0.0

    def test_zero_entropies_are_positive_zero(self):
        # -sum(p log p) over the single term 1 * log2(1) would give -0.0, which prints as -0
        for h in (shannon_entropy([1, 0]), von_neumann_entropy(DensityMatrix.pure(KET_0)),
                  joint_entropy([[1, 0], [0, 0]])):
            assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(1.0, abs=ATOL)

    def test_mixed_fixture_differs_from_shannon(self):
        s = von_neumann_entropy(MIXED_FIXTURE)
        assert s == pytest.approx(mixed_fixture_entropy(), abs=1e-9)
        assert s == pytest.approx(0.6008760366928562, abs=1e-9)
        assert abs(s - shannon_entropy([0.5, 0.5])) > 0.3

    def test_bounds(self, rng):
        for dim in (2, 3, 4):
            for _ in range(25):
                s = von_neumann_entropy(random_density_matrix(dim, rng))
                assert -ATOL <= s <= math.log2(dim) + ATOL


class TestQuantumRelativeEntropy:
    def test_identical(self, rng):
        rho = random_density_matrix(3, rng)
        assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=ATOL)

    def test_commuting_reduces_to_classical(self):
        rho = DensityMatrix.pure(KET_0)
        sigma = DensityMatrix.maximally_mixed(2)
        assert quantum_relative_entropy(rho, sigma) == pytest.approx(1.0, abs=ATOL)

    def test_support_violation(self):
        assert quantum_relative_entropy(
            DensityMatrix.pure(KET_PLUS), DensityMatrix.pure(KET_0)) == math.inf

    def test_klein_inequality(self, rng):
        for _ in range(50):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            assert quantum_relative_entropy(rho, sigma) >= -ATOL

    def test_matches_direct_eigh_reference(self, rng):
        # tr(rho log rho) comes from the cached eigvalsh spectrum, the
        # reference from eigh.  On full-rank states they differ in the last
        # bits.  A zero eigenvalue comes back from either solver as dust of
        # size up to about d*eps, and x log2 x turns that into up to
        # d*eps*52 per zero eigenvalue, for each of the two solvers.
        eps = np.finfo(float).eps
        for _ in range(100):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d + 1))
            rho = random_density_matrix(d, rng, rank=rank)
            sigma = random_density_matrix(d, rng)
            wr = np.linalg.eigh(rho.mat)[0]
            wr = wr[wr > 0.0]
            ws, vs = np.linalg.eigh(sigma.mat)
            weight = np.einsum("ij,ji->i", vs.conj().T @ rho.mat, vs).real.clip(0.0)
            ref = np.sum(wr * np.log2(wr)) - np.sum(weight * np.log2(ws))
            tol = 1e-14 if rank == d else 2 * (d - rank) * d * eps * 52
            assert abs(quantum_relative_entropy(rho, sigma) - ref) <= tol


class TestBipartiteMeasures:
    def test_product_state_additivity(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        joint = tensor_product(a, b)
        assert quantum_joint_entropy(joint) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=ATOL)

    def test_bell_state_family(self):
        rho = DensityMatrix.pure(bell_state(), dims=(2, 2))
        assert quantum_joint_entropy(rho) == pytest.approx(0.0, abs=ATOL)
        assert von_neumann_entropy(partial_trace(rho, "A")) == pytest.approx(1.0, abs=ATOL)
        assert von_neumann_entropy(partial_trace(rho, "B")) == pytest.approx(1.0, abs=ATOL)
        assert quantum_conditional_entropy(rho) == pytest.approx(-1.0, abs=ATOL)
        assert quantum_mutual_information(rho) == pytest.approx(2.0, abs=ATOL)

    def test_araki_lieb_equality_fixture(self):
        rho = tensor_product(DensityMatrix.pure(KET_0), DensityMatrix.maximally_mixed(2))
        assert quantum_joint_entropy(rho) == pytest.approx(1.0, abs=ATOL)
        assert von_neumann_entropy(partial_trace(rho, "A")) == pytest.approx(0.0, abs=ATOL)
        assert von_neumann_entropy(partial_trace(rho, "B")) == pytest.approx(1.0, abs=ATOL)

    def test_missing_dims_rejected(self):
        with pytest.raises(ValueError):
            quantum_conditional_entropy(DensityMatrix.maximally_mixed(4))


class TestEntanglementDetection:
    def test_product_states(self):
        assert not is_entangled_pure(np.kron(KET_0, KET_1), (2, 2))
        # (|00> + |01>)/sqrt(2) = |0> (x) |+>
        psi = (np.kron(KET_0, KET_0) + np.kron(KET_0, KET_1)) / np.sqrt(2)
        assert not is_entangled_pure(psi, (2, 2))

    def test_bell_state(self):
        assert is_entangled_pure(bell_state(), (2, 2))

    def test_matches_negative_conditional_entropy(self, rng):
        for _ in range(25):
            psi = random_pure_state(4, rng)
            rho = DensityMatrix.pure(psi, (2, 2))
            flagged = is_entangled_pure(psi, (2, 2))
            assert flagged == (quantum_conditional_entropy(rho) < -1e-9)


class TestHolevo:
    def test_orthogonal_pure_states(self):
        e = [(0.5, DensityMatrix.pure(KET_0)), (0.5, DensityMatrix.pure(KET_1))]
        assert holevo_chi(e) == pytest.approx(1.0, abs=ATOL)

    def test_mixed_fixture_ensemble(self):
        e = [(0.5, DensityMatrix.pure(KET_0)), (0.5, DensityMatrix.pure(KET_PLUS))]
        assert holevo_chi(e) == pytest.approx(mixed_fixture_entropy(), abs=1e-9)

    def test_singleton_ensemble(self, rng):
        assert holevo_chi([(1.0, random_density_matrix(3, rng))]) == pytest.approx(0.0, abs=ATOL)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError):
            holevo_chi([(math.nan, DensityMatrix.pure(KET_0)), (1.0, DensityMatrix.pure(KET_1))])

    def test_chi_between_zero_and_mixing_entropy(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 4))
            probs = random_dist(k, rng)
            ens = [(p, random_density_matrix(2, rng)) for p in probs]
            chi = holevo_chi(ens)
            assert -ATOL <= chi <= shannon_entropy(probs) + ATOL

    def test_simulated_information_respects_bound(self, rng):
        # exact measured joint p(x, y) = p_x tr(rho_x E_y) against chi
        from qinfo.entropy import mutual_information
        for _ in range(40):
            k = int(rng.integers(2, 4))
            probs = random_dist(k, rng)
            ens = [(p, random_density_matrix(2, rng)) for p in probs]
            u = random_unitary(2, rng)
            povm = [outer(u[:, i]) for i in range(2)]
            joint = np.array([[p * np.trace(s.mat @ e).real for e in povm]
                              for p, s in ens])
            assert mutual_information(joint) <= holevo_chi(ens) + 1e-6


    @pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 9, 16])
    def test_stacked_kernel_bit_identical_to_member_loop(self, d, rng):
        # pure and low-rank members leave zeros in the spectra, which a masked
        # row sum only reproduces below 8 entries; zero weights are skipped
        for _ in range(40):
            m = int(rng.integers(1, 7))
            mats = np.stack([random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))).mat
                             if rng.random() < 0.7 else outer(random_pure_state(d, rng))
                             for _ in range(m)])
            w = rng.random(m) * (rng.random(m) < 0.7)
            w[int(rng.integers(m))] += 0.5
            probs = validate_dist(w / w.sum())
            want = holevo_per_member(probs, mats)
            assert _holevo(probs, mats).hex() == want.hex()
            ens = [(p, DensityMatrix(x)) for p, x in zip(probs, mats)]
            assert holevo_chi(ens).hex() == want.hex()


class TestEntropyExchange:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(2, rng)
        assert entropy_exchange(rho, identity_channel(2)) == pytest.approx(0.0, abs=ATOL)

    def test_unitary_channel(self, rng):
        rho = random_density_matrix(3, rng)
        ch = unitary_channel(random_unitary(3, rng))
        assert entropy_exchange(rho, ch) == pytest.approx(0.0, abs=ATOL)

    def test_full_depolarizing_on_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        ch = depolarizing_channel(1.0)
        s = entropy_exchange(rho, ch)
        assert s == pytest.approx(w_matrix_entropy(rho.mat, ch.kraus), abs=ATOL)
        assert s == pytest.approx(2.0, abs=ATOL)

    def test_agrees_with_w_matrix_oracle(self, rng):
        for _ in range(40):
            rho = random_density_matrix(2, rng)
            ch = random_channel(2, int(rng.integers(1, 4)), rng)
            assert entropy_exchange(rho, ch) == pytest.approx(
                w_matrix_entropy(rho.mat, ch.kraus), abs=ATOL)


    @pytest.mark.parametrize("d,r", [(2, 1), (2, 4), (3, 9)])
    def test_bit_identical_to_kraus_loop(self, d, r, rng):
        for _ in range(10):
            ops = random_kraus(d, d, r, rng)
            rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
            eye = np.eye(d, dtype=complex)
            joint = apply_kraus_loop([np.kron(eye, k) for k in ops], outer(purify(rho)))
            assert (entropy_exchange(rho, QuantumChannel(ops)).hex()
                    == von_neumann_entropy(DensityMatrix(joint)).hex())


class TestCoherentInformation:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(2, rng)
        assert coherent_information(rho, identity_channel(2)) == pytest.approx(
            von_neumann_entropy(rho), abs=ATOL)

    def test_unitary_channel(self, rng):
        rho = random_density_matrix(2, rng)
        ch = unitary_channel(random_unitary(2, rng))
        assert coherent_information(rho, ch) == pytest.approx(
            von_neumann_entropy(rho), abs=ATOL)

    def test_full_depolarizing(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert coherent_information(rho, depolarizing_channel(1.0)) == pytest.approx(-1.0, abs=ATOL)

    def test_never_exceeds_input_entropy(self, rng):
        for _ in range(30):
            rho = random_density_matrix(2, rng)
            ch = random_channel(2, 2, rng)
            assert coherent_information(rho, ch) <= von_neumann_entropy(rho) + ATOL


class TestQuantumFano:
    def test_identity_gap_zero(self, rng):
        rho = DensityMatrix.pure(random_pure_state(2, rng))
        assert quantum_fano_gap(rho, identity_channel(2)) == pytest.approx(0.0, abs=ATOL)

    def test_full_depolarizing_fixture(self):
        rho = DensityMatrix.maximally_mixed(2)
        ch = depolarizing_channel(1.0)
        assert entanglement_fidelity(rho, ch) == pytest.approx(0.25, abs=ATOL)
        bound = binary_entropy(0.25) + 0.75 * math.log2(3)
        assert bound == pytest.approx(2.0, abs=1e-12)
        assert quantum_fano_gap(rho, ch) == pytest.approx(0.0, abs=ATOL)

    def test_gap_nonnegative_random(self, rng):
        for _ in range(100):
            rho = random_density_matrix(2, rng)
            ch = random_channel(2, int(rng.integers(1, 5)), rng)
            assert quantum_fano_gap(rho, ch) >= -ATOL


class TestFidelity:
    def test_identical(self, rng):
        rho = random_density_matrix(3, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=ATOL)

    def test_orthogonal_pure(self):
        assert fidelity(DensityMatrix.pure(KET_0), DensityMatrix.pure(KET_1)) == pytest.approx(
            0.0, abs=ATOL)

    def test_pure_overlap(self):
        assert fidelity(DensityMatrix.pure(KET_0), DensityMatrix.pure(KET_PLUS)) == pytest.approx(
            1 / math.sqrt(2), abs=ATOL)

    def test_symmetry(self, rng):
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=ATOL)


class TestEntanglementFidelity:
    def test_identity(self, rng):
        rho = random_density_matrix(2, rng)
        assert entanglement_fidelity(rho, identity_channel(2)) == pytest.approx(1.0, abs=ATOL)

    def test_depolarizing_closed_form(self):
        rho = DensityMatrix.maximally_mixed(2)
        for f in (0.1, 0.5, 0.9):
            assert entanglement_fidelity(rho, depolarizing_channel(f)) == pytest.approx(
                1 - 3 * f / 4, abs=ATOL)

    def test_agrees_with_purification_oracle(self, rng):
        for _ in range(30):
            rho = random_density_matrix(2, rng)
            ch = random_channel(2, int(rng.integers(1, 4)), rng)
            assert entanglement_fidelity(rho, ch) == pytest.approx(
                purified_entanglement_fidelity(rho.mat, ch.kraus), abs=ATOL)

    @pytest.mark.parametrize("d,r", [(2, 1), (2, 4), (3, 9)])
    def test_bit_identical_to_kraus_loop(self, d, r, rng):
        for _ in range(10):
            ops = random_kraus(d, d, r, rng)
            rho = random_density_matrix(d, rng)
            total = 0.0
            for k in ops:
                total += abs(np.trace(rho.mat @ k)) ** 2
            assert entanglement_fidelity(rho, QuantumChannel(ops)).hex() == min(1.0, total).hex()

    def test_ensemble_average_identity(self, rng):
        ens = [(0.5, DensityMatrix.pure(random_pure_state(2, rng))) for _ in range(2)]
        assert ensemble_average_fidelity(ens, identity_channel(2)) == pytest.approx(1.0, abs=ATOL)


class TestMinFidelity:
    def test_identity(self):
        assert min_fidelity_estimate(identity_channel(2), trials=16,
                                     rng=stream(1, "mf")) == pytest.approx(1.0, abs=ATOL)

    def test_depolarizing_closed_form(self):
        # F(psi, (1-f) psi + f I/2) = sqrt(1 - f/2), independent of psi
        for f in (0.2, 0.6):
            est = min_fidelity_estimate(depolarizing_channel(f), trials=32, rng=stream(2, "mf"))
            assert est == pytest.approx(math.sqrt(1 - f / 2), abs=1e-6)

    def test_tracks_grid_minimum(self, rng):
        # the dense grid over-estimates the true minimum by O(step^2), so the
        # sampled estimate may sit slightly below it but never far off
        for _ in range(3):
            ch = random_channel(2, 2, rng)
            est = min_fidelity_estimate(ch, trials=128, rng=stream(3, "mf"))
            grid = bloch_grid_min_fidelity(ch.kraus, steps=60)
            assert abs(est - grid) < 0.02

    def test_sampling_bits_pinned(self):
        # captured when the first sample was still drawn outside the sampling loop
        ch = random_channel(2, 3, stream(4, "mf-ch"))
        assert [min_fidelity_estimate(ch, trials=t, rng=stream(5, "mf")).hex()
                for t in (1, 8)] == ["0x1.f930122801e8fp-4", "0x1.f930122780a8cp-4"]

    def test_monotone_in_trials(self):
        ch = random_channel(2, 3, stream(4, "mf-ch"))
        # pure sampling phase: later trials extend the same stream, so the
        # running minimum is exactly nonincreasing
        raw = [min_fidelity_estimate(ch, trials=t, rng=stream(5, "mf"), refine_steps=0)
               for t in (8, 32, 128)]
        assert raw[0] >= raw[1] >= raw[2]
        # with refinement the guarantee holds up to convergence jitter
        vals = [min_fidelity_estimate(ch, trials=t, rng=stream(5, "mf")) for t in (8, 32, 128)]
        assert vals[0] >= vals[1] - 1e-9
        assert vals[1] >= vals[2] - 1e-9


class TestVonNeumannProperties:
    """The twelve basic properties, randomised at small dimension."""

    def test_p1_symmetry_under_swap(self, rng):
        for _ in range(40):
            rho = random_density_matrix(4, rng, dims=(2, 2))
            swap = rho.mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            swapped = DensityMatrix(swap, (2, 2))
            assert quantum_joint_entropy(rho) == pytest.approx(
                quantum_joint_entropy(swapped), abs=ATOL)
            assert quantum_mutual_information(rho) == pytest.approx(
                quantum_mutual_information(swapped), abs=ATOL)

    def test_p2_unitary_invariance(self, rng):
        for _ in range(40):
            rho = random_density_matrix(3, rng)
            u = random_unitary(3, rng)
            assert von_neumann_entropy(apply_unitary(rho, u)) == pytest.approx(
                von_neumann_entropy(rho), abs=ATOL)

    def test_p3_subadditivity(self, rng):
        for _ in range(40):
            rho = random_density_matrix(4, rng, dims=(2, 2))
            sa = von_neumann_entropy(partial_trace(rho, "A"))
            sb = von_neumann_entropy(partial_trace(rho, "B"))
            assert quantum_joint_entropy(rho) <= sa + sb + ATOL
        a, b = random_density_matrix(2, rng), random_density_matrix(2, rng)
        prod = tensor_product(a, b)
        assert quantum_joint_entropy(prod) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=ATOL)

    def test_p4_araki_lieb(self, rng):
        for _ in range(40):
            rho = random_density_matrix(4, rng, dims=(2, 2))
            sa = von_neumann_entropy(partial_trace(rho, "A"))
            sb = von_neumann_entropy(partial_trace(rho, "B"))
            assert quantum_joint_entropy(rho) >= abs(sa - sb) - ATOL
        fixture = tensor_product(DensityMatrix.pure(KET_0), DensityMatrix.maximally_mixed(2))
        assert quantum_joint_entropy(fixture) == pytest.approx(1.0, abs=ATOL)

    def test_p5_concavity_with_strict_fixture(self, rng):
        for _ in range(40):
            w = float(rng.uniform(0.05, 0.95))
            r1 = random_density_matrix(3, rng)
            r2 = random_density_matrix(3, rng)
            mix = DensityMatrix(w * r1.mat + (1 - w) * r2.mat)
            avg = w * von_neumann_entropy(r1) + (1 - w) * von_neumann_entropy(r2)
            assert von_neumann_entropy(mix) >= avg - ATOL
        # deliberately distinct states make the inequality strict
        mix = DensityMatrix(0.5 * outer(KET_0) + 0.5 * outer(KET_1))
        assert von_neumann_entropy(mix) > 0.5  # average of two zeros plus margin

    def test_p6_mixing_bound_and_joint_entropy_theorem(self, rng):
        for _ in range(40):
            k = int(rng.integers(2, 4))
            probs = random_dist(k, rng)
            ens = [(p, random_density_matrix(2, rng)) for p in probs]
            lhs = von_neumann_entropy(ensemble_state(ens))
            rhs = sum(p * von_neumann_entropy(s) for p, s in ens) + shannon_entropy(probs)
            assert lhs <= rhs + ATOL
            # block-diagonal (orthogonal support) version is exactly additive
            cq = classical_quantum_state(ens)
            assert von_neumann_entropy(cq) == pytest.approx(rhs, abs=ATOL)

    def test_p7_strong_subadditivity(self, rng):
        for _ in range(40):
            rho = random_density_matrix(8, rng)
            m = rho.mat
            s_abc = von_neumann_entropy(rho)
            ab = DensityMatrix(np.trace(m.reshape(4, 2, 4, 2), axis1=1, axis2=3), (2, 2))
            bc = DensityMatrix(np.trace(m.reshape(2, 4, 2, 4), axis1=0, axis2=2), (2, 2))
            b = partial_trace(bc, "A")
            lhs = s_abc + von_neumann_entropy(b)
            rhs = quantum_joint_entropy(ab) + quantum_joint_entropy(bc)
            assert lhs <= rhs + ATOL
            # equivalent form S(A) + S(B) <= S(A,C) + S(B,C)
            a = partial_trace(ab, "A")
            ac = DensityMatrix(
                np.trace(m.reshape(2, 2, 2, 2, 2, 2), axis1=1, axis2=4).reshape(4, 4), (2, 2))
            c = partial_trace(bc, "B")
            lhs2 = von_neumann_entropy(a) + von_neumann_entropy(b)
            rhs2 = quantum_joint_entropy(ac) + quantum_joint_entropy(bc)
            assert lhs2 <= rhs2 + ATOL

    def test_p8_conditioning_reduces_entropy(self, rng):
        for _ in range(40):
            rho = random_density_matrix(8, rng)
            m = rho.mat
            ab = DensityMatrix(np.trace(m.reshape(4, 2, 4, 2), axis1=1, axis2=3), (2, 2))
            bc = DensityMatrix(np.trace(m.reshape(2, 4, 2, 4), axis1=0, axis2=2), (2, 2))
            s_abc = von_neumann_entropy(rho)
            s_bc = quantum_joint_entropy(bc)
            s_ab = quantum_joint_entropy(ab)
            s_b = von_neumann_entropy(partial_trace(ab, "A"))
            # S(A | B, C) <= S(A | B)
            assert s_abc - s_bc <= s_ab - s_b + ATOL

    def test_p9_discarding_never_increases_mutual_info(self, rng):
        for _ in range(40):
            rho = random_density_matrix(8, rng)
            m = rho.mat
            a_bc = DensityMatrix(m, (2, 4))
            ab = DensityMatrix(np.trace(m.reshape(4, 2, 4, 2), axis1=1, axis2=3), (2, 2))
            assert quantum_mutual_information(ab) <= quantum_mutual_information(a_bc) + ATOL

    def test_p10_channels_never_increase_mutual_info(self, rng):
        for _ in range(40):
            rho = random_density_matrix(4, rng, dims=(2, 2))
            ch = random_channel(2, 2, rng).extend_left(2)
            out = DensityMatrix(ch.apply_mat(rho.mat), (2, 2))
            assert quantum_mutual_information(out) <= quantum_mutual_information(rho) + ATOL

    def test_p11_joint_convexity_of_relative_entropy(self, rng):
        for _ in range(40):
            lam = float(rng.uniform(0.1, 0.9))
            a1, a2 = (random_density_matrix(2, rng) for _ in range(2))
            b1, b2 = (random_density_matrix(2, rng) for _ in range(2))
            mixed_a = DensityMatrix(lam * a1.mat + (1 - lam) * a2.mat)
            mixed_b = DensityMatrix(lam * b1.mat + (1 - lam) * b2.mat)
            lhs = quantum_relative_entropy(mixed_a, mixed_b)
            rhs = lam * quantum_relative_entropy(a1, b1) + (1 - lam) * quantum_relative_entropy(a2, b2)
            assert lhs <= rhs + ATOL

    def test_p12_monotonicity_of_relative_entropy(self, rng):
        for _ in range(40):
            rho = random_density_matrix(4, rng, dims=(2, 2))
            sigma = random_density_matrix(4, rng, dims=(2, 2))
            local = quantum_relative_entropy(partial_trace(rho, "A"), partial_trace(sigma, "A"))
            joint = quantum_relative_entropy(rho, sigma)
            assert local <= joint + ATOL


class TestMaximalEntropyUniqueness:
    def test_strictly_below_log_d_away_from_identity(self, rng):
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density_matrix(dim, rng)
                gap = np.max(np.abs(rho.mat - np.eye(dim) / dim))
                if gap > 1e-3:
                    assert von_neumann_entropy(rho) < math.log2(dim) - 1e-8


class TestMeasurementEntropy:
    def test_projective_measurement_increases_entropy(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            rho = random_density_matrix(dim, rng)
            p = random_projector(dim, int(rng.integers(1, dim)), rng)
            q = np.eye(dim) - p
            post = DensityMatrix(p @ rho.mat @ p + q @ rho.mat @ q)
            assert von_neumann_entropy(post) >= von_neumann_entropy(rho) - ATOL

    def test_general_measurement_can_decrease_entropy(self):
        rho = DensityMatrix.maximally_mixed(2)
        m1 = outer(KET_0)
        m2 = outer(KET_0, KET_1)
        res = measure(rho, [m1, m2])
        post = DensityMatrix(sum(p * s.mat for p, s in res if s is not None))
        assert von_neumann_entropy(post) == pytest.approx(0.0, abs=ATOL)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=ATOL)


class TestQuantumDataProcessing:
    def test_chain_inequality(self, rng):
        for _ in range(40):
            rho = random_density_matrix(2, rng)
            ch1 = random_channel(2, 2, rng)
            ch2 = random_channel(2, 2, rng)
            i1 = coherent_information(rho, ch1)
            i2 = coherent_information(rho, ch2.compose(ch1))
            assert von_neumann_entropy(rho) >= i1 - ATOL
            assert i1 >= i2 - ATOL
