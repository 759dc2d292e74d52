import numpy as np
import pytest

from qinfo import qentropy, states
from qinfo.states import (
    HADAMARD,
    ID2,
    KET_0,
    KET_1,
    KET_PLUS,
    PAULI_X,
    TOL_RECON,
    DensityMatrix,
    QuantumChannel,
    _ordered_sum,
    apply_channel,
    apply_unitary,
    check_measurement,
    clamp_spectrum,
    cyclic_averaging,
    dag,
    depolarizing_channel,
    eig_hermitian,
    identity_channel,
    is_normal,
    is_unitary,
    measure,
    outer,
    partial_trace,
    projective_measurement,
    projector_unitary_mixture,
    purify,
    random_channel,
    random_density_matrix,
    random_projector,
    random_unitary,
    schmidt_decompose,
    tensor_product,
    thermal_state,
)

from conftest import bell_state, random_kraus
from oracles import apply_kraus_loop, ordered_sum_loop


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, dims=(2, 3))

    def test_spectrum_is_kept_read_only(self, rng):
        rho = random_density_matrix(3, rng, rank=2)
        w = rho.eigenvalues()
        assert np.array_equal(w, clamp_spectrum(np.linalg.eigvalsh(rho.mat)[::-1]))
        assert w is rho.eigenvalues() and not w.flags.writeable

    def test_pure_normalises_small_drift(self):
        psi = KET_0 * (1 + 5e-7)
        rho = DensityMatrix.pure(psi)
        assert abs(np.trace(rho.mat) - 1) < 1e-12

    def test_pure_rejects_large_drift(self):
        with pytest.raises(ValueError):
            DensityMatrix.pure(KET_0 * 1.1)


class TestTensorAndTrace:
    def test_mixed_tensor_mixed(self):
        i2 = DensityMatrix.maximally_mixed(2)
        out = tensor_product(i2, i2)
        assert np.allclose(out.mat, np.eye(4) / 4)
        assert out.dims == (2, 2)

    def test_pure_product(self):
        out = tensor_product(DensityMatrix.pure(KET_0), DensityMatrix.pure(KET_1))
        assert np.allclose(out.mat, outer(np.kron(KET_0, KET_1)))

    def test_araki_lieb_fixture_state(self):
        # |0><0| (x) I/2 has the half-half two-block form
        out = tensor_product(DensityMatrix.pure(KET_0), DensityMatrix.maximally_mixed(2))
        expected = 0.5 * outer(np.kron(KET_0, KET_0)) + 0.5 * outer(np.kron(KET_0, KET_1))
        assert np.allclose(out.mat, expected)

    def test_partial_trace_product_state(self):
        # tracing out A keeps B: tr_A |01><01| = |1><1|
        rho = DensityMatrix.pure(np.kron(KET_0, KET_1), dims=(2, 2))
        assert np.allclose(partial_trace(rho, "B").mat, outer(KET_1))
        assert np.allclose(partial_trace(rho, "A").mat, outer(KET_0))

    def test_partial_trace_bell(self):
        rho = DensityMatrix.pure(bell_state(), dims=(2, 2))
        assert np.allclose(partial_trace(rho, "A").mat, np.eye(2) / 2)

    def test_partial_trace_factorises(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, "A").mat, a.mat)
        assert np.allclose(partial_trace(joint, "B").mat, b.mat)

    def test_partial_trace_needs_dims(self):
        with pytest.raises(ValueError):
            partial_trace(DensityMatrix.maximally_mixed(4), "A")


class TestEig:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(3))
        assert np.allclose(w, 1.0)

    def test_pauli_x(self):
        w, v = eig_hermitian(PAULI_X)
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(v @ np.diag(w) @ dag(v), PAULI_X)

    def test_mixture_eigenvalues_match_closed_form(self):
        # eigenvalues of [[p + (1-p)/2, (1-p)/2], [(1-p)/2, (1-p)/2]] at p = 1/2
        p = 0.5
        m = np.array([[p + (1 - p) / 2, (1 - p) / 2], [(1 - p) / 2, (1 - p) / 2]])
        lam1 = (1 + np.sqrt(1 + 2 * p * p - 2 * p)) / 2
        w, _ = eig_hermitian(m)
        assert np.allclose(w, [lam1, 1 - lam1])
        assert np.allclose(w, [0.8535533905932737, 0.14644660940672624])

    def test_reconstruction_random(self, rng):
        m = random_density_matrix(5, rng).mat
        w, v = eig_hermitian(m)
        assert np.max(np.abs(v @ np.diag(w.astype(complex)) @ dag(v) - m)) < TOL_RECON
        assert np.all(np.diff(w) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestUnitaryAndMeasure:
    def test_identity_evolution(self, rng):
        rho = random_density_matrix(3, rng)
        assert np.allclose(apply_unitary(rho, np.eye(3)).mat, rho.mat)

    def test_hadamard_makes_plus(self):
        out = apply_unitary(DensityMatrix.pure(KET_0), HADAMARD)
        assert np.allclose(out.mat, outer(KET_PLUS))

    def test_spectrum_preserved(self, rng):
        rho = random_density_matrix(4, rng)
        u = random_unitary(4, rng)
        assert np.allclose(apply_unitary(rho, u).eigenvalues(), rho.eigenvalues())

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_unitary(random_density_matrix(2, rng), np.eye(3))

    def test_orthogonal_distinguishing(self):
        res = measure(DensityMatrix.pure(KET_0), projective_measurement(ID2))
        assert res[0][0] == pytest.approx(1.0)
        assert res[1][0] == pytest.approx(0.0, abs=1e-12)
        assert res[1][1] is None
        assert np.allclose(res[0][1].mat, outer(KET_0))

    def test_plus_in_computational_basis(self):
        res = measure(DensityMatrix.pure(KET_PLUS), projective_measurement(ID2))
        assert res[0][0] == pytest.approx(0.5)
        assert res[1][0] == pytest.approx(0.5)

    def test_nonselective_general_measurement_purifies(self):
        # M1 = |0><0|, M2 = |0><1| maps I/2 to the pure |0><0|
        m1 = outer(KET_0)
        m2 = outer(KET_0, KET_1)
        res = measure(DensityMatrix.maximally_mixed(2), [m1, m2])
        nonselective = sum(p * st.mat for p, st in res if st is not None)
        assert np.allclose(nonselective, outer(KET_0))

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError):
            measure(DensityMatrix.maximally_mixed(2), [outer(KET_0)])

    def test_nan_operator_rejected(self):
        with pytest.raises(ValueError):
            check_measurement([np.array([[np.nan, 0], [0, 1]])], 2)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            u = random_unitary(3, rng)
            res = measure(rho, projective_measurement(u))
            assert sum(p for p, _ in res) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= -1e-12 for p, _ in res)


class TestChannels:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply_channel(rho, identity_channel(2)).mat, rho.mat)

    def test_full_depolarizing(self, rng):
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply_channel(rho, depolarizing_channel(1.0)).mat, np.eye(2) / 2)

    def test_depolarizing_closed_form(self):
        for f in (0.0, 0.3, 0.7, 1.0):
            out = apply_channel(DensityMatrix.pure(KET_0), depolarizing_channel(f))
            assert np.allclose(out.mat, np.diag([1 - f / 2, f / 2]))

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            QuantumChannel([0.5 * ID2])

    def test_nan_kraus_rejected(self):
        with pytest.raises(ValueError):
            QuantumChannel([np.array([[np.nan, 0], [0, 1]])])

    def test_apply_mat_on_a_stack_matches_each_member(self, rng):
        ch = random_channel(3, 2, rng)
        stack = np.stack([random_density_matrix(3, rng).mat for _ in range(4)])
        out = ch.apply_mat(stack)
        assert out.shape == (4, 3, 3)
        assert all(np.array_equal(o, ch.apply_mat(m)) for o, m in zip(out, stack))

    @pytest.mark.parametrize("din,dout,r", [(2, 2, 4), (3, 3, 9), (4, 4, 2), (2, 3, 2),
                                            (3, 2, 3), (5, 5, 3), (8, 8, 2)])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["single", "stack", "double-stack"])
    def test_apply_mat_bit_identical_to_kraus_loop(self, rng, din, dout, r, lead):
        for _ in range(25):
            ops = random_kraus(din, dout, r, rng)
            ch = QuantumChannel(ops)
            mats = rng.normal(size=lead + (din, din)) + 1j * rng.normal(size=lead + (din, din))
            mats[..., 0, :] = 0.0  # exact-zero rows
            assert ch.apply_mat(mats).tobytes() == apply_kraus_loop(ops, mats).tobytes()

    # the (points, d^2) stacks of the HSW objective, and (3, 2) beside (2, 3)
    @pytest.mark.parametrize("din,dout,r,lead", [(3, 3, 9, (256, 9)), (2, 2, 4, (64, 4)),
                                                 (3, 2, 3, (5,))])
    @pytest.mark.parametrize("layout", ["C", "F", "swapaxes"])
    def test_apply_mat_bit_identical_on_hsw_stacks_in_any_layout(self, rng, din, dout, r,
                                                                 lead, layout):
        for _ in range(3):
            ops = random_kraus(din, dout, r, rng)
            mats = rng.normal(size=lead + (din, din)) + 1j * rng.normal(size=lead + (din, din))
            if layout == "F":
                mats = np.asfortranarray(mats)
            elif layout == "swapaxes":
                mats = mats.swapaxes(-1, -2)
            out = QuantumChannel(ops).apply_mat(mats)
            assert out.tobytes() == apply_kraus_loop(ops, mats).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (4, 2), (3, 3), (2, 2, 4)])
    def test_apply_mat_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"expected shape \(\.\.\., 2, 2\)"):
            depolarizing_channel(0.5).apply_mat(np.zeros(shape))

    @pytest.mark.parametrize("din,dout,r", [(2, 2, 4), (3, 3, 9), (2, 3, 2)])
    def test_apply_channel_bit_identical_to_kraus_loop(self, rng, din, dout, r):
        for rank in range(1, din + 1):
            ops = random_kraus(din, dout, r, rng)
            rho = random_density_matrix(din, rng, rank=rank)
            out = apply_channel(rho, QuantumChannel(ops))
            assert out.mat.tobytes() == apply_kraus_loop(ops, rho.mat).tobytes()

    def test_kraus_stack_is_read_only_and_copied(self, rng):
        ops = random_kraus(2, 2, 3, rng)
        ch = QuantumChannel(ops)
        ops[0][0, 0] = 7.0
        assert ch.kraus[0][0, 0] != 7.0
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 7.0

    def test_inconsistent_output_dimension_rejected(self):
        with pytest.raises(ValueError, match="output dimension"):
            QuantumChannel([np.sqrt(0.5) * ID2, np.sqrt(0.5) * np.eye(3, 2)])

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            ch = random_channel(3, 2, rng)
            out = apply_channel(rho, ch)          # constructor re-validates both
            assert abs(np.trace(out.mat) - 1) < 1e-9


def planted(shape, rng) -> np.ndarray:
    """Complex entries over 16 decades, about a third of their parts +0.0 or -0.0."""
    parts = rng.normal(size=shape + (2,)) * 10.0 ** rng.integers(-8, 9, shape + (2,))
    zero = rng.random(parts.shape) < 0.35
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return parts.view(complex)[..., 0]


def assert_same_bits(got, want):
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestOrderedSum:
    """_ordered_sum adds in operand order: oracles.ordered_sum_loop, byte for byte."""

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2,), (2, 2), (3, 3), (4, 1), (4, 2, 2)])
    def test_stacks_and_lists_of_1_to_16_terms(self, shape, rng):
        # one-entry terms are the case where numpy's own reduce would sum pairwise
        for r in range(1, 17):
            for _ in range(8):
                terms = planted((r,) + shape, rng)
                for given in (terms, list(terms), list(terms.real)):
                    assert_same_bits(_ordered_sum(given), ordered_sum_loop(given))
            # every part -0.0: the sum is +0.0, as adding into a complex zero gives
            negative = np.full((r,) + shape, complex(-0.0, -0.0))
            assert_same_bits(_ordered_sum(negative), ordered_sum_loop(negative))

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "reversed", "strided"])
    def test_any_layout(self, layout, rng):
        for r in range(1, 17):
            for shape in [(1,), (5,), (1, 1), (3, 3)]:
                base = planted((r,) + shape, rng)
                terms = {"fortran": lambda: np.asfortranarray(base),
                         "transposed": lambda: base.T.copy().T,
                         "reversed": lambda: base[::-1].copy()[::-1],
                         "strided": lambda: np.repeat(base, 2, axis=-1)[..., ::2]}[layout]()
                assert_same_bits(_ordered_sum(terms), ordered_sum_loop(base))

    def test_call_sites_keep_their_bits(self, monkeypatch, rng):
        calls = []
        # apply_mat: (r, *lead, d_out, d_out) Kraus terms, a channel to dimension 1 included
        for din, dout, r in [(2, 2, 1), (2, 2, 4), (3, 3, 9), (5, 1, 5), (1, 3, 4), (2, 3, 16)]:
            ch = QuantumChannel(random_kraus(din, dout, r, rng))
            for lead in [(), (1,), (9,), (3, 4)]:
                calls.append((ch.apply_mat, planted(lead + (din, din), rng)))
        # _mix: members first, through a swapped view when a stack axis leads
        for d in (1, 2, 3):
            for m in (1, 4, 9):
                for lead in [(), (1,), (3,), (64,)]:
                    probs = rng.random(lead + (m,))
                    mats = planted(lead + (m, d, d), rng)
                    calls.append((qentropy._mix, probs, mats))
                    if lead:
                        calls.append((qentropy._mix, probs, mats[0]))
        for d in (1, 2, 3, 4):
            u = random_unitary(d, rng)
            normal = u @ np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) @ dag(u)
            calls.append((lambda a: cyclic_averaging(a)[1], normal))
            calls.append((purify, random_density_matrix(d, rng)))
        got = [f(*args) for f, *args in calls]
        monkeypatch.setattr(states, "_ordered_sum", ordered_sum_loop)
        monkeypatch.setattr(qentropy, "_ordered_sum", ordered_sum_loop)
        for g, (f, *args) in zip(got, calls):
            assert_same_bits(g, f(*args))


class TestPurifySchmidt:
    def test_pure_state_purification(self):
        psi = purify(DensityMatrix.pure(KET_0))
        assert abs(abs(np.vdot(np.kron(KET_0, KET_0), psi)) - 1) < 1e-12

    def test_maximally_mixed_gives_bell(self):
        psi = purify(DensityMatrix.maximally_mixed(2))
        assert abs(abs(np.vdot(bell_state(), psi)) - 1) < 1e-12

    def test_round_trip(self, rng):
        for dim in (2, 3, 4):
            rho = random_density_matrix(dim, rng)
            psi = purify(rho)
            back = partial_trace(DensityMatrix.pure(psi, (dim, dim)), "B")
            assert np.max(np.abs(back.mat - rho.mat)) < TOL_RECON

    def test_schmidt_product_state(self):
        s, _, _ = schmidt_decompose(np.kron(KET_0, KET_1), (2, 2))
        assert s[0] == pytest.approx(1.0)
        assert np.all(s[1:] < 1e-12)

    def test_schmidt_bell(self):
        s, _, _ = schmidt_decompose(bell_state(), (2, 2))
        assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_schmidt_reconstruction_and_equal_reductions(self, rng):
        for da, db in ((2, 2), (2, 3), (3, 2)):
            psi = (rng.normal(size=da * db) + 1j * rng.normal(size=da * db))
            psi /= np.linalg.norm(psi)
            s, ua, ub = schmidt_decompose(psi, (da, db))
            rebuilt = sum(s[i] * np.kron(ua[:, i], ub[:, i]) for i in range(min(da, db)))
            assert np.max(np.abs(rebuilt - psi)) < TOL_RECON
            rho = DensityMatrix.pure(psi, (da, db))
            wa = partial_trace(rho, "A").eigenvalues()
            wb = partial_trace(rho, "B").eigenvalues()
            k = min(da, db)
            assert np.allclose(wa[:k], wb[:k], atol=1e-9)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            schmidt_decompose(bell_state(), (2, 3))


class TestThermal:
    def test_infinite_temperature(self):
        out = thermal_state(np.diag([0.0, 1.0]).astype(complex), 0.0)
        assert np.allclose(out.mat, np.eye(2) / 2)

    def test_ground_state_limit(self):
        out = thermal_state(np.diag([0.0, 1.0]).astype(complex), 200.0)
        assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_two_level_occupation(self):
        out = thermal_state(np.diag([0.0, 1.0]).astype(complex), 1.0)
        p0 = 1 / (1 + np.exp(-1.0))
        assert out.mat[0, 0].real == pytest.approx(p0, abs=1e-12)

    def test_commutes_with_hamiltonian(self, rng):
        h = random_density_matrix(4, rng).mat * 4  # any Hermitian works
        out = thermal_state(h, 0.7)
        assert np.max(np.abs(out.mat @ h - h @ out.mat)) < TOL_RECON


class TestCyclicAveraging:
    def test_identity(self):
        us, avg = cyclic_averaging(np.eye(3, dtype=complex))
        assert np.allclose(avg, 3 * np.eye(3))
        assert len(us) == 3

    def test_diag_projector(self):
        _, avg = cyclic_averaging(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(avg, np.eye(2))

    def test_random_normal_matrices(self, rng):
        for dim in (2, 3, 4, 5):
            u = random_unitary(dim, rng)
            d = np.diag(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            a = u @ d @ dag(u)
            us, avg = cyclic_averaging(a)
            assert np.max(np.abs(avg - np.trace(a) * np.eye(dim))) < TOL_RECON
            assert all(is_unitary(x) for x in us)

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            cyclic_averaging(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("eps", [3e-5, 1e-5, 2e-7])
    def test_rejects_nearly_normal_input_whose_average_misses(self, eps):
        # the commutator of [[0, eps], [0, 0]] is eps^2, inside is_normal's
        # 1e-9, but the average misses tr(a) I = 0 by eps
        a = np.array([[0, eps], [0, 0]], dtype=complex)
        assert is_normal(a)
        with pytest.raises(ValueError, match="misses tr"):
            cyclic_averaging(a)

    @staticmethod
    def spectrum(kind: str, d: int, rng) -> np.ndarray:
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        if kind == "repeated":     # exactly equal eigenvalues, drawn from a few
            return rng.choice(z[:rng.integers(1, d)], size=d)
        if kind == "cluster":      # all within 1e-14 ... 1e-4 of one point
            gaps = 10.0 ** rng.uniform(-14, -4, size=d)
            return z[0] + gaps * np.exp(2j * np.pi * rng.uniform(size=d))
        if kind == "hermitian":    # real, with repeats
            return rng.choice(np.round(rng.normal(size=d), 1), size=d).astype(complex)
        return z

    @pytest.mark.parametrize("kind", ["generic", "repeated", "cluster", "hermitian"])
    def test_eigenvectors_by_qr_diagonalise_degenerate_spectra(self, kind, rng):
        for _ in range(300):
            d = int(rng.integers(2, 9))
            u = random_unitary(d, rng)
            a = u @ np.diag(self.spectrum(kind, d, rng)) @ dag(u)
            us, avg = cyclic_averaging(a)
            assert len(us) == d
            assert np.max(np.abs(avg - np.trace(a) * np.eye(d))) <= 1e-12
            assert max(np.max(np.abs(x @ dag(x) - np.eye(d))) for x in us) <= 1e-12


class TestProjectorMixture:
    def test_full_projector(self):
        u1, u2, w = projector_unitary_mixture(np.eye(2, dtype=complex))
        assert w == 0.5
        assert np.allclose(u1, -np.eye(2))
        assert np.allclose(u2, np.eye(2))

    def test_qubit_fixture(self):
        u1, _, _ = projector_unitary_mixture(outer(KET_0))
        assert np.allclose(u1, np.diag([-1.0, 1.0]))
        rho = outer(KET_PLUS)
        p = outer(KET_0)
        q = ID2 - p
        mixture = 0.5 * u1 @ rho @ dag(u1) + 0.5 * rho
        assert np.allclose(mixture, p @ rho @ p + q @ rho @ q)
        assert np.allclose(mixture, np.eye(2) / 2)

    def test_random_projectors(self, rng):
        for dim in (2, 3, 4):
            rank = int(rng.integers(1, dim))
            p = random_projector(dim, rank, rng)
            q = np.eye(dim) - p
            u1, u2, w = projector_unitary_mixture(p)
            rho = random_density_matrix(dim, rng).mat
            lhs = p @ rho @ p + q @ rho @ q
            rhs = w * (u1 @ rho @ dag(u1)) + (1 - w) * (u2 @ rho @ dag(u2))
            assert np.max(np.abs(lhs - rhs)) < TOL_RECON
            assert is_unitary(u1) and is_unitary(u2)

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            projector_unitary_mixture(0.5 * np.eye(2, dtype=complex))


def test_generated_unitaries_really_unitary(rng):
    for dim in (2, 3, 5):
        assert is_unitary(random_unitary(dim, rng))
    w, v = eig_hermitian(random_density_matrix(4, rng).mat)
    assert is_unitary(v)
