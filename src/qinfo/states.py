"""Density matrices, measurements and quantum channels on small Hilbert spaces.

Everything here works on dense complex numpy arrays and is meant for desk-scale
dimensions (d <= 64).  States are immutable once constructed; all operations are
pure functions returning new objects, so values can be shared freely between
threads or processes.

Conventions fixed once and used everywhere:

* logarithms are base 2 and ``0 * log 0 == 0``,
* in a tensor product the *left* factor is subsystem A and owns the
  slowest-varying (most significant) index, exactly as ``numpy.kron``,
* eigenvalues are reported in descending order.

NumPy is the only dependency, so ``cyclic_averaging`` diagonalises with it too.
"""

from __future__ import annotations

import numpy as np

from . import _check

# Numerical tolerances.  Double precision with headroom for eigendecompositions
# up to dimension 64.
TOL_NORM = 1e-9    # trace / probability normalisation
TOL_HERM = 1e-9    # Hermiticity
TOL_UNIT = 1e-8    # unitarity / Kraus completeness
TOL_EIG = 1e-9     # eigenvalue positivity slack
TOL_RECON = 1e-7   # reconstruction identities
TOL_PROB = 1e-12   # probabilities treated as zero

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET_0 + KET_1) / np.sqrt(2)
KET_MINUS = (KET_0 - KET_1) / np.sqrt(2)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-dimensional space."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def outer(psi: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """|psi><phi| (|psi><psi| when phi is omitted)."""
    if phi is None:
        phi = psi
    return np.outer(psi, np.conj(phi))


def is_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= tol


def is_unitary(u: np.ndarray, tol: float = TOL_UNIT) -> bool:
    d = u.shape[0]
    return u.shape == (d, d) and np.max(np.abs(u @ dag(u) - np.eye(d))) <= tol


def is_projector(p: np.ndarray, tol: float = TOL_RECON) -> bool:
    return is_hermitian(p, tol) and np.max(np.abs(p @ p - p)) <= tol


def is_normal(m: np.ndarray, tol: float = TOL_HERM) -> bool:
    return np.max(np.abs(m @ dag(m) - dag(m) @ m)) <= tol


class DensityMatrix:
    """A positive semidefinite, unit-trace complex matrix.

    ``dims`` optionally records a tensor factorisation of the carrier space
    (product of the entries must equal ``dim``); it is required by the partial
    trace and the bipartite entropy measures.

    Invariants checked at construction: Hermitian within ``TOL_HERM``, unit
    trace within ``TOL_NORM``, and all eigenvalues >= ``-TOL_EIG``.  The
    spectrum is computed once, by that check, and kept read-only for
    ``eigenvalues()``.
    """

    __slots__ = ("mat", "dims", "_spectrum")

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...] | None = None):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TOL_NORM:
            raise ValueError(f"density matrix trace is {float(tr)}, expected 1")
        w = np.linalg.eigvalsh(m)
        if dims is not None:
            dims = tuple(int(_check.integer(d, "subsystem dim", 1)) for d in dims)
            if int(np.prod(dims)) != m.shape[0]:
                raise ValueError(f"subsystem dims {dims} do not multiply to {m.shape[0]}")
        m.setflags(write=False)
        self.mat = m
        self.dims = dims
        self._spectrum = clamp_spectrum(w[::-1])
        self._spectrum.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, amplitudes: np.ndarray, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        """Density matrix |psi><psi| of a normalised state vector."""
        return cls(outer(_unit_vector(amplitudes)), dims)

    @classmethod
    def maximally_mixed(cls, dim: int, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        return cls(np.eye(_check.integer(dim, "dim", 1), dtype=complex) / dim, dims)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, negative dust clamped to zero."""
        return self._spectrum

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def as_density(rho) -> DensityMatrix:
    """rho itself if it is a DensityMatrix, else a new one (no dims) validated from an array."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def _unit_vector(amplitudes) -> np.ndarray:
    """Flat complex vector of unit norm (within 1e-6), renormalised exactly."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state vector norm is {float(norm)}, expected 1")
    return psi / norm


def _bipartite(rho) -> DensityMatrix:
    """rho as a DensityMatrix, which must carry exactly two subsystem dims."""
    rho = as_density(rho)
    if rho.dims is None or len(rho.dims) != 2:
        raise ValueError(f"state must carry two subsystem dims, got {rho.dims}")
    return rho


def _ordered_sum(terms) -> np.ndarray:
    """terms[0] + terms[1] + ..., added in that order into a complex zero.

    The one accumulation behind channel outputs, mixtures and measurement sums,
    so each adds its terms in operand order and keeps its bits.  numpy reduces
    axis 0 term by term only while another axis runs innermost; along the
    innermost axis it sums pairwise.  So each complex entry is read as its
    (real, imaginary) pair, a last axis of length 2 that always runs innermost,
    whatever the layout or the term size.  The + 0.0 gives an entry that sums
    to -0.0 the +0.0 that adding into a complex zero gives, whether numpy
    starts the reduction at its identity or at the first term.
    """
    pairs = np.asarray(terms, dtype=complex)[..., None].view(float)
    return np.add.reduce(pairs, axis=0).view(complex)[..., 0] + 0.0


def clamp_spectrum(w: np.ndarray, tol: float = TOL_EIG) -> np.ndarray:
    """Zero out eigenvalues in [-tol, 0); values below -tol are a hard error."""
    if w.min() < -tol:
        raise ValueError(f"eigenvalue {float(w.min())} below -{tol}")
    return np.where(w < 0.0, 0.0, w)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and unitary
    ``v`` whose columns are the matching eigenvectors, so that
    ``m == v @ diag(w) @ v.conj().T`` within TOL_RECON.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def tensor_product(a, b) -> DensityMatrix:
    """Kronecker product of two states, each coerced by ``as_density``.

    The result is a DensityMatrix whose ``dims`` is the concatenation of the
    factors' dims (each factor defaulting to its own full dimension).
    """
    a, b = as_density(a), as_density(b)
    return DensityMatrix(np.kron(a.mat, b.mat), (a.dims or (a.dim,)) + (b.dims or (b.dim,)))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced state of one half of a bipartite system.

    ``keep`` is "A" (left factor) or "B" (right factor); the other subsystem is
    traced out.  The input must carry exactly two subsystem dims.
    """
    rho = _bipartite(rho)
    da, db = rho.dims
    t = rho.mat.reshape(da, db, da, db)
    if keep == "A":
        red = np.trace(t, axis1=1, axis2=3)
    elif keep == "B":
        red = np.trace(t, axis1=0, axis2=2)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(red)


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """U rho U^dagger.  Trace and spectrum are preserved."""
    return apply_channel(rho, unitary_channel(u))


def check_measurement(operators: list[np.ndarray], dim: int) -> None:
    """Raise unless each M_m is dim x dim and sum_m M_m^dagger M_m == I (completeness)."""
    if any(np.shape(m) != (dim, dim) for m in operators):
        raise ValueError(f"measurement operators must be {dim} x {dim}")
    QuantumChannel(operators)   # completeness is the Kraus trace-preservation rule


def measure(rho: DensityMatrix, operators: list[np.ndarray]) -> list[tuple[float, DensityMatrix | None]]:
    """General measurement {M_m} on a state.

    Returns one ``(probability, post_state)`` pair per operator, where
    ``p(m) = tr(M_m rho M_m^dagger)`` and the post state is
    ``M_m rho M_m^dagger / p(m)``.  Outcomes with probability below TOL_PROB
    carry ``None`` in place of the (undefined) post state.  The probabilities
    sum to 1 within TOL_NORM.
    """
    rho = as_density(rho)
    check_measurement(operators, rho.dim)
    results = []
    for m in operators:
        m = np.asarray(m, dtype=complex)
        out = m @ rho.mat @ dag(m)
        p = float(np.trace(out).real)
        if p < TOL_PROB:
            results.append((max(p, 0.0), None))
        else:
            results.append((p, DensityMatrix(out / p, rho.dims)))
    return results


def projective_measurement(basis: np.ndarray) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of a unitary basis matrix."""
    return [outer(basis[:, i]) for i in range(basis.shape[1])]


class QuantumChannel:
    """A trace-preserving quantum operation given by Kraus operators.

    ``kraus`` is a list of dim_out x dim_in matrices with
    ``sum_i E_i^dagger E_i == I``; the channel acts as
    ``rho -> sum_i E_i rho E_i^dagger``.  The operators are stacked once into a
    read-only (r, dim_out, dim_in) array and their daggers into an (r, dim_in,
    dim_out) one, the two operands of ``apply_mat``'s stacked products.
    """

    __slots__ = ("kraus", "_stack", "_stack_dag")

    def __init__(self, kraus: list[np.ndarray]):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        din = ops[0].shape[1]
        if any(k.shape != ops[0].shape for k in ops):
            raise ValueError("Kraus operators have inconsistent input or output dimension")
        stack = np.array(ops)
        # each dagger is a transposed view of a conjugate, laid out as dag(k)
        stack_dag = np.conj(stack).transpose(0, 2, 1)
        if not np.max(np.abs(_ordered_sum(stack_dag @ stack) - np.eye(din))) <= TOL_UNIT:
            raise ValueError("Kraus operators are not trace preserving")
        stack.setflags(write=False)
        stack_dag.setflags(write=False)
        self.kraus = list(stack)
        self._stack = stack
        self._stack_dag = stack_dag

    @property
    def dim_in(self) -> int:
        return self._stack.shape[2]

    @property
    def dim_out(self) -> int:
        return self._stack.shape[1]

    def apply_mat(self, mat: np.ndarray) -> np.ndarray:
        """sum_i E_i mat E_i^dagger on a matrix or a stack of matrices (..., d, d).

        Two stacked products replace the 2*r*N small ones of r operators on N
        members.  The left product multiplies the Kraus stack, read as one
        (r*dim_out, dim_in) matrix, by each member; the right product
        multiplies each operator's (N*dim_out, dim_in) block by its dagger.
        ``_ordered_sum`` then adds the r terms in Kraus order.  Both products
        stack rows of the left operand, never columns, which leaves each
        entry's arithmetic unchanged, so the result is bit-identical to
        ``out = 0; for k in kraus: out += k @ mat @ dag(k)``; the tests pin
        this against that loop.
        """
        mat = np.asarray(mat)
        k, k_dag = self._stack, self._stack_dag
        (r, dout, din), lead = k.shape, mat.shape[:-2]
        if mat.shape[-2:] != (din, din):
            raise ValueError(f"expected shape (..., {din}, {din}), got {mat.shape}")
        left = k.reshape(r * dout, din) @ mat.reshape(-1, din, din)
        left = left.reshape(-1, r, dout, din).swapaxes(0, 1).reshape(r, -1, din)
        return _ordered_sum((left @ k_dag).reshape((r,) + lead + (dout, dout)))

    def compose(self, inner: "QuantumChannel") -> "QuantumChannel":
        """Channel equal to self applied after ``inner``."""
        if inner.dim_out != self.dim_in:
            raise ValueError("channel dimensions do not chain")
        return QuantumChannel([a @ b for a in self.kraus for b in inner.kraus])

    def extend_left(self, dim_ancilla: int) -> "QuantumChannel":
        """I_ancilla (x) channel, acting on an enlarged space."""
        eye = np.eye(dim_ancilla, dtype=complex)
        return QuantumChannel([np.kron(eye, k) for k in self.kraus])


def apply_channel(rho: DensityMatrix, op: QuantumChannel) -> DensityMatrix:
    """sum_i E_i rho E_i^dagger as a validated DensityMatrix."""
    rho = as_density(rho)
    if op.dim_in != rho.dim:
        raise ValueError(f"channel input dim {op.dim_in} != state dim {rho.dim}")
    dims = rho.dims if op.dim_out == rho.dim else None
    return DensityMatrix(op.apply_mat(rho.mat), dims)


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim, dtype=complex)])


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    if not is_unitary(np.asarray(u, dtype=complex)):
        raise ValueError("matrix is not unitary")
    return QuantumChannel([np.asarray(u, dtype=complex)])


def depolarizing_channel(f: float) -> QuantumChannel:
    """Qubit channel rho -> (1-f) rho + f I/2, in Pauli Kraus form."""
    _check.real(f, "f", 0, 1)
    return QuantumChannel([
        np.sqrt(1.0 - 3.0 * f / 4.0) * ID2,
        np.sqrt(f / 4.0) * PAULI_X,
        np.sqrt(f / 4.0) * PAULI_Y,
        np.sqrt(f / 4.0) * PAULI_Z,
    ])


def purify(rho: DensityMatrix) -> np.ndarray:
    """Canonical purification of rho on R (x) Q.

    Returns the vector ``sum_i sqrt(w_i) |i_R>|v_i>`` built from the
    eigendecomposition (eigenvalues descending), living in a space of
    dimension ``dim**2`` with the reference system R on the left.  Tracing out
    R recovers rho.
    """
    rho = as_density(rho)
    w, v = eig_hermitian(rho.mat)
    w = clamp_spectrum(w)
    d = rho.dim
    return _ordered_sum([np.sqrt(w[i]) * np.kron(ket(i, d), v[:, i])
                         for i in range(d) if w[i] > 0.0])


def schmidt_decompose(psi: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a bipartite pure state.

    Returns ``(coeffs, basis_a, basis_b)`` with nonnegative coefficients in
    descending order satisfying ``sum coeffs**2 == 1`` and
    ``psi == sum_i coeffs[i] * kron(basis_a[:, i], basis_b[:, i])``.
    """
    psi = _unit_vector(psi)
    da, db = int(dims[0]), int(dims[1])
    if da * db != psi.size:
        raise ValueError(f"dims {dims} do not match a vector of length {psi.size}")
    m = psi.reshape(da, db)
    u, s, vh = np.linalg.svd(m)
    return s, u, vh.T


def thermal_state(h: np.ndarray, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H) / tr exp(-beta H) of a Hamiltonian.

    beta = 0 gives the maximally mixed state; large beta concentrates on the
    ground space.  Computed in the eigenbasis with the spectrum shifted for
    numerical stability, so it commutes with H by construction.
    """
    _check.real(beta, "beta", 0)
    h = np.asarray(h, dtype=complex)
    w, v = eig_hermitian(h)
    logits = -beta * (w - w.min())
    p = np.exp(logits)
    p /= p.sum()
    return DensityMatrix(v @ np.diag(p.astype(complex)) @ dag(v))


def _cyclic_shift(d: int, shift: int) -> np.ndarray:
    """Permutation unitary sending diagonal entry (k+shift) mod d to slot k."""
    v = np.zeros((d, d), dtype=complex)
    for k in range(d):
        v[k, (k + shift) % d] = 1.0
    return v


def cyclic_averaging(a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Unitaries whose conjugation average scrambles a normal matrix to tr(a) I.

    For a d x d normal matrix returns ``(unitaries, average)`` with d unitaries
    ``U_i`` such that ``average == sum_i U_i a U_i^dagger == tr(a) * I`` within
    TOL_RECON.  Each U_i composes one cyclic permutation of the diagonal with
    the diagonalising unitary: the eigenvectors of a, orthonormalised by QR.
    Eigenspaces of a normal matrix are orthogonal, so QR keeps each in its own.
    The commutator test passes some nearly normal matrices, so the average
    itself is checked too: ValueError when it misses tr(a) I by more.
    """
    a = np.asarray(a, dtype=complex)
    if not is_normal(a):
        raise ValueError("cyclic_averaging requires a normal matrix")
    d = a.shape[0]
    z = np.linalg.qr(np.linalg.eig(a)[1])[0]   # a = z diag z^dagger
    unitaries = [_cyclic_shift(d, i) @ dag(z) for i in range(d)]
    average = _ordered_sum([u @ a @ dag(u) for u in unitaries])
    miss = float(np.max(np.abs(average - np.trace(a) * np.eye(d))))
    if miss > TOL_RECON:
        raise ValueError(f"cyclic_averaging requires a normal matrix: the average misses "
                         f"tr(a) I by {miss:.3g}")
    return unitaries, average


def projector_unitary_mixture(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Write the projective map P.P + Q.Q as an equal mixture of two unitaries.

    Returns ``(u1, u2, 0.5)`` with ``u1 = Q - P`` and ``u2 = I`` so that for
    every state ``P rho P + Q rho Q == (u1 rho u1^dagger + u2 rho u2^dagger)/2``
    where ``Q = I - P``.
    """
    p = np.asarray(p, dtype=complex)
    if not is_projector(p):
        raise ValueError("input is not a projector")
    d = p.shape[0]
    eye = np.eye(d, dtype=complex)
    return eye - 2.0 * p, eye, 0.5


# Random objects for property tests and stochastic estimators.  All take an
# explicit numpy Generator so results are reproducible per seed.

def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure state via a normalised complex normal vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Ginibre matrix, phases fixed)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None,
                          dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Random mixed state G G^dagger / tr with a complex Ginibre factor G."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ dag(g)
    return DensityMatrix(m / np.trace(m).real, dims)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random rank-dimensional subspace."""
    u = random_unitary(dim, rng)
    return u[:, :rank] @ dag(u[:, :rank])


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> QuantumChannel:
    """Random trace-preserving channel from a Haar-random isometry.

    The isometry V : dim -> dim * n_kraus is the first block-column of a random
    unitary; slicing it into dim x dim blocks yields the Kraus operators.
    """
    big = random_unitary(dim * n_kraus, rng)
    iso = big[:, :dim]
    return QuantumChannel([iso[i * dim:(i + 1) * dim, :] for i in range(n_kraus)])
