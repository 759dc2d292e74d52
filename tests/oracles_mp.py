"""40-digit mpmath references for the library's floating-point kernels.

Each reference reads its float inputs as the exact binary values they hold
and carries every step at ``DIGITS`` significant digits, so its result is
the true value of the quantity at those inputs to far more digits than a
double holds.  A test measures the library's error against it; unlike the
bit-for-bit oracles of ``oracles.py``, these say how close a number is to
the truth, so a change that moves bits can be judged by whether they moved
toward it.
"""

from mpmath import mp

DIGITS = 40


def _entropy_bits(mat) -> "mp.mpf":
    """-tr(rho log2 rho) of a Hermitian mp.matrix from its eigenvalues.

    Eigenvalues at or below 0 add nothing: a rank-deficient output's zero
    eigenvalues come out as dust of about 10^-DIGITS either side of 0.
    """
    return -mp.fsum(x * mp.log(x, 2) for x in mp.eighe(mat, eigvals_only=True) if x > 0)


def holevo_chi(kraus, weights, vecs) -> "mp.mpf":
    """chi of the channel outputs of the pure-state ensemble {weights[x], vecs[x]}.

    ``kraus`` is the channel's Kraus operators and ``vecs`` the unnormalised
    state vectors, each normalised here; the weights are used as given.
    """
    with mp.workdps(DIGITS):
        ops = [mp.matrix(k.tolist()) for k in kraus]
        outputs = []
        for v in vecs:
            u = mp.matrix([[complex(a)] for a in v])
            rho = u * u.H / mp.fsum(abs(a) ** 2 for a in u)
            outputs.append(sum((k * rho * k.H for k in ops[1:]), ops[0] * rho * ops[0].H))
        probs = [mp.mpf(float(p)) for p in weights]
        mixture = sum((p * out for p, out in zip(probs[1:], outputs[1:])), probs[0] * outputs[0])
        return _entropy_bits(mixture) - mp.fsum(p * _entropy_bits(out)
                                                for p, out in zip(probs, outputs))


def von_neumann_entropy(mat) -> "mp.mpf":
    """S(rho) in bits of a density matrix given as a complex array."""
    with mp.workdps(DIGITS):
        return _entropy_bits(mp.matrix(mat.tolist()))


def relative_entropy(rho, sigma) -> "mp.mpf":
    """S(rho || sigma) in bits, for a full-rank sigma: -S(rho) - tr(rho log2 sigma),
    the second term summed over sigma's eigenvectors."""
    with mp.workdps(DIGITS):
        r = mp.matrix(rho.tolist())
        w, v = mp.eighe(mp.matrix(sigma.tolist()))
        cross = mp.fsum(mp.re((v.column(j).H * r * v.column(j))[0]) * mp.log(w[j], 2)
                        for j in range(len(w)))
        return -_entropy_bits(r) - cross
