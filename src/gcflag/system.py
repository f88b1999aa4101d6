"""The Gelfand-Cetlin integrable system on a Hermitian adjoint orbit.

The orbit O_lambda consists of Hermitian matrices with fixed spectrum
lambda.  The system map records, for each ladder box (k, i), the i-th
largest eigenvalue of the upper-left k x k block.  The inverse direction
(fiber_point) rebuilds a matrix with prescribed eigenvalue pattern by
repeatedly bordering a diagonal matrix: if b interlaces a, the arrow
matrix diag(b) with a suitable last row and column has spectrum a.
"""

from ._lazy import lazy

np = lazy("numpy")
HERMITIAN_TOL = 1e-12  # hermitize takes a relative deviation up to this for rounding


def hermitize(m):
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    dev = np.abs(m - m.conj().T).max()
    if dev > HERMITIAN_TOL * max(1.0, np.abs(m).max()):
        raise ValueError("matrix is not Hermitian (deviation %.3e)" % dev)
    return (m + m.conj().T) / 2


def random_orbit_point(lam, seed):
    """U diag(lam) U* for a Haar unitary U drawn deterministically from seed.

    U comes from the QR decomposition of a complex Gaussian matrix with the
    diagonal of R phase-normalized, which makes the distribution Haar.
    """
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    n = len(lam)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return hermitize(q @ np.diag(lam) @ q.conj().T)


def eigenvalues_desc(m):
    return np.linalg.eigvalsh(hermitize(m))[::-1]


def gc_map(x, flag):
    """Coordinates of the eigenvalue pattern of x.

    For every free position (k, i), in free_positions order, this is the
    i-th largest eigenvalue of the upper-left k x k block of x.  flag is a
    FlagType or a GCPolytope, whose coords are that order already.
    """
    from .polytopes import free_positions

    coords = flag.coords if hasattr(flag, "coords") else free_positions(flag)
    if hasattr(flag, "flag"):
        flag = flag.flag
    x = hermitize(x)
    n = flag.n
    if x.shape != (n, n):
        raise ValueError("matrix size does not match the flag")
    spectra = {k: eigenvalues_desc(x[:k, :k]) for k in range(1, n)}
    return np.array([spectra[k][i - 1] for (k, i) in coords])


def arrow_completion(a, b):
    """Hermitian (k+1) x (k+1) matrix diag(b) bordered to have spectrum a.

    The couplings satisfy |x_j|^2 = -prod_i (b_j - a_i) / prod_{i != j}
    (b_j - b_i) and are taken real non-negative; the corner entry is
    sum(a) - sum(b).  Equalities in the interlacing chain are removed by
    deflation first (an eigenvalue equal to some b_j stays put with zero
    coupling), so the product formula never hits 0/0.
    """
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    b = np.sort(np.asarray(b, dtype=float))[::-1]
    k = len(b)
    if len(a) != k + 1:
        raise ValueError("need len(a) = len(b) + 1")
    chain = []
    for j in range(k):
        chain.append(("a%d >= b%d" % (j + 1, j + 1), a[j] - b[j]))
        chain.append(("b%d >= a%d" % (j + 1, j + 2), b[j] - a[j + 1]))
    bad = [name for name, gap in chain if gap < 0]
    if bad:
        raise ValueError("interlacing violated: " + ", ".join(bad))

    m = np.zeros((k + 1, k + 1))
    m[:k, :k] = np.diag(b)
    m[k, k] = a.sum() - b.sum()

    # deflation: match repeated b values against equal a values
    a_left = list(a)
    coupled = []
    for j in range(k):
        if b[j] in a_left:
            a_left.remove(b[j])
        else:
            coupled.append(j)
    # a_left now interlaces the strictly distinct coupled b values strictly
    for j in coupled:
        num = np.prod([b[j] - av for av in a_left])
        den = np.prod([b[j] - b[i] for i in coupled if i != j])
        x2 = -num / den
        if x2 < -1e-12:
            raise ValueError("negative coupling, interlacing inconsistent")
        m[k, j] = m[j, k] = np.sqrt(max(x2, 0.0))
    return m


def fiber_point(poly, u):
    """A Hermitian matrix on the orbit whose eigenvalue pattern is u.

    Builds the k x k blocks inductively: given x^{(k)} with spectrum
    lambda^{(k)}, conjugate to diagonal form, border with arrow_completion
    to reach spectrum lambda^{(k+1)}, and conjugate back.
    """
    u = np.asarray(u, dtype=float)
    if not poly.contains_float(u):
        raise ValueError("point is not in the polytope")
    pat = poly.pattern([round(float(x), 12) for x in u])
    rows = [[float(x) for x in row] for row in reversed(pat)]
    n = poly.flag.n
    x = np.array([[rows[0][0]]], dtype=complex)
    for k in range(1, n):
        vals, vecs = np.linalg.eigh(hermitize(x))
        # clip eigen-solver noise so boundary cases deflate exactly
        a = sorted(rows[k], reverse=True)
        b = list(np.sort(vals)[::-1])
        for j in range(k):
            if b[j] - a[j] > 1e-7 or a[j + 1] - b[j] > 1e-7:
                raise ValueError("interlacing lost while rebuilding")
            b[j] = min(max(b[j], a[j + 1]), a[j])
        order = np.argsort(vals)[::-1]
        vecs = vecs[:, order]
        arrow = arrow_completion(a, b)
        w = np.eye(k + 1, dtype=complex)
        w[:k, :k] = vecs
        x = w @ arrow @ w.conj().T
    return hermitize(x)
