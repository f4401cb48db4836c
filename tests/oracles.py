"""Independent brute-force implementations used as oracles in the tests.

Everything here is written with plain Python loops over frame indices and
never calls into the package, so agreement with the library is meaningful.
"""
import numpy as np


def sym_product_loops(h, k):
    n = h.shape[0]
    out = np.zeros((n, n, n, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    out[x, y, z, w] = h[x, y] * k[z, w] + h[z, w] * k[x, y]
    return out


def kulkarni_loops(h, k):
    s = sym_product_loops(h, k)
    n = h.shape[0]
    out = np.zeros((n, n, n, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    out[x, y, z, w] = s[x, z, y, w] - s[x, w, y, z]
    return out


def bianchi_loops(q):
    n = q.shape[0]
    out = np.zeros((n, n, n, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    out[x, y, z, w] = q[x, y, z, w] + q[z, x, y, w] + q[y, z, x, w]
    return out


def ricci_loops(q):
    n = q.shape[0]
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            out[x, y] = sum(q[i, x, i, y] for i in range(n))
    return out


def hat_trace_loops(q):
    n = q.shape[0]
    return 0.5 * sum(q[a, b, a, b] for a in range(n) for b in range(n))


def unhat_loops(op, n):
    """Rebuild the 4-tensor from its wedge-basis operator grid: entry
    (row, col) sits at slots (col pair, row pair), then antisymmetrize."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    q = np.zeros((n, n, n, n))
    for col, (a, b) in enumerate(pairs):
        for row, (c, d) in enumerate(pairs):
            q[a, b, c, d] = op[row, col]
    q = q - q.transpose(1, 0, 2, 3)
    q = q - q.transpose(0, 1, 3, 2)
    return q


def conj_loops(q, P, Q_second=None):
    """Replace both slot pairs by P-conjugated arguments."""
    n = q.shape[0]
    out = np.zeros((n, n, n, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    acc = 0.0
                    for a in range(n):
                        for b in range(n):
                            acc += P[a, x] * P[b, y] * q[a, b, z, w]
                    out[x, y, z, w] = acc
    return out


def split_plus_loops(q, P):
    """The +1 projection of the averaging over P-conjugation in both pairs."""
    q1 = conj_loops(q, P)
    q2 = np.einsum("zwxy->xyzw", conj_loops(np.einsum("zwxy->xyzw", q), P))
    q12 = np.einsum("zwxy->xyzw", conj_loops(np.einsum("zwxy->xyzw", q1), P))
    return 0.25 * (q + q1 + q2 + q12)


def su11_oracle():
    """Hand bracket computation in the 3-dimensional matrix algebra of
    signature (1,1): returns the frame curvature component, the squared
    curvature norm, the scalar curvature and the two rigidity constants.
    """
    T = np.array([[1j, 0], [0, -1j]])
    P1 = np.array([[0, 1], [1, 0]], dtype=complex)
    P2 = np.array([[0, 1j], [-1j, 0]])
    basis = [T, P1, P2]

    def brk(a, b):
        return a @ b - b @ a

    def coords(m):
        # expand in the basis by matching the four complex entries
        flat = np.array([b.flatten() for b in basis]).T
        sol, *_ = np.linalg.lstsq(flat, m.flatten(), rcond=None)
        assert np.max(np.abs(sol.imag)) < 1e-12
        return sol.real

    ad = []
    for X in basis:
        cols = [coords(brk(X, Y)) for Y in basis]
        ad.append(np.array(cols).T)
    ad = np.array(ad)
    beta = np.array([[np.trace(ad[i] @ ad[j]).real for j in range(3)] for i in range(3)])

    # beta = diag(-8, 8, 8); adapted frame e = P1/sqrt(8), Je = P2/sqrt(8)
    e = P1 / np.sqrt(beta[1, 1])
    Je = P2 / np.sqrt(beta[2, 2])

    def beta_of(m1, m2):
        c1, c2 = coords(m1), coords(m2)
        return float(c1 @ beta @ c2)

    # R(X,Y,Z,W) = beta([X,Y],[Z,W]) on the 2-dimensional horizontal frame
    frame = [e, Je]
    R = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    R[a, b, c, d] = beta_of(brk(frame[a], frame[b]), brk(frame[c], frame[d]))

    component = R[0, 1, 0, 1]
    norm2 = 0.125 * float(np.einsum("abcd,abcd->", R, R))
    scalar = float(sum(R[i, x, i, x] for i in range(2) for x in range(2)))
    c0_prime = -4.0 * norm2 / scalar
    # traceless symmetric 2x2 grids [[a, b], [b, -a]]: the curvature action
    # multiplies both by the single frame component, so kappa = component
    s1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    s2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    ratios = []
    for s in (s1, s2):
        rs = np.zeros((2, 2))
        for x in range(2):
            for y in range(2):
                rs[x, y] = sum(R[i, x, y, j] * s[i, j] for i in range(2) for j in range(2))
        ratios.append(np.sum(rs * s) / np.sum(s * s))
    kappa = min(ratios)
    return component, norm2, scalar, c0_prime, kappa
