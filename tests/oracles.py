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


def random_curv4_loop(d, tags, seed):
    """The alternating-projection loop that once produced random curvature
    tensors, on the adapted frame with torsion: the requested projectors in
    a fixed order, for up to 200 rounds, until a round moves q by less than
    1e-15.  Returns the result scaled to max-abs 1, or None if it vanishes."""
    n = 2 * d
    J = np.zeros((n, n))
    J[d:, :d] = np.eye(d)
    J[:d, d:] = -np.eye(d)
    omega = J.T
    tau = np.diag(np.concatenate([np.ones(d), -np.ones(d)]))

    def sym(h, k):
        prod = np.einsum("xy,zw->xyzw", h, k)
        return prod + prod.transpose(2, 3, 0, 1)

    def split(q, P, sign):
        q1 = np.einsum("ax,by,abzw->xyzw", P, P, q)
        q2 = np.einsum("cz,dw,xycd->xyzw", P, P, q)
        q12 = np.einsum("cz,dw,xycd->xyzw", P, P, q1)
        return 0.25 * (q + sign * q1 + sign * q2 + q12)

    def bianchi(q):
        b = q + np.einsum("zxyw->xyzw", q) + np.einsum("yzxw->xyzw", q)
        return q - b / 3.0

    def primitive(q):
        qw = 0.5 * np.einsum("ijxy,ij->xy", q, omega)
        lam = 0.5 * np.sum(qw * J.T)
        return q - sym(qw, omega) / d + lam * sym(omega, omega) / (2.0 * d * d)

    steps = {
        "pair_symmetric": lambda q: 0.5 * (q + q.transpose(2, 3, 0, 1)),
        "j_plus": lambda q: split(q, J, +1),
        "j_minus": lambda q: split(q, J, -1),
        "tau_plus": lambda q: split(q, tau, +1),
        "tau_minus": lambda q: split(q, tau, -1),
        "bianchi_closed": bianchi,
        "primitive": primitive,
    }
    q = np.random.default_rng(seed).standard_normal((n,) * 4)
    q = 0.5 * (q - q.transpose(1, 0, 2, 3))
    q = 0.5 * (q - q.transpose(0, 1, 3, 2))
    for _ in range(200):
        prev = q
        for tag, step in steps.items():
            if tag in tags:
                q = step(q)
        if np.max(np.abs(q - prev)) < 1e-15:
            break
    scale = np.max(np.abs(q))
    return None if scale < 1e-10 else q / scale


# The multi-operand einsum strings that the package once evaluated in one
# call each; the package now contracts one slot at a time.  The adapted
# frame is orthonormal, so the metric is the identity throughout.

def pullback4_einsum(q, D):
    return np.einsum("ax,by,cz,dw,abcd->xyzw", D, D, D, D, q)


def split_average_einsum(q, P, sign):
    q1 = np.einsum("ax,by,abzw->xyzw", P, P, q)
    q2 = np.einsum("cz,dw,xycd->xyzw", P, P, q)
    q12 = np.einsum("cz,dw,xycd->xyzw", P, P, q1)
    return 0.25 * (q + sign * q1 + sign * q2 + q12)


def two_tensor_j_split_einsum(J, s):
    js = np.einsum("ax,by,ab...->xy...", J, J, s)
    return 0.5 * (s + js), 0.5 * (s - js)


def sectional_einsum(q, X, Y):
    num = np.einsum("xyzw,x,y,z,w->", q, X, Y, X, Y)
    return num / ((X @ X) * (Y @ Y) - (X @ Y) ** 2)


def complex_sectional_einsum(q, Z, W):
    num = np.einsum("xyzw,x,y,z,w->", q, Z, W, Z.conj(), W.conj())
    den = np.real(Z @ Z.conj()) * np.real(W @ W.conj()) - abs(Z @ W.conj()) ** 2
    return num.real / den


def sample_curvatures_loop(q, J, n, seed):
    """The (min, max) ranges of n sectional, holomorphic (X, JX) and complex
    sectional planes, drawn one plane at a time from default_rng(seed) in
    that order.  A plane whose Gram determinant is <= 1e-14 is dropped and
    the next draw replaces it."""
    rng = np.random.default_rng(seed)
    dim = q.shape[0]

    def sectional_plane():
        X = rng.standard_normal(dim)
        Y = rng.standard_normal(dim)
        return X, Y, sectional_einsum

    def holomorphic_plane():
        X = rng.standard_normal(dim)
        return X, J @ X, sectional_einsum

    def complex_plane():
        Z = rng.standard_normal(dim)
        Z = Z + 1j * rng.standard_normal(dim)
        W = rng.standard_normal(dim)
        W = W + 1j * rng.standard_normal(dim)
        return Z, W, complex_sectional_einsum

    out = {}
    for name, draw in (
        ("sectional", sectional_plane),
        ("holomorphic", holomorphic_plane),
        ("complex_sectional", complex_plane),
    ):
        vals = []
        while len(vals) < n:
            X, Y, value = draw()
            gram = np.real(X @ X.conj()) * np.real(Y @ Y.conj()) - abs(X @ Y.conj()) ** 2
            if gram > 1e-14:
                vals.append(value(q, X, Y))
        out[name] = (min(vals), max(vals))
    return out


def model_curvature_einsum(p_frame, structure, killing, metric_scale):
    W = np.einsum("ai,bj,ijk->abk", p_frame, p_frame, structure)
    return metric_scale * np.einsum("abk,kl,cel->abce", W, killing, W)


def curvature_terms_einsum(q, D, J_target):
    """(r20, r11, hbk, k) of a target tensor q along the differential D."""
    d = D.shape[1] // 2
    Z = np.zeros((d, 2 * d), dtype=complex)  # Z_i = (e_i - sqrt(-1) Je_i)/sqrt(2)
    Z[:, :d] = np.eye(d) / np.sqrt(2.0)
    Z[:, d:] = -1j * np.eye(d) / np.sqrt(2.0)
    Zc = Z.conj()
    pull = pullback4_einsum(q, D)
    r20 = np.einsum("abcd,ia,jb,ic,jd->", pull, Z, Z, Zc, Zc).real
    r11 = np.einsum("abcd,ia,jb,ic,jd->", pull, Z, Zc, Zc, Z).real
    U = D[:, :d]
    JU = J_target @ U
    hbk = np.einsum("abcd,ai,bi,cj,dj->", q, U, JU, U, JU)
    k = np.einsum("abcd,ai,bj,ci,dj->", q, U, U, U, U)
    return r20, r11, hbk, k


def rel_err(a, b):
    """Max-abs difference relative to max(1, max |b|)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
