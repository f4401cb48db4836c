"""Independent brute-force implementations used as oracles in the tests.

Everything here is written with plain Python loops over frame indices and
never calls into the package, so agreement with the library is meaningful;
only `structure_triples` builds the package's record of structure constants,
to hand an edited dense C back to it.
"""
import math

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
MASK = 2**64 - 1


def mix64(z):
    """SplitMix64's finalizer on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class ReferenceStream:
    """The random stream of one seed as the README states it, one draw at a time
    in Python ints and `math`: key = mix64(key + gamma + part) folded over the
    seed's parts from 0, draw c = mix64(key + (c + 1) gamma), u = (draw >> 11)
    2**-53, normal = sqrt(-2 ln(1 - u0)) cos(2 pi u1) from its own two draws.
    Its methods return what the package's streams return for one seed: arrays
    with a leading axis of length 1."""

    def __init__(self, seed):
        key = 0
        for part in seed if isinstance(seed, tuple) else (seed,):
            key = mix64((key + GAMMA + part) & MASK)
        self.key, self.used = key, 0

    def uniform_draw(self):
        self.used += 1
        return (mix64((self.key + self.used * GAMMA) & MASK) >> 11) * 2.0**-53

    def normal_draw(self):
        u0, u1 = self.uniform_draw(), self.uniform_draw()
        return math.sqrt(-2.0 * math.log1p(-u0)) * math.cos(2.0 * math.pi * u1)

    def normals(self, *shapes):
        out = []
        for shape in shapes:
            shape = tuple(np.atleast_1d(shape))
            out.append(np.array([self.normal_draw() for _ in range(math.prod(shape))]).reshape(1, *shape))
        return out

    def integers(self, high):
        return np.array([math.floor(self.uniform_draw() * high)])

    def uniform(self, low, high):
        return np.array([low + (high - low) * self.uniform_draw()])


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
    q = ReferenceStream(seed).normals((n,) * 4)[0][0]
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


# The plane oracles compute in extended precision (a float64 input converts
# exactly), so their own rounding, and the cancellation in the Gram
# determinant |X|^2 |Y|^2 - |<X, conj Y>|^2, stay far below the 1e-12 bounds.

def _extended(*arrays):
    return [np.asarray(a, dtype=np.clongdouble if np.iscomplexobj(a) else np.longdouble) for a in arrays]


def gram_extended(X, Y):
    X, Y = _extended(X, Y)
    return np.real(X @ X.conj()) * np.real(Y @ Y.conj()) - abs(X @ Y.conj()) ** 2


def sectional_einsum(q, X, Y):
    q, X, Y = _extended(q, X, Y)
    num = np.einsum("xyzw,x,y,z,w->", q, X, Y, X, Y)
    return float(num / gram_extended(X, Y))


def complex_pairing_einsum(q, Z, W):
    """q(Z, W, conj Z, conj W); not real when q is not pair symmetric."""
    q, Z, W = _extended(q, Z, W)
    return complex(np.einsum("xyzw,x,y,z,w->", q, Z, W, Z.conj(), W.conj()))


def complex_sectional_einsum(q, Z, W):
    return complex_pairing_einsum(q, Z, W).real / float(gram_extended(Z, W))


def sample_curvatures_loop(q, J, n, seed, stream=None):
    """The (min, max) ranges of n sectional, holomorphic (X, JX) and complex
    sectional planes, drawn one plane at a time, in that order, from the
    seed's `ReferenceStream` (or from `stream`, which serves `normals` as it
    does).  A plane whose Gram determinant is <= 1e-14 is dropped and the
    next draw replaces it."""
    if stream is None:
        stream = ReferenceStream(seed)
    dim = q.shape[0]

    def normals():
        return stream.normals(dim)[0][0]

    def sectional_plane():
        X = normals()
        Y = normals()
        return X, Y, sectional_einsum

    def holomorphic_plane():
        X = normals()
        return X, J @ X, sectional_einsum

    def complex_plane():
        Z = normals()
        Z = Z + 1j * normals()
        W = normals()
        W = W + 1j * normals()
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
            if gram_extended(X, Y) > 1e-14:
                vals.append(value(q, X, Y))
        out[name] = (min(vals), max(vals))
    return out


def structure_constants_einsum(mats):
    """Structure constants C[i, j, k] ([b_i, b_j] = sum_k C[i, j, k] b_k) and
    the Killing form tr(ad b_i ad b_j) of a basis of (N, m, m) matrices, by
    unoptimised einsums and a pseudo-inverse of the flattened basis."""
    N = mats.shape[0]
    pinv = np.linalg.pinv(mats.reshape(N, -1).T)
    brackets = np.einsum("iab,jbc->ijac", mats, mats)
    brackets = brackets - np.einsum("jiac->ijac", brackets)
    C = np.einsum("ka,ija->ijk", pinv, brackets.reshape(N, N, -1))
    ads = np.einsum("ijk->ikj", C)
    return C, np.einsum("iab,jba->ij", ads, ads)


def structure_constants_dense(mats):
    """The dense (N, N, N) structure constants of an (N, m, m) basis, one bracket row
    i < j at a time through the pseudo-inverse of the flattened basis, rounded to
    integers and filled in antisymmetrically; ValueError unless every row rebuilds
    its brackets exactly."""
    N = mats.shape[0]
    flat = mats.reshape(N, -1)
    pinv = np.linalg.pinv(flat.T)
    C = np.zeros((N, N, N))
    for i in range(N - 1):
        half = (mats[i] @ mats[i + 1 :] - mats[i + 1 :] @ mats[i]).reshape(N - 1 - i, -1)
        coords = np.rint(half @ pinv.T)
        if np.any(coords @ flat != half):
            raise ValueError(f"the brackets of row {i} do not close on the basis")
        C[i, i + 1 :] = coords
        C[i + 1 :, i] = -coords
    return C


def dense_structure(C):
    """The dense (N, N, N) array of structure-constant triples (a model's `structure`)."""
    out = np.zeros((C.dim,) * 3)
    out[C.i, C.j, C.k] = C.v
    return out


def structure_triples(C):
    """The package's triples of a dense (N, N, N) C, such as an edited `dense_structure`."""
    from pherm.liemodels import _Triples

    i, j, k = np.nonzero(C)
    return _Triples(i, j, k, C[i, j, k], C.shape[0])


def structure_constants_loops(mats):
    """Structure constants C[i, j, k] ([b_i, b_j] = sum_k C[i, j, k] b_k) of
    a basis of (N, m, m) matrices: one matrix product per ordered pair, and
    the coordinates of all N^2 brackets from one least-squares solve."""
    N = mats.shape[0]
    brackets = np.zeros((N * N, mats[0].size))
    for i in range(N):
        for j in range(N):
            brackets[i * N + j] = (mats[i] @ mats[j] - mats[j] @ mats[i]).ravel()
    coords, *_ = np.linalg.lstsq(mats.reshape(N, -1).T, brackets.T, rcond=None)
    return coords.T.reshape(N, N, N)


def adapted_frame_loop(G, Jp, d):
    """The G-orthonormal frame (e_1..e_d, Je_1..Je_d) of p from the standard
    basis, one vector at a time by Gram-Schmidt against every vector found
    so far, twice; None if fewer than d vectors survive."""
    P = G.shape[0]
    es: list[np.ndarray] = []
    js: list[np.ndarray] = []
    for k in range(P):
        v = np.zeros(P)
        v[k] = 1.0
        for _ in range(2):  # re-orthogonalize for numerical safety
            for u in es + js:
                v = v - (u @ G @ v) * u
        nrm2 = v @ G @ v
        if nrm2 < 1e-10:
            continue
        e = v / np.sqrt(nrm2)
        es.append(e)
        js.append(Jp @ e)
        if len(es) == d:
            break
    if len(es) != d:
        return None
    return np.array(es + js)  # (2d, P)


def traceless_sym_basis(n):
    """Orthonormal (Frobenius) basis of traceless symmetric n x n grids."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -float(k)
        mats.append(np.diag(diag) / np.sqrt(k * (k + 1.0)))
    return np.array(mats)


def kappa_dense(q):
    """Lowest eigenvalue of the form s -> sum_ixyj R(e_i, X, Y, e_j) s_ij s_xy
    on the dense traceless symmetric basis."""
    n = q.shape[0]
    basis = traceless_sym_basis(n)  # (m, n, n)
    T = np.einsum("ixyj->xyij", q).reshape(n * n, n * n)
    flat = basis.reshape(len(basis), -1)
    M = flat @ T @ flat.T
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def kappa_four_gathers(q):
    """kappa's quadratic form gathered from the grid symmetrised in (x, y) and in (i, j)
    separately, four (P, P) gathers, on the pair basis with a Helmert block for the
    traceless diagonals; its lowest eigenvalue."""
    n = q.shape[0]
    xo, yo = np.triu_indices(n, 1)
    x, y = np.concatenate([xo, np.arange(n)]), np.concatenate([yo, np.arange(n)])
    H = np.tril(np.ones((n - 1, n))) - np.diag(np.arange(1.0, n), 1)[:-1]
    H /= np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))[:, None]
    xa, ya = x[:, None], y[:, None]
    S = 0.25 * ((q[xa, x, y, ya] + q[xa, y, x, ya]) + (q[ya, x, y, xa] + q[ya, y, x, xa]))
    k = len(xo)
    M = np.empty((k + n - 1,) * 2)
    M[:k, :k] = 2.0 * S[:k, :k]
    M[:k, k:] = np.sqrt(2.0) * S[:k, k:] @ H.T
    M[k:, :k] = np.sqrt(2.0) * H @ S[k:, :k]
    M[k:, k:] = H @ S[k:, k:] @ H.T
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def killing_form_einsum(C):
    """tr(ad b_i ad b_j) from structure constants C[i, j, k], ad_i[k, j] = C[i, j, k],
    as one optimised two-operand einsum over the transposed view."""
    ads = np.einsum("ijk->ikj", C)
    return np.einsum("iab,jba->ij", ads, ads, optimize=True)


# The expression forms of the grid kernels that now compute in place: each
# binary step makes a fresh array, in the same arithmetic order.

def antisym_pairs_expr(q, rows=slice(None)):
    q = 0.5 * (q[..., rows, :, :, :] - np.einsum("...yxzw->...xyzw", q[..., rows, :, :]))
    return 0.5 * (q - np.einsum("...xywz->...xyzw", q))


def pair_sym_expr(q, rows=slice(None)):
    return 0.5 * (q[..., rows, :, :, :] + np.einsum("...zwxy->...xyzw", q[..., rows, :]))


def bianchi_expr(q, rows=slice(None)):
    b = q[..., rows, :, :, :] + np.einsum("...zxyw->...xyzw", q[..., rows, :, :])
    return b + np.einsum("...yzxw->...xyzw", q[..., rows, :])


def bianchi_project_expr(q):
    return q - bianchi_expr(q) / 3.0


def model_curvature_einsum(p_frame, structure, killing):
    W = np.einsum("ai,bj,ijk->abk", p_frame, p_frame, structure)
    return np.einsum("abk,kl,cel->abce", W, killing, W)


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


def q_curvature_einsum(Q, q, D):
    """(1/8) sum Q . phi^*q: the pairing of a source weight Q with the
    pullback of a target tensor q along the differential D."""
    return 0.125 * float(np.einsum("abcd,abcd->", Q, pullback4_einsum(q, D)))


def reeb_residual_loops(Q, F, v, plus):
    """|<T^ F, F> - sign tr(Q^) |v|^2| with T = b(Q) - Q, sign -1 for the
    J-invariant weights (plus) and +1 otherwise, for a 2-form-valued F of
    shape (n, n, k); <s, t> = (1/2) sum s t and (T^ F)(X, Y) =
    (1/2) sum_ij T(e_i, e_j, X, Y) F_ij."""
    n, k = F.shape[0], F.shape[2]
    T = bianchi_loops(Q) - Q
    lhs = 0.0
    for x in range(n):
        for y in range(n):
            for c in range(k):
                tf = 0.5 * sum(T[i, j, x, y] * F[i, j, c] for i in range(n) for j in range(n))
                lhs += 0.5 * tf * F[x, y, c]
    rhs = (-1.0 if plus else 1.0) * hat_trace_loops(Q) * float(v @ v)
    return abs(lhs - rhs)


def holonomy_commutant_kron(q):
    """Joint commutant dimension of the endomorphisms E = q[x, y].T (x < y):
    the null space of the stacked Kronecker system [E (x) I - I (x) E^T],
    with singular values at or below 1e-9 * max(1, sigma_max) counted as zero."""
    n = q.shape[0]
    ident = np.eye(n)
    rows = [np.kron(q[x, y].T, ident) - np.kron(ident, q[x, y]) for x in range(n) for y in range(x + 1, n)]
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return int(n * n - np.sum(sv > 1e-9 * max(1.0, sv[0])))


def rel_err(a, b):
    """Max-abs difference relative to max(1, max |b|)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
