"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the package's incremental construction: classes are
computed by global union-find over all words of a given length, divisors by
scanning all factorizations of all representatives, kernel Gram entries by
expanding the kernel power series with dict convolution, and sup norms by a
dense grid on the circle. The table oracles are the package's former
all-pairs, all-triples and per-s cofactor loops over a table's products,
and its per-letter image of a word under a controlled map: slow, but they
test the definitions directly rather than their Cayley-graph and
divisor-closure reductions. ``loop_multiplication`` is the package's
former entry-by-entry multiplication operator, ``free_symmetric_compression``
builds the Drury-Arveson shifts from the free monoid's left regular
representation, sharing no code with the monomial norms, and
``scipy_algebra`` is the package's former scipy.sparse operator algebra and
``scipy_operator_norm`` its former norm routine, which formed the Gram matrix
through a dense array or a scipy.sparse view of the operator.
``operator_fell_check`` is the package's former Fell certificate, which
composed the intertwiner with the shifts through the generic operator product,
and ``pairwise_nesting`` the former ``divisor-nesting`` check, one subset test
per pair (p, r in R_p). ``left_divisor_fill`` is the table's former L_p fill,
which stored every left divisor set, and ``compression_rows`` the former
compression to Y_F, one multiplication and one basis lookup per (s, r).
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.sparse


def _find(parent, w):
    root = w
    while parent[root] != root:
        root = parent[root]
    while parent[w] != root:
        parent[w], w = root, parent[w]
    return root


def brute_classes(ngen: int, relations, n: int) -> dict:
    """Congruence classes of ALL words of length n, via union-find closure."""
    words = list(product(range(ngen), repeat=n))
    parent = {w: w for w in words}
    rewrites = []
    for lhs, rhs in relations:
        rewrites.append((tuple(lhs), tuple(rhs)))
        rewrites.append((tuple(rhs), tuple(lhs)))
    changed = True
    while changed:
        changed = False
        for w in words:
            for u, v in rewrites:
                k = len(u)
                for i in range(n - k + 1):
                    if w[i : i + k] == u:
                        w2 = w[:i] + v + w[i + k :]
                        ra, rb = _find(parent, w), _find(parent, w2)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
                            changed = True
    classes: dict = {}
    for w in words:
        classes.setdefault(_find(parent, w), set()).add(w)
    return {min(v): v for v in classes.values()}


def brute_counts(ngen: int, relations, L: int) -> list[int]:
    return [len(brute_classes(ngen, relations, n)) for n in range(L + 1)]


def brute_canonical_map(ngen: int, relations, n: int) -> dict:
    out = {}
    for canon, cls in brute_classes(ngen, relations, n).items():
        for w in cls:
            out[w] = canon
    return out


def brute_right_divisors(ngen: int, relations, p_word: tuple) -> set:
    """Canonical words r such that p = q*r for some word q, by scanning all
    splittings of all representatives of p's class."""
    n = len(p_word)
    canon_n = brute_canonical_map(ngen, relations, n)
    p_canon = canon_n[tuple(p_word)]
    reps = [w for w, c in canon_n.items() if c == p_canon]
    canon_by_len = {k: brute_canonical_map(ngen, relations, k) for k in range(n + 1)}
    out = set()
    for w in reps:
        for i in range(n + 1):
            out.add(canon_by_len[n - i][w[i:]])
    return out


def brute_left_divisors(ngen: int, relations, p_word: tuple) -> set:
    n = len(p_word)
    canon_n = brute_canonical_map(ngen, relations, n)
    p_canon = canon_n[tuple(p_word)]
    reps = [w for w, c in canon_n.items() if c == p_canon]
    canon_by_len = {k: brute_canonical_map(ngen, relations, k) for k in range(n + 1)}
    out = set()
    for w in reps:
        for i in range(n + 1):
            out.add(canon_by_len[i][w[:i]])
    return out


def table_divisors(table, p) -> tuple[set, set]:
    """(R_p, L_p) by scanning every product q*r of length at most |p|."""
    rights, lefts = set(), set()
    for q in table.elements_up_to(p.length):
        for r in table.elements_up_to(p.length - q.length):
            if table.multiply(q, r) == p:
                rights.add(r)
                lefts.add(q)
    return rights, lefts


def left_divisor_fill(table, n: int) -> list:
    """L_p as index sets, listed by index p up to length n: level by level, {p}
    joined with the sets of the x with x.g = p one level down."""
    sets = [frozenset((0,))]
    for m in range(1, n + 1):
        level = table.by_length[m]
        preds = [[] for _ in level]
        for x in table.by_length[m - 1]:
            for q in table._right[x]:
                preds[q - level.start].append(sets[x])
        sets.extend(ps[0].union((q,), *ps[1:]) for q, ps in zip(level, preds))
    return sets


def pairwise_nesting(table, R, L: int):
    """The first (p, r) with r in R_p but R_r not inside R_p, over p of length at
    most L in index order and the least such r, or None when the sets are nested."""
    for p in range(table.by_length[L].stop):
        bad = [r for r in R[p] if not R[r] <= R[p]]
        if bad:
            return p, min(bad)
    return None


def compression_rows(sub, s) -> list:
    """Row array of the compression of lambda_s to Y_F: the position of s*r in
    Y_F for each label r with |s| + |r| <= max|F|, or -1."""
    table, top = sub.table, sub.max_length - s.length
    return [sub.basis.find(table.multiply(s, r).index) if r.length <= top else -1
            for r in map(table.element, sub.basis.labels)]


def word_image(phi, p):
    """phi(p) as the package's former per-letter loop: the target product of
    the generator images along the canonical word of p."""
    out = phi.target.identity
    for g in p.word:
        out = phi.target.multiply(out, phi.gen_images[g])
    return out


def table_cancellative(table) -> bool:
    """xy = xz => y = z and yx = zx => y = z over all pairs within the bound."""
    for x in table.elements:
        ys = table.elements_up_to(table.L - x.length)
        if len({table.multiply(x, y) for y in ys}) != len(ys):
            return False
        if len({table.multiply(y, x) for y in ys}) != len(ys):
            return False
    return True


def table_associative(table) -> bool:
    """(xy)z = x(yz) over all triples with |x|+|y|+|z| <= L."""
    for x in table.elements:
        for y in table.elements_up_to(table.L - x.length):
            for z in table.elements_up_to(table.L - x.length - y.length):
                if table.multiply(table.multiply(x, y), z) != table.multiply(x, table.multiply(y, z)):
                    return False
    return True


def table_coinvariant(table, labels, s) -> bool:
    """lambda_s* maps span{e_r : r in labels} into itself: for each r = s*t,
    the cofactor t (found by scanning every product s*t of length |r|) is in
    labels."""
    inside = set(labels)
    for r in map(table.element, labels):
        k = r.length - s.length
        for t in map(table.element, table.by_length[k] if k >= 0 else ()):
            if table.multiply(s, t) == r and t.index not in inside:
                return False
    return True


def circle_sup_norm(phi, points: int = 4096) -> float:
    """Grid sup of a one-variable polynomial on the unit circle."""
    thetas = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    return float(max(abs(phi((np.exp(1j * t),))) for t in thetas))


def kernel_gram_norms(d: int, c, degree: int) -> dict:
    """Monomial norms from the kernel power series itself.

    Expand sum_n c_n <z, w>^n with exponent-dict convolution: the coefficient
    of z^alpha conj(w)^alpha gives the reciprocal of ||z^alpha||^2.
    """
    base = {tuple(1 if j == i else 0 for j in range(d)): 1.0 for i in range(d)}
    power = {tuple(0 for _ in range(d)): 1.0}
    norms = {tuple(0 for _ in range(d)): 1.0 / np.sqrt(c(0))}
    for n in range(1, degree + 1):
        new = {}
        for a, ca in power.items():
            for b, cb in base.items():
                ab = tuple(x + y for x, y in zip(a, b))
                new[ab] = new.get(ab, 0.0) + ca * cb
        power = new
        for alpha, m in power.items():
            norms[alpha] = 1.0 / np.sqrt(c(n) * m)
    return norms


def gram_operator_norm(entries: np.ndarray) -> float:
    """Largest singular value via the eigenvalues of the Gram matrix A*A."""
    gram = entries.conj().T @ entries
    return float(np.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0)))


def loop_multiplication(kernel, phi, dom, cod):
    """Multiplication by phi, one entry at a time: the row of alpha + beta by
    ``Basis.find`` and c ||z^(alpha+beta)|| / ||z^alpha|| as a Python scalar."""
    from semifd import SparseOperator, monomial_norm

    norms = [monomial_norm(kernel, a) for a in cod.labels]
    entries = {}
    for col, alpha in enumerate(dom.labels):
        for beta, c in phi.coeffs.items():
            row = cod.find(tuple(x + y for x, y in zip(alpha, beta)))
            if row >= 0:
                entries[(row, col)] = c * norms[row] / norms[col]
    return SparseOperator(dom, cod, entries)


def free_symmetric_compression(d: int, coeffs: dict, D: int, labels) -> np.ndarray:
    """sum_alpha c_alpha lambda_(w_alpha) on the depth-D ball of the free monoid
    on d letters, w_alpha = g_1^alpha_1 ... g_d^alpha_d, compressed to the unit
    vectors u_gamma = (sum of e_w over words w with letter counts gamma) / sqrt
    (number of them), one per exponent vector in ``labels``. By Arveson (Acta
    Math. 181, 1998) span{u_gamma} is the symmetric Fock space, that is the
    Drury-Arveson space, with u_gamma the normalised monomial z^gamma."""
    import semifd as sf

    top = D + max(sum(a) for a in coeffs)
    table = sf.enumerate_monoid(sf.free(d), top)
    counts = sf.enumerate_monoid(sf.nat(d), top)
    ab = sf.abelianization(table, counts)
    ball = len(table.elements_up_to(D))
    U = np.zeros((ball, len(labels)))
    for j, gamma in enumerate(labels):
        fiber = ab.fiber(counts.element_from_word(tuple(i for i in range(d) for _ in range(gamma[i]))))
        U[[p.index for p in fiber], j] = 1 / np.sqrt(len(fiber))
    a = np.zeros((ball, ball), dtype=complex)
    for alpha, c in coeffs.items():
        w = table.element_from_word(tuple(i for i in range(d) for _ in range(alpha[i])))
        a += c * sf.lambda_op(table, w, D).to_dense()[:ball]  # P_D lambda_w on the ball
    return U.T @ a @ U


def scipy_canonical(a) -> scipy.sparse.csr_array:
    """a as a csr array with sorted indices, duplicates summed and zeros dropped."""
    a = scipy.sparse.csr_array(a)
    a.sum_duplicates()
    a.eliminate_zeros()
    return a


def scipy_algebra(A, B, C, c) -> dict:
    """A @ C, A + B, c A, A* and A (x) C by scipy.sparse, each canonical, for
    csr arrays A and B of one shape, C with A's column count of rows, and a scalar c."""
    return {
        "matmul": scipy_canonical(A @ C),
        "add": scipy_canonical(A + B),
        "scale": scipy_canonical(A * c),
        "adjoint": scipy_canonical(A.conj().T),
        "tensor": scipy_canonical(scipy.sparse.kron(A, C, format="csr")),
    }


def scipy_operator_norm(A, tol: float = 1e-9, max_words: int | None = None) -> float:
    """The package's former ``operator_norm``, verbatim: the same certified
    bracket, with A*A formed by dense numpy (m n <= 4096) or scipy.sparse."""
    from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

    from semifd.errors import InvariantError, ResourceLimitError

    def _band(kd, n, dtype):
        return np.zeros((kd + 1, n), dtype=dtype, order="F")

    if A.is_zero():
        return 0.0
    n = A.domain.dim
    csr = scipy.sparse.csr_array((A.data, A.indices, A.indptr), shape=(A.codomain.dim, n))  # the former A.csr()
    M = A.to_dense() if n * A.codomain.dim <= 4096 else csr  # sparse overhead would swamp small ones
    M = M if A.data.imag.any() else M.real
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is refused below
        G, v = scipy.sparse.coo_array(M.conj().T @ M), np.random.default_rng(0).standard_normal(n)
    kd = int(abs(G.row.astype(np.int64) - G.col).max())
    if max_words is not None and (kd + 1) * n > max_words:
        raise ResourceLimitError("Gram band of %d x %d words exceeds cap %d" % (kd + 1, n, max_words))
    band, low = _band(kd, n, G.dtype), G.row >= G.col
    band[G.row[low] - G.col[low], G.col[low]] = G.data[low]
    if not np.isfinite(band).all():
        raise InvariantError("norm not certified: A*A has a non-finite entry")
    if n <= 64:
        theta0 = np.linalg.eigvalsh(G.toarray())[-1]
    elif kd <= 8:
        theta0 = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(n - 1, n - 1))[0]
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # a 16-ms import, for d >= 2 only

        try:
            theta0 = eigsh(G.tocsr(), k=1, which="LA", return_eigenvectors=False, v0=v)[0]
        except ArpackNoConvergence:
            raise InvariantError("norm not certified: Lanczos did not converge")
    band *= -1
    band[0] += (mu0 := theta0 * (1 + 1e-12))
    c, k2 = (2.0, 2) if M.dtype.kind == "c" else (1.0, 0)  # complex arithmetic: 2 gamma_(k+2)
    gam = lambda k, u=2.0**-53: c * (k + k2) * u / (1 - c * (k + k2) * u)  # noqa: E731
    diag, gram_err = band[0].real, gam(np.bincount(A.indices).max()) * (abs(M).T @ (abs(M) @ np.ones(n))).max()
    mu = mu0 * (1 + 2.0**-53) + gam(kd + 2) / (1 - gam(kd + 2)) * min(diag.sum(), (2 * kd + 1) * diag.max())
    mu = (mu + gram_err) * (1 + gam(n + 3))  # the last factor covers rounding in mu's own sums
    try:
        chol = cholesky_banded(band, lower=True, overwrite_ab=True)
    except np.linalg.LinAlgError:
        raise InvariantError("norm not certified: mu I - A*A is not definite at mu = %r" % mu0)
    for _ in range(3):
        v = cho_solve_banded((chol, True), v)
        v /= np.linalg.norm(v)
    ext, uL = (np.clongdouble if c > 1 else np.longdouble), np.finfo(np.longdouble).epsneg
    Mx, vx, sq = M.astype(ext), v.astype(ext), lambda x: (x.real**2 + x.imag**2).sum()
    y = Mx @ vx
    r = gam(np.diff(A.indptr).max(), uL) * np.sqrt(sq(abs(Mx) @ abs(vx)) / sq(y))  # bounds |Av - y| / |y|
    theta = sq(y) / sq(vx) * (1 - r) ** 2 * (1 - gam(4 * n + 16, uL))
    if not (width := float(np.sqrt(mu / theta)) - 1) <= tol:
        raise InvariantError("norm not certified: bracket width %.3e > tol %.3e" % (width, tol))
    return float(np.sqrt(theta))


def operator_fell_check(phi, L_P: int, L_Q: int):
    """The package's former ``fell_intertwiner``: W*W against the identity and
    W_up (lambda_p (x) I) against (lambda_p (x) lambda_phi(p)) W as operators,
    both products by ``SparseOperator.__matmul__``. Returns (W, report)."""
    import semifd as sf
    from semifd.coaction import fell_intertwiner_at
    from semifd.errors import InvariantError

    W = fell_intertwiner_at(phi, L_P, L_Q)
    report = {"L_P": L_P, "L_Q": L_Q}
    if W.adjoint() @ W != sf.identity_operator(W.domain):
        raise InvariantError("Fell intertwiner is not an isometry")
    report["isometry"] = "exact"
    growth = max(img.length for img in phi.gen_images)  # |phi(p)| <= growth |p|
    W_up = fell_intertwiner_at(phi, L_P + 1, L_Q)
    shift_id = sf.identity_operator(sf.graded_basis(phi.target, L_Q))
    intertwined = []
    for g, name in enumerate(phi.source.presentation.generators):
        p = phi.source.element_from_word((g,))
        lam_p = sf.lambda_op(phi.source, p, L_P)
        lhs = W_up @ lam_p.tensor(shift_id)
        V_p = sf.lambda_op(phi.target, phi(p), L_Q + growth * L_P, L_cod=L_Q + growth * (L_P + 1))
        if lhs != lam_p.tensor(V_p) @ W:
            raise InvariantError("Fell intertwining fails for generator %s" % phi.source.str_of(p))
        intertwined.append(name)
    report["intertwined_generators"] = intertwined
    return W, report


def dense_covariance_errors(kernel, phi, D: int) -> tuple[list[float], float]:
    """The ``circle-covariance`` check's former dense loop: for each 8th root of
    unity zeta, the largest entry of |G* M G - M_rot| on degree <= min(D, 8), with
    G = diag(zeta^|alpha|) and M_rot the compression of phi rotated by conj(zeta),
    and the bound 1e-12 max(1, m) the check holds them to."""
    from semifd import funcalg

    basis = funcalg.fock_basis(kernel, min(D, 8))
    M = funcalg.multiplication(kernel, phi, basis, basis).to_dense()
    degrees = np.array([sum(a) for a in basis.labels])
    bound = 1e-12 * max(1.0, float(abs(M.view(float)).max()))  # relative to M's largest re or im part
    errs = []
    for k in range(8):
        zeta = complex(np.exp(2j * np.pi * k / 8))
        G = zeta**degrees
        rotated = funcalg.circle_action(phi, zeta.conjugate())
        rhs = funcalg.multiplication(kernel, rotated, basis, basis).to_dense()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite err fails below
            errs.append(float(np.abs(G.conj()[:, None] * M * G - rhs).max()))
    return errs, bound
