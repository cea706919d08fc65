"""A reference for `gram_schmidt` in module-vector arithmetic, independent
of fockmod's flat orthogonalization, and the support of a basis vector."""

import numpy as np


def reference_gram_schmidt(X, drop_tol=None):
    """Modified Gram-Schmidt in module-vector arithmetic: the pieces
    x.e_qq orthogonalized against every vector found so far, twice."""
    X = [x for x in X]
    if not X:
        return []
    module = X[0].parent
    base = module.base
    scale = max([x.norm() for x in X] + [1.0])
    if drop_tol is None:
        drop_tol = 1e-8 * scale
    pieces = []
    for x in X:
        for j, n in enumerate(base.block_sizes):
            for q in range(n):
                pieces.append((x.rmul(base.matrix_unit(j, q, q)), j, q))
    V = []
    for w, j, q in pieces:
        for _ in range(2):
            for v in V:
                w = w - v.rmul(module.inner(v, w))
        t = w.blocks[j][:, q]
        length = float(np.linalg.norm(t))
        # w = w.e_{qq}, so <w,w> = |col|^2 e_qq and the module norm is |col|
        if length <= drop_tol:
            continue
        V.append(w * (1.0 / length))
    return V


def support(v):
    """The (component, column) pairs where v is nonzero."""
    return [(j, q) for j, c in enumerate(v.blocks)
            for q in range(c.shape[1]) if np.any(c[:, q] != 0)]
