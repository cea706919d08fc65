"""Dense references for `TensorStep`, built from the definition of the
simple tensor rather than from the step itself: the matrix S of the step and
the matrix of k -> h (x) k.  fockmod itself reads S only through
`TensorStep.nonzeros`.

Component j of T = H (x)_B K has rows (k, t, a): base block k, copy t below
the left multiplicity of K at (j, k), row a of component k of H.  A simple
tensor lands there as

    T_j[(k,t,a), q] = sum_p h_k[a, p] (U_j^K^* k_j)[(k,t,p), q],

U_j^K the left unitary of K at j."""

import numpy as np


def _simple_tensors(H, K, h_flat, Ks):
    """Flat h (x) k for one flat h of H and the rows Ks of flat K, one row of
    flat T per row of Ks, by explicit loops over K's left multiplicities."""
    sizes = H.base.block_sizes
    comps = []
    for j, n_j in enumerate(sizes):
        k_j = Ks[:, K.offsets[j]:K.offsets[j + 1]].reshape(
            len(Ks), K.right_mult[j], n_j)
        Ut = K.left_unitaries[j].conj().T @ k_j
        rows, p0 = [], 0
        for k, c in enumerate(K.left_mult[j]):
            n_k = sizes[k]
            h_k = h_flat[H.offsets[k]:H.offsets[k + 1]].reshape(
                H.right_mult[k], n_k)
            for t in range(c):
                rows.append(h_k @ Ut[:, p0:p0 + n_k])
                p0 += n_k
        T_j = np.concatenate(rows, axis=1) if rows else np.zeros(
            (len(Ks), 0, n_j), complex)
        comps.append(T_j.reshape(len(Ks), -1))
    return np.concatenate(comps, axis=1)


def tensor_apply(step, h_flat):
    """Matrix of k -> class(h (x) k), shape (dim T, dim K)."""
    K = step.K
    return _simple_tensors(step.H, K, np.asarray(h_flat, complex),
                           np.eye(K.dim, dtype=complex)).T


def tensor_matrix(step):
    """Dense map kron(flat H, flat K) -> flat T: column (i, l) is
    e_i (x) e_l."""
    return np.hstack([tensor_apply(step, e)
                      for e in np.eye(step.H.dim, dtype=complex)])
