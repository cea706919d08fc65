"""Dense references for `TensorStep`, built from its broadcast `tensor`:
the matrix S of the step and the matrix of k -> h (x) k.  fockmod itself
reads S only through `TensorStep.nonzeros`."""

import numpy as np


def tensor_apply(step, h_flat):
    """Matrix of k -> class(h (x) k), shape (dim T, dim K)."""
    return step.tensor(np.asarray(h_flat)[None],
                       np.eye(step.K.dim, dtype=complex)).T


def tensor_matrix(step):
    """Dense map kron(flat H, flat K) -> flat T: column (i, l) is
    e_i (x) e_l."""
    pairs = step.tensor(np.eye(step.H.dim, dtype=complex)[:, None],
                        np.eye(step.K.dim, dtype=complex)[None])
    return pairs.reshape(-1, step.module.dim).T
