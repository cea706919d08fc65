"""Numerical verification of Hilbert-bimodule, Fock-space, crossed-product
and free-product operator identities at finite dimension and truncation."""
