"""Numerical verification of Hilbert-bimodule, Fock-space, crossed-product
and free-product operator identities at finite dimension and truncation."""

from .cstar import (AlgebraAutomorphism, AlgebraElement, CPLinearMap,
                    CStarAlgebra, ConditionalExpectation, StateFunctional,
                    StructureError, PreconditionError, UnitalHomomorphism)
from .hilbmod import (AugmentedModule, HilbertBimodule, ModuleVector,
                      SubmoduleSpan, TensorStep, cp_bimodule, direct_sum,
                      gns_bimodule, gram_schmidt, make_bimodule,
                      submodule_projection, trivial_module)
from .fock import (FockSpace, LevelOp, creation_relations_check,
                   fock_factorization_check, ideal_structure_check,
                   isometric_vector, masked_norm, quotient_dimension_check,
                   toeplitz_endomorphism, word)
from .crossed import (CrossedProduct, FiniteGroup, GroupAction,
                      crossed_product, folner_average, folner_defect,
                      lift_automorphism, smearing_map)
from .freeprod import (AmalgSetup, amalg_setup, build_W,
                       freeness_check, haar_unitary, semicircular_moments,
                       swap_commutation, toeplitz_state_check,
                       wunitary_vanishing)
from .bogoliubov import (BogoliubovMap, compression_channels,
                         entropy_bound_report, fock_extension, kp_subspace,
                         validate_bogoliubov)
from .report import VerificationReport

__all__ = [
    "AlgebraAutomorphism", "AlgebraElement", "CPLinearMap", "CStarAlgebra",
    "ConditionalExpectation", "StateFunctional", "StructureError",
    "PreconditionError", "UnitalHomomorphism", "AugmentedModule",
    "HilbertBimodule", "ModuleVector", "SubmoduleSpan",
    "TensorStep", "cp_bimodule", "direct_sum", "gns_bimodule",
    "gram_schmidt", "make_bimodule", "submodule_projection",
    "trivial_module", "FockSpace", "LevelOp",
    "creation_relations_check", "fock_factorization_check",
    "ideal_structure_check", "isometric_vector", "masked_norm",
    "quotient_dimension_check", "toeplitz_endomorphism", "word",
    "CrossedProduct", "FiniteGroup", "GroupAction", "crossed_product",
    "folner_average", "folner_defect", "lift_automorphism", "smearing_map",
    "AmalgSetup", "amalg_setup", "build_W",
    "freeness_check", "haar_unitary", "semicircular_moments",
    "swap_commutation", "toeplitz_state_check", "wunitary_vanishing",
    "BogoliubovMap", "compression_channels", "entropy_bound_report",
    "fock_extension", "kp_subspace", "validate_bogoliubov",
    "VerificationReport",
]

__version__ = "0.1.0"
