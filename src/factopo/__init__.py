"""Factorization systems made executable on finite instances.

Rings, simplicial sets, categories and group representations each carry a
pair of factorization classes; the induced covers, local objects and point
spectra are all computed by exhaustive enumeration under a step budget.
"""

__version__ = "0.1.0"

from .budget import Budget
from .errors import (EnumerationBudgetExceeded, FactopoError, FactorizerContractViolation,
                     IdentityViolation, InvalidFamily, InvalidSpec, NotACategory,
                     NotAPrime, NotARing, NotEquivariant, NotLinear, NotSimplicial,
                     ParseError, TruncationTooLow, UsageError)
from .fincat import FinCat, Functor, is_orthogonal, validate_fincat, verify_system
from .finring import (FinRing, Ideal, RingHom, build_ring, gf, hom_from_images,
                      prime_ideals, product_ring, quotient_ring, zmod)
from .ringsys import (classify_ring, cover_check, dom_self_lift_decider,
                      factorize, points_of, triple_factorize,
                      verify_ring_system, zar_self_lift_decider)
from .ringspec import check_duality, dom_lattice, spec_points, stalk, zar_lattice
from .sset import (FinSSet, SimplicialMap, boundary, build_smap, build_sset,
                   delta, deg_ndeg_factorize, delta_nis_self_lift_decider,
                   horn, spec_delta_nis, spec_raw, sset_cover_check)
from .catfib import (cat_universe, comma, comprehensive_factorize,
                     is_discrete_right_fibration, is_final, slice_factorize)
from .toposx import (FinGroup, FinGSet, FqVecSpace, LinearMap, atoms_and_orbits,
                     build_gset, build_vspace, epi_mono_factorize_gset,
                     epi_mono_factorize_linear, lines, simple_points)
from .suites import run_suite

__all__ = [n for n in dir() if not n.startswith("_")]
