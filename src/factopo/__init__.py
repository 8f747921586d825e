"""Factorization systems made executable on finite instances.

Rings, simplicial sets, categories and group representations each carry a
pair of factorization classes; the induced covers, local objects and point
spectra are all computed by exhaustive enumeration under a step budget.
"""

import importlib

__version__ = "0.1.0"
# each layer and its public names; __getattr__ imports a layer on first use
_LAYERS = {
    "budget": "Budget", "catalogs": "", "reader": "", "suites": "run_suite",
    "errors": "EnumerationBudgetExceeded FactopoError FactorizerContractViolation"
              " IdentityViolation InvalidFamily InvalidSpec NotACategory"
              " NotALattice NotAPrime NotARing NotEquivariant NotLinear"
              " NotSimplicial OutputError ParseError TruncationTooLow UsageError",
    "posets": "Factorization",
    "fincat": "FinCat Functor is_orthogonal validate_fincat verify_system",
    "finring": "FinRing Ideal RingHom build_ring gf hom_from_images prime_ideals"
               " product_ring quotient_ring zmod",
    "ringsys": "classify_ring cover_check dom_self_lift_decider factorize"
               " triple_factorize verify_ring_system zar_self_lift_decider",
    "ringspec": "check_duality dom_lattice spec_points stalk zar_lattice",
    "sset": "FinSSet SimplicialMap boundary build_smap build_sset delta"
            " deg_ndeg_factorize delta_nis_self_lift_decider horn spec_delta_nis"
            " spec_raw sset_cover_check",
    "catfib": "cat_universe comma comprehensive_factorize"
              " is_discrete_right_fibration is_final slice_factorize",
    "toposx": "FinGroup FinGSet FqVecSpace LinearMap atoms_and_orbits build_gset"
              " build_vspace epi_mono_factorize_gset epi_mono_factorize_linear"
              " lines simple_points",
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items()
             for name in [layer, *names.split()]}
__all__ = sorted(_LAYER_OF)
__dir__ = __all__.copy


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    layer = importlib.import_module("." + _LAYER_OF[name], __name__)
    return layer if name in _LAYERS else getattr(layer, name)
