"""No check in ``src/factopo`` rides on ``assert``, which ``python -O``
strips: a fact a report relies on raises a named ``FactopoError``, and a
misuse of the API raises ``InvalidSpec``."""

import ast

import pytest

from factopo.errors import InvalidSpec
from factopo.finring import RingHom, inverse_hom, zmod
from factopo.sset import delta, identity_smap
from factopo.toposx import (EquivariantMap, FqVecSpace, LinearMap,
                            cyclic_group, regular_gset, trivial_gset)
from test_no_dead_code import MODULES, parse


def test_no_assert_and_no_debug_flag_in_the_package():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.Assert) or
             isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found, "assert or __debug__ at " + ", ".join(found)


def equivariant_then():
    G = cyclic_group(2)
    f = EquivariantMap(regular_gset(G), trivial_gset(G, 1), [0, 0])
    return f.then(f)


def linear_then():
    f = LinearMap(FqVecSpace(2, 2), FqVecSpace(2, 1), [(1,), (0,)])
    return f.then(f)


def simplicial_then():
    return identity_smap(delta(1)).then(identity_smap(delta(0)))


def inverse_of_a_projection():
    return inverse_hom(RingHom(zmod(4), zmod(2), (0, 1, 0, 1)).validate())


@pytest.mark.parametrize("misuse", [equivariant_then, linear_then,
                                    simplicial_then, inverse_of_a_projection])
def test_api_misuse_raises_invalid_spec(misuse):
    with pytest.raises(InvalidSpec):
        misuse()
