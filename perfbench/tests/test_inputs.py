"""The seeded input generators and the independent checks."""

from fractions import Fraction

import pytest

import inputs
import oracle
import workloads
from diaskit import catalog, spaces
from diaskit.core import Dialgebra, phi_dialgebra


def _structure(name, seed):
    d = catalog.instantiate(name, workloads.points(seed).get(name))
    return d.dim, d.c_vdash, d.c_dashv


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("parts", [inputs.SUM3_PARTS, inputs.SUM4_PARTS])
def test_direct_sum_is_a_dialgebra_whose_dimensions_add(seed, parts):
    summands = [_structure(name, seed) for name in inputs.summand_order(seed, parts)]
    n, vd, dv = inputs.direct_sum(summands)
    assert n == sum(s[0] for s in summands)
    assert oracle.axiom_violations(n, vd, dv) == 0
    assert Dialgebra(n, vd, dv).verify_axioms() == []


def test_generators_are_deterministic_per_seed():
    def draw(seed):
        return (inputs.phi_weights(seed, 12), next(inputs.catalog_points(seed, "Dias3_16")),
                inputs.summand_order(seed, inputs.SUM4_PARTS), inputs.kxy_terms(seed),
                inputs.cli_catalog_seed(seed))

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


@pytest.mark.parametrize("seed", range(10))
def test_phi_weights_are_nonzero_and_catalog_points_generic(seed):
    assert all(w != 0 for w in inputs.phi_weights(seed, 8))
    for name, dims in inputs.GENERIC_DIMS.items():
        params = workloads.points(seed)[name]
        assert params.get("m", 1) != 0
        d = catalog.instantiate(name, params)
        assert (spaces.derivation_space(d).dim, spaces.diderivation_space(d).dim) == dims


def test_phi_structure_matches_the_library():
    weights = inputs.phi_weights(3, 5)
    d = phi_dialgebra(weights)
    assert inputs.phi_structure(weights) == (5, d.c_vdash, d.c_dashv)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_accepts_the_solver_on_phi(n):
    weights = inputs.phi_weights(0, n)
    structure = inputs.phi_structure(weights)
    d = phi_dialgebra(weights)
    assert oracle.kernel_problems(*structure, spaces.derivation_space(d).basis, False, n * n - n) == []
    assert oracle.kernel_problems(*structure, spaces.diderivation_space(d).basis, True, 0) == []


def test_oracle_rejects_wrong_bases():
    structure = _structure("Dias3_10", 0)
    basis = [list(v) for v in spaces.diderivation_space(catalog.instantiate("Dias3_10")).basis]
    assert oracle.kernel_problems(*structure, basis, True) == []
    assert oracle.kernel_problems(*structure, basis[1:], True)        # incomplete
    assert oracle.kernel_problems(*structure, basis[::-1], True)      # not in RREF
    broken = [row[:] for row in basis]
    broken[0][-1] += Fraction(1, 3)
    assert oracle.kernel_problems(*structure, broken, True)           # not a diderivation
    assert oracle.axiom_violations(3, structure[1], structure[2]) == 0
