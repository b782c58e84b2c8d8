import numpy as np
import pytest

from factoroid import constructors as mk
from factoroid.groupoid import MeasuredGroupoid, validate_groupoid

from references import from_names


def _named(fixture: str, instance: str):
    """A session fixture built by ``mk.NAMED_INSTANCES[instance]``: the
    groupoid alone, or the (groupoid, cocycle) pair of a twisted instance."""

    @pytest.fixture(scope="session", name=fixture)
    def build():
        g, w = mk.NAMED_INSTANCES[instance]()
        return g if w is None else (g, w)

    return build


z2 = _named("z2", "z2")
z3 = _named("z3", "z3")
klein4 = _named("klein4", "klein4")
klein_twisted = _named("klein_twisted", "klein4-twisted")
full2 = _named("full2", "full2")
full3 = _named("full3", "full3")
s3_bundle = _named("s3_bundle", "s3-bundle")
swap_groupoid = _named("swap_groupoid", "swap")
z4_translation = _named("z4_translation", "z4-translation")


@pytest.fixture(scope="session")
def z2_bundle():
    z2 = mk.cyclic_group(2)
    return mk.group_bundle({"x0": z2, "x1": z2}, {"x0": 0.5, "x1": 0.5})


@pytest.fixture(scope="session")
def z2_trivial_two_points():
    return mk.transformation_groupoid(
        mk.cyclic_group(2), np.array([[0, 1], [0, 1]]), ["x0", "x1"], {"x0": 0.5, "x1": 0.5}
    )


@pytest.fixture(scope="session")
def null_orbit_groupoid() -> MeasuredGroupoid:
    """Positive mass on an isolated unit; a null full-relation pair besides."""
    units = ["x0", "x1", "x2"]
    mass = {"x0": 1.0, "x1": 0.0, "x2": 0.0}
    arrows = [
        ("e0", "x0", "x0"), ("e1", "x1", "x1"), ("e2", "x2", "x2"),
        ("a12", "x2", "x1"), ("a21", "x1", "x2"),
    ]
    compose = """e0 e0 e0  e1 e1 e1  e2 e2 e2  a12 e2 a12  e1 a12 a12
                 a21 e1 a21  e2 a21 a21  a12 a21 e1  a21 a12 e2""".split()
    compose = list(zip(compose[0::3], compose[1::3], compose[2::3]))
    inverse = {"e0": "e0", "e1": "e1", "e2": "e2", "a12": "a21", "a21": "a12"}
    unit_arrows = {"x0": "e0", "x1": "e1", "x2": "e2"}
    return validate_groupoid(from_names(units, mass, arrows, compose, inverse, unit_arrows))
