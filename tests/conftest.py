from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wanas.catalog import ALL_GROUPS, load_catalog
from wanas.verify import GridSpec, generate_grid


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def groups(catalog):
    return {gid: catalog.get_group(gid) for gid in catalog.groups}


@pytest.fixture(scope="session")
def height_points(catalog):
    """Seeded admissible points of height <= 1000, twelve per group.

    Each group's ladder is one negative and two positive random rationals;
    the grid adds 0 where the constraints allow it, and for g5-g7 solves
    the defining equation, which gives one large coordinate.
    """
    points = {}
    for gid in ALL_GROUPS:
        rng = random.Random(f"height:{gid}")
        a, b, c = (Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(3))
        grid = GridSpec(gid, tuple(sorted({-a, b, c})), max_points=10**6)
        admissible = generate_grid(catalog.get_group(gid).spec, grid)
        points[gid] = rng.sample(admissible, min(12, len(admissible)))
    return points
