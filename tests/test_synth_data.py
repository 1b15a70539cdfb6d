"""Data generators: determinism, shape, and the structural properties
each stand-in is supposed to carry (DESIGN.md §4), plus DuckDB oracle
checks over the relational views."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.oracle import assert_equivalent

GENS = {
    "uniform_fill": lambda n: sd.uniform_fill(n, 3, seed=1),
    "ss_varden": lambda n: sd.ss_varden(n, 3, seed=1),
    "geolife_like": lambda n: sd.geolife_like(n, seed=1),
    "household_like": lambda n: sd.household_like(n, seed=1),
    "ht_like": lambda n: sd.ht_like(n, seed=1),
    "chem_like": lambda n: sd.chem_like(n, seed=1),
}
DIMS = {
    "uniform_fill": 3,
    "ss_varden": 3,
    "geolife_like": 3,
    "household_like": 7,
    "ht_like": 10,
    "chem_like": 16,
}


@pytest.mark.parametrize("name", list(GENS))
def test_shape_and_determinism(name):
    a = GENS[name](800)
    b = GENS[name](800)
    assert a.shape == (800, DIMS[name])
    assert a.dtype == np.float64
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


@pytest.mark.parametrize("name", list(GENS))
def test_seed_changes_data(name):
    gen = {
        "uniform_fill": lambda s: sd.uniform_fill(300, 3, seed=s),
        "ss_varden": lambda s: sd.ss_varden(300, 3, seed=s),
        "geolife_like": lambda s: sd.geolife_like(300, seed=s),
        "household_like": lambda s: sd.household_like(300, seed=s),
        "ht_like": lambda s: sd.ht_like(300, seed=s),
        "chem_like": lambda s: sd.chem_like(300, seed=s),
    }[name]
    assert not np.array_equal(gen(1), gen(2))


def test_uniform_fill_side_length():
    pts = sd.uniform_fill(10_000, 2, seed=0)
    side = np.sqrt(10_000)
    assert pts.min() >= 0 and pts.max() <= side


def test_ss_varden_is_clustered():
    """Variable-density clusters: median nearest-neighbor distance must
    be far below the uniform expectation over the same bounding box."""
    from repro.geometry import kdtree as kdt
    from repro.geometry.knn import core_distances

    pts = sd.ss_varden(2000, 2, seed=0)
    nn = core_distances(kdt.build(pts), 2)
    bbox_span = np.prod(pts.max(axis=0) - pts.min(axis=0))
    uniform_nn = 0.5 * np.sqrt(bbox_span / 2000)
    assert np.median(nn) < uniform_nn / 4


def test_geolife_like_is_extremely_skewed():
    """Most mass inside a tiny sub-volume — the property the paper
    calls out for GeoLife."""
    pts = sd.geolife_like(5000, seed=0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center_frac = np.mean(
        np.all(np.abs(pts - np.median(pts, axis=0)) < 0.05 * (hi - lo), axis=1)
    )
    assert center_frac > 0.5


def test_points_pdf_roundtrip(spark):
    pts = sd.uniform_fill(200, 3, seed=2)
    pdf = sd.points_pdf(pts)
    assert list(pdf.columns) == ["id", "x0", "x1", "x2"]
    got = spark.createDataFrame(pdf).selectExpr(
        "count(*) AS n", "round(sum(x0), 6) AS s0"
    )
    assert_equivalent(
        got,
        "SELECT count(*) AS n, round(sum(x0), 6) AS s0 FROM pts",
        pts=pdf,
    )

