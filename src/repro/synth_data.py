"""Spatial data for the EMST / HDBSCAN* reproduction (SIGMOD '21).

The paper evaluates on UniformFill and SS-varden synthetic sets (2/3/5/7D)
plus four real-world sets (GeoLife 3D, Household 7D, HT 10D, CHEM 16D).
The real sets are not available offline, so the *_like generators below
synthesize data with the same dimensionality and the structural property
that matters to the algorithms (extreme skew for GeoLife, correlated
sensor manifolds for Household/HT/CHEM). DESIGN.md §4 documents each
substitution. All generators are deterministic in ``seed`` and return
(n, d) float64 NumPy arrays (the algorithms' native input); use
``points_pdf`` to get a DataFrame for the DuckDB oracle.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def points_pdf(points) -> pd.DataFrame:
    """(n, d) array -> pandas frame with columns id, x0..x{d-1} — the
    relational view used by the DuckDB oracle tests."""
    import pandas as pd

    pts = np.asarray(points, dtype=np.float64)
    cols = {"id": np.arange(pts.shape[0], dtype=np.int64)}
    for j in range(pts.shape[1]):
        cols[f"x{j}"] = pts[:, j]
    return pd.DataFrame(cols)


def uniform_fill(n: int, d: int, seed: int = 0) -> np.ndarray:
    """The paper's UniformFill: uniform points in a hypergrid with side
    length sqrt(n)."""
    g = _rng(seed)
    return g.random((n, d)) * np.sqrt(n)


def ss_varden(
    n: int,
    d: int,
    n_clusters: int = 10,
    noise_frac: float = 1e-4,
    seed: int = 0,
) -> np.ndarray:
    """Seed-spreader with variable density (SS-varden), after Gan & Tao
    [27]: a spreader performs a random walk, emitting points in a
    vicinity ball around its position and shifting every 100 points;
    each restart starts a new cluster with a new vicinity radius
    (log-uniform over two orders of magnitude -> variable density), plus
    a ~1e-4 fraction of uniform noise."""
    g = _rng(seed)
    side = 1e5
    n_noise = int(n * noise_frac)
    n_data = n - n_noise
    counts = np.full(n_clusters, n_data // n_clusters)
    counts[: n_data % n_clusters] += 1
    chunks = []
    for c in counts:
        r = 10.0 ** g.uniform(2.0, 4.0)  # vicinity radius, 100..10000
        pos = g.random(d) * side
        pts = np.empty((c, d))
        for i in range(0, int(c), 100):
            m = min(100, int(c) - i)
            offs = g.normal(size=(m, d))
            offs *= (r * g.random(m) ** (1.0 / d) / np.linalg.norm(offs, axis=1))[:, None]
            pts[i : i + m] = pos + offs
            step = g.normal(size=d)
            pos = pos + step / np.linalg.norm(step) * (r / 2.0)
        chunks.append(pts)
    if n_noise:
        chunks.append(g.random((n_noise, d)) * side)
    out = np.vstack(chunks)
    return out[g.permutation(out.shape[0])]


def geolife_like(n: int, seed: int = 0) -> np.ndarray:
    """3D stand-in for GeoLife (lon, lat, alt): heavy-tailed trajectory
    walks — most mass in a few city-sized regions, a few walks roaming
    the whole domain — giving the extreme skew the paper highlights."""
    g = _rng(seed)
    side = 1e5
    n_traj = max(1, n // 500)
    # Heavy-tailed trajectory lengths (Zipf-like).
    w = 1.0 / np.arange(1, n_traj + 1) ** 1.5
    lens = np.maximum(1, (w / w.sum() * n).astype(np.int64))
    lens[0] += n - int(lens.sum())
    # 90% of trajectories start inside a city covering 1% of the domain.
    chunks = []
    for L in lens:
        if g.random() < 0.9:
            start = side * (0.495 + 0.01 * g.random(3))
            step = 2.0
        else:
            start = g.random(3) * side
            step = 50.0
        walk = np.cumsum(g.normal(scale=step, size=(int(L), 3)), axis=0)
        walk[:, 2] *= 0.02  # altitude varies far less than lon/lat
        chunks.append(start + walk)
    out = np.vstack(chunks)[:n]
    return out[g.permutation(out.shape[0])]


def _sensor_like(n: int, d: int, latent: int, n_modes: int, seed: int) -> np.ndarray:
    """Shared shape for the sensor-style sets: an AR(1) drift on a
    low-dimensional latent trajectory, mixed through a fixed random
    linear map into d dims, plus mode offsets and measurement noise."""
    g = _rng(seed)
    t = np.cumsum(g.normal(size=(n, latent)), axis=0)  # slow drift
    t /= np.abs(t).max() or 1.0
    modes = g.integers(0, n_modes, n)
    centers = g.random((n_modes, d)) * 100.0
    mix = g.normal(size=(latent, d))
    x = t @ mix * 30.0 + centers[modes] + g.normal(scale=1.0, size=(n, d))
    return x[g.permutation(n)]


def household_like(n: int, seed: int = 0) -> np.ndarray:
    """7D stand-in for the Household electricity data set."""
    return _sensor_like(n, d=7, latent=3, n_modes=6, seed=seed)


def ht_like(n: int, seed: int = 0) -> np.ndarray:
    """10D stand-in for the HT home-sensor data set."""
    return _sensor_like(n, d=10, latent=4, n_modes=8, seed=seed)


def chem_like(n: int, seed: int = 0) -> np.ndarray:
    """16D stand-in for the CHEM gas-sensor data set (low intrinsic
    dimension, which is what keeps WSPD sizes tolerable at d=16)."""
    return _sensor_like(n, d=16, latent=5, n_modes=10, seed=seed)
