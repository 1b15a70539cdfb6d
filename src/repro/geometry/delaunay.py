"""2D Delaunay triangulation (Bowyer–Watson).

Substrate for EMST-Delaunay (Appendix A.1): in 2D the EMST is a
subgraph of the Delaunay triangulation, so an MST over the O(n)
Delaunay edges solves EMST. The container has no scipy/CGAL, so this
implements Bowyer–Watson incremental insertion from scratch.

The cavity search is vectorized: circumcenters/radii of all live
triangles are kept in NumPy arrays and each insertion tests every live
triangle's circumcircle in one vector operation. That makes the
implementation O(n * T) arithmetic but with tiny constants — more than
fast enough at reproduction scale, and far simpler to make robust than
walk-based point location.
"""
from __future__ import annotations

import numpy as np


def _circumcircles(p: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenter and squared radius per triangle (rows of ``tris``
    index into ``p``). Degenerate (collinear) triangles get infinite
    radius so any point falls inside and they are always re-cut."""
    a, b, c = p[tris[:, 0]], p[tris[:, 1]], p[tris[:, 2]]
    d = 2.0 * (
        a[:, 0] * (b[:, 1] - c[:, 1])
        + b[:, 0] * (c[:, 1] - a[:, 1])
        + c[:, 0] * (a[:, 1] - b[:, 1])
    )
    sa = np.einsum("ij,ij->i", a, a)
    sb = np.einsum("ij,ij->i", b, b)
    sc = np.einsum("ij,ij->i", c, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (
            sa * (b[:, 1] - c[:, 1])
            + sb * (c[:, 1] - a[:, 1])
            + sc * (a[:, 1] - b[:, 1])
        ) / d
        uy = (
            sa * (c[:, 0] - b[:, 0])
            + sb * (a[:, 0] - c[:, 0])
            + sc * (b[:, 0] - a[:, 0])
        ) / d
    centers = np.stack([ux, uy], axis=1)
    r2 = np.einsum("ij,ij->i", centers - a, centers - a)
    bad = ~np.isfinite(r2)
    r2[bad] = np.inf
    centers[bad] = 0.0
    return centers, r2


def delaunay_edges(points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Return the (m, 2) unique undirected edge list of the Delaunay
    triangulation of ``points`` (n, 2). Assumes generic position (random
    data); cocircular ties resolve arbitrarily, which still preserves
    the EMST-subgraph property for the MST use case."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if n == 2:
        return np.array([[0, 1]], dtype=np.int64)

    # Relative to the min corner: far from the origin, cancellation in
    # the circumcircles' squared coordinates would eat every digit.
    pts = pts - pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(np.max(hi)) or 1.0
    mid = 0.5 * hi
    # Super-triangle comfortably containing every circumcircle of interest.
    sup = mid + span * np.array([[0.0, 64.0], [-64.0, -64.0], [64.0, -64.0]])
    P = np.vstack([pts, sup])
    s0, s1, s2 = n, n + 1, n + 2

    cap = 8 * n + 16
    tris = np.empty((cap, 3), dtype=np.int64)
    centers = np.empty((cap, 2))
    r2 = np.empty(cap)
    alive = np.zeros(cap, dtype=bool)

    tris[0] = (s0, s1, s2)
    centers[0:1], r2[0:1] = _circumcircles(P, tris[0:1])
    alive[0] = True
    m = 1  # high-water mark of the triangle arrays

    order = np.random.default_rng(seed).permutation(n)
    for p_idx in order:
        q = P[p_idx]
        d = centers[:m] - q
        inside = alive[:m] & (np.einsum("ij,ij->i", d, d) < r2[:m])
        bad = np.flatnonzero(inside)
        # Boundary = edges of the cavity that appear exactly once.
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            a, b, c = tris[t]
            for e in ((a, b), (b, c), (c, a)):
                key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
                edge_count[key] = edge_count.get(key, 0) + 1
        alive[bad] = False
        boundary = [e for e, cnt in edge_count.items() if cnt == 1]
        new = np.array(
            [(p_idx, a, b) for a, b in boundary], dtype=np.int64
        ).reshape(-1, 3)
        k = new.shape[0]
        if m + k > cap:
            grow = max(cap, m + k)
            tris = np.vstack([tris, np.empty((grow, 3), dtype=np.int64)])
            centers = np.vstack([centers, np.empty((grow, 2))])
            r2 = np.concatenate([r2, np.empty(grow)])
            alive = np.concatenate([alive, np.zeros(grow, dtype=bool)])
            cap += grow
        tris[m : m + k] = new
        centers[m : m + k], r2[m : m + k] = _circumcircles(P, new)
        alive[m : m + k] = True
        m += k
        # Periodic compaction keeps the vectorized scan proportional to
        # the number of live triangles.
        if m > 4 * max(16, int(alive[:m].sum())):
            keep = np.flatnonzero(alive[:m])
            k2 = keep.size
            tris[:k2] = tris[keep]
            centers[:k2] = centers[keep]
            r2[:k2] = r2[keep]
            alive[:m] = False
            alive[:k2] = True
            m = k2

    final = tris[:m][alive[:m]]
    final = final[(final < n).all(axis=1)]  # drop super-triangle incidences
    edges = np.vstack(
        [final[:, [0, 1]], final[:, [1, 2]], final[:, [2, 0]]]
    )
    edges.sort(axis=1)
    return np.unique(edges, axis=0)
