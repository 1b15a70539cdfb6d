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

Those floating-point circle tests can go wrong where points are
cocircular (lattices, regular polygons), so the result is checked with
exact signs before it is used (``_check_delaunay``). A result that
passes is a Delaunay triangulation, which holds every EMST edge: an MST
edge has no other point in its closed diametral disk.
"""
from __future__ import annotations

from fractions import Fraction

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


def _orient(a, b, c):
    """Twice the signed area of the triangle (a, b, c), > 0 when it is
    counterclockwise. Points are (x, y) pairs of arrays or of numbers,
    so the one formula runs in floats and in exact fractions."""
    return (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])


def _incircle(a, b, c, d):
    """> 0 when d lies strictly inside the circle through the
    counterclockwise triangle (a, b, c), 0 when on it."""
    (ax, ay), (bx, by), (cx, cy) = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    return (
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )


def _signs(predicate, degree: int, P: np.ndarray, *corners: np.ndarray) -> np.ndarray:
    """Exact sign of ``predicate`` (a polynomial of ``degree`` in the
    coordinate differences to the last corner) at the rows ``corners``
    of ``P``. The float value decides where it exceeds 2**-40 of the
    largest difference to that power, far above its rounding error; the
    rest are evaluated in exact fractions."""
    pts = [(P[v, 0], P[v, 1]) for v in corners]
    value = predicate(*pts)
    span = np.max([np.abs(p[k] - pts[-1][k]) for p in pts[:-1] for k in (0, 1)], axis=0)
    sign = np.sign(value)
    for i in np.flatnonzero(~(np.abs(value) > span**degree * 2.0**-40)):
        exact = predicate(*[(Fraction(P[v[i], 0]), Fraction(P[v[i], 1])) for v in corners])
        sign[i] = (exact > 0) - (exact < 0)
    return sign


def _check_delaunay(P: np.ndarray, n: int, tris: np.ndarray) -> np.ndarray:
    """The sorted edges (u < v < n) of the final triangles ``tris`` (rows
    index ``P``; rows n..n+2 are the super-triangle's corners). Raises
    ``ValueError`` unless they are a Delaunay triangulation of ``P`` with
    a triangle on three of the n points (none exists on collinear input).

    A triangulation of n + 3 points with b boundary edges has every edge
    in one or two triangles and 2(n + 3) - 2 - b triangles; here the
    boundary is the super-triangle's, and the two triangles of every
    other edge lie strictly on opposite sides of it. It is Delaunay
    where neither lies strictly inside the other's circumcircle.
    """
    # Half-edges (a, b) with the third corner c, grouped by edge.
    a, b, c = (tris[:, k].ravel() for k in ([0, 1, 2], [1, 2, 0], [2, 0, 1]))
    key = np.minimum(a, b) * (n + 3) + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[starts, key.size])
    sup = (np.array([n, n, n + 1]) * (n + 3)) + [n + 1, n + 2, n + 2]
    inner = starts[count == 2]
    a, b, c, d = a[order[inner]], b[order[inner]], c[order[inner]], c[order[inner + 1]]
    side = _signs(_orient, 2, P, a, b, c)
    if not (
        count.max() <= 2
        and tris.shape[0] == 2 * (n + 3) - 2 - 3
        and np.array_equal(key[starts[count == 1]], sup)
        and np.all(side * _signs(_orient, 2, P, a, b, d) < 0)
        and not np.any(side * _signs(_incircle, 4, P, a, b, c, d) > 0)
        and (tris < n).all(axis=1).any()
    ):
        raise ValueError(
            "Delaunay triangles do not span the points as one triangulation "
            "(collinear or cocircular input)"
        )
    key = key[starts]
    key = key[key % (n + 3) < n]
    return np.stack([key // (n + 3), key % (n + 3)], axis=1)


def delaunay_edges(points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Return the (m, 2) unique undirected edge list (u < v) of the
    Delaunay triangulation of ``points`` (n, 2). The distinct points are
    triangulated; every later copy of a point is joined to its first
    copy by a zero-length edge. Raises ``ValueError`` where the
    floating-point triangulation fails its exact check."""
    pts = np.asarray(points, dtype=np.float64)
    ids = np.arange(pts.shape[0])
    _, first, inv = np.unique(pts + 0.0, axis=0, return_index=True, return_inverse=True)
    copy_of = first[inv.ravel()]
    keep, dups = ids[copy_of == ids], ids[copy_of != ids]
    edges = keep[_distinct_edges(pts[keep], seed)]
    return np.unique(np.vstack([edges, np.column_stack([copy_of[dups], dups])]), axis=0)


def _distinct_edges(pts: np.ndarray, seed: int) -> np.ndarray:
    """Sorted unique Delaunay edges of the distinct points ``pts``."""
    n = pts.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if n == 2:
        return np.array([[0, 1]], dtype=np.int64)

    # Relative to the min corner: far from the origin, cancellation in
    # the circumcircles' squared coordinates would eat every digit.
    low = pts.min(axis=0)
    hi = pts.max(axis=0) - low
    span = float(np.max(hi)) or 1.0
    mid = 0.5 * hi
    # Super-triangle comfortably containing every circumcircle of interest.
    sup = mid + span * np.array([[0.0, 64.0], [-64.0, -64.0], [64.0, -64.0]])
    P = np.vstack([pts - low, sup])
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

    # Checked on the input coordinates, with the super-triangle moved back.
    return _check_delaunay(np.vstack([pts, sup + low]), n, tris[:m][alive[:m]])
