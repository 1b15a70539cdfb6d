"""2D Delaunay triangulation by exact incremental insertion.

Substrate for EMST-Delaunay (Appendix A.1): in 2D the EMST is a
subgraph of the Delaunay triangulation, so an MST over its O(n) edges
solves EMST. Neither scipy nor CGAL is a dependency, so the
triangulation is built here.

The distinct points are inserted in kd-tree order, so that each lies
near the last. A visibility walk from the last triangle made finds the
triangle that holds the point; the point splits it into 3, or splits
the two triangles that share the edge it lies on into 4, and Lawson
flips (Lawson 1977) restore the empty-circle property around it. A
triangle is a list of its counterclockwise corners plus a list of the
triangles across from each corner (-1 on the super-triangle's sides).

``_orient`` and ``_incircle`` return exact signs (Shewchuk 1997). The
float value decides where it exceeds Shewchuk's static error bound
(``ccwerrboundA`` / ``iccerrboundA`` times the absolute sum of the
terms); the rest, and every overflow to inf or NaN, is evaluated in
``Fraction``. That bound assumes that nothing underflows. When g, the
smallest nonzero gap between two coordinates on one axis, is at least
2**-225, every nonzero product in the predicates is at least 2**-952
and every bound at least 2**-1000, both normal floats; below that the
points go in as ``Fraction``s and every sign is exact arithmetic.

Why the edges hold an exact EMST:

* Every flip decision is exact, so the result is a Delaunay
  triangulation of the n points plus the 3 super-triangle corners.
* The corners lie at least 64 * span from the bounding box's centre
  (span: the box's larger side). Every diametral disk of two input
  points lies within span * sqrt(2) of that centre, so no corner is in
  one.
* Every MST edge (u, v) is a Gabriel edge: if a point w lay in its
  closed diametral disk, (u, w) or (w, v) would be strictly lighter and
  could replace it.
* Every Gabriel edge is in every Delaunay triangulation. So Kruskal
  over the edges between input points gives an exact EMST.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import kdtree as kdt

_EPS = 2.0**-53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS   # Shewchuk's ccwerrboundA
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS  # Shewchuk's iccerrboundA
_MIN_GAP = 2.0**-225


def _orient_terms(a, b, c):
    """Twice the signed area of (a, b, c) and its terms' absolute sum."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    return left - right, abs(left) + abs(right)


def _incircle_terms(a, b, c, d):
    """Shewchuk's in-circle determinant of d against (a, b, c) and its
    permanent (the absolute sum of its terms)."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    bdxcdy, cdxbdy, alift = bdx * cdy, cdx * bdy, adx * adx + ady * ady
    cdxady, adxcdy, blift = cdx * ady, adx * cdy, bdx * bdx + bdy * bdy
    adxbdy, bdxady, clift = adx * bdy, bdx * ady, cdx * cdx + cdy * cdy
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    return det, permanent


def _exact_sign(terms, bound, *pts) -> int:
    """Sign of ``terms``' determinant at ``pts``, exact."""
    det, mag = terms(*pts)
    if not abs(det) > bound * mag:  # also where det or mag is inf or NaN
        det, _ = terms(*[(Fraction(x), Fraction(y)) for x, y in pts])
    return (det > 0) - (det < 0)


def _orient(a, b, c) -> int:
    """1 where (a, b, c) turn counterclockwise, -1 where clockwise, 0
    where they are collinear. Points are (x, y) pairs."""
    return _exact_sign(_orient_terms, _CCW_BOUND, a, b, c)


def _incircle(a, b, c, d) -> int:
    """1 where d lies strictly inside the circle through the
    counterclockwise triangle (a, b, c), 0 on it, -1 outside."""
    return _exact_sign(_incircle_terms, _ICC_BOUND, a, b, c, d)


def delaunay_edges(points: np.ndarray) -> np.ndarray:
    """Return the (m, 2) unique undirected edge list (u < v) of a
    Delaunay triangulation of ``points`` (n, 2). The distinct points are
    triangulated; every later copy of a point is joined to its first
    copy by a zero-length edge."""
    pts = np.asarray(points, dtype=np.float64)
    ids = np.arange(pts.shape[0])
    _, first, inv = np.unique(pts + 0.0, axis=0, return_index=True, return_inverse=True)
    copy_of = first[inv.ravel()]
    keep, dups = ids[copy_of == ids], ids[copy_of != ids]
    edges = keep[_distinct_edges(pts[keep])]
    return np.unique(np.vstack([edges, np.column_stack([copy_of[dups], dups])]), axis=0)


def _distinct_edges(pts: np.ndarray) -> np.ndarray:
    """Sorted unique Delaunay edges of the distinct points ``pts``."""
    n = pts.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(np.max(hi - lo))
    sup = 0.5 * (lo + hi) + span * np.array([[0.0, 64.0], [-64.0, -64.0], [64.0, -64.0]])
    P = np.vstack([pts, sup])
    xy = P.tolist()
    if min(np.diff(np.unique(P[:, k])).min() for k in (0, 1)) < _MIN_GAP:
        xy = [(Fraction(x), Fraction(y)) for x, y in xy]
    tv = [[n, n + 1, n + 2]]  # counterclockwise corners of each triangle
    tn = [[-1, -1, -1]]       # tn[t][i]: the triangle across from tv[t][i]
    t = 0
    for p in kdt.build(pts).perm.tolist():
        q = xy[p]
        t, on = _locate(tv, tn, xy, t, q)
        r = max(on, 0)  # rotate so that an edge holding q is (b, c)
        a, b, c = tv[t][r:] + tv[t][:r]
        na, nb, nc = tn[t][r:] + tn[t][:r]
        if on < 0:
            cycle, outer, old, fan = [a, b, c], [nc, na, nb], [t, t, t], [t]
        else:
            u = na
            j = tn[u].index(t)
            cycle = [a, b, tv[u][j], c]
            outer, old, fan = [nc, tn[u][j - 2], tn[u][j - 1], nb], [t, u, u, t], [t, u]
        # The fan of triangles (p, cycle[i], cycle[i + 1]) replaces the
        # old ones; outer[i] lies across (cycle[i], cycle[i + 1]).
        k, grow = len(cycle), len(cycle) - len(fan)
        fan += range(len(tv), len(tv) + grow)
        tv += [None] * grow
        tn += [None] * grow
        for i in range(k):
            _relink(tn, outer[i], old[i], fan[i])
            tv[fan[i]] = [p, cycle[i], cycle[(i + 1) % k]]
            tn[fan[i]] = [outer[i], fan[(i + 1) % k], fan[i - 1]]
        t = fan[0]
        _flip(tv, tn, xy, fan)
    # Each edge between two points is the half-edge (a, b) of one
    # triangle and (b, a) of the other.
    a = np.array(tv)
    b = a[:, [1, 2, 0]]
    key = np.sort((a * n + b)[(a < b) & (b < n)])
    return np.column_stack([key // n, key % n])


def _locate(tv, tn, xy, t, q) -> tuple[int, int]:
    """Visibility walk from triangle ``t`` to a triangle holding ``q``.
    Returns it and the corner across from the edge ``q`` lies on (-1
    when ``q`` is inside). The walk cannot cycle: the triangulation is
    Delaunay whenever a point is located."""
    while True:
        v, on = tv[t], -1
        for i in range(3):
            side = _orient(xy[v[i - 2]], xy[v[i - 1]], q)
            if side < 0:
                t = tn[t][i]
                break
            if side == 0:
                on = i
        else:
            return t, on


def _flip(tv, tn, xy, stack: list[int]) -> None:
    """Lawson flips around the new point p, corner 0 of every triangle
    on ``stack``: while the triangle u across from p has its far corner
    d strictly inside the circle through (p, b, c), replace the edge
    (b, c) by (p, d)."""
    while stack:
        t = stack.pop()
        u = tn[t][0]
        if u < 0:
            continue
        j = tn[u].index(t)
        p, b, c = tv[t]
        d = tv[u][j]
        if _incircle(xy[p], xy[b], xy[c], xy[d]) <= 0:
            continue
        _, ntb, ntc = tn[t]
        nuc, nub = tn[u][j - 2], tn[u][j - 1]  # across (b, d) and (d, c)
        tv[t], tn[t] = [p, b, d], [nuc, u, ntc]
        tv[u], tn[u] = [p, d, c], [nub, ntb, t]
        _relink(tn, nuc, u, t)
        _relink(tn, ntb, t, u)
        stack += [t, u]


def _relink(tn, t, old, new) -> None:
    """Point triangle ``t``'s link to ``old`` at ``new`` (no-op at -1)."""
    if t >= 0:
        tn[t][tn[t].index(old)] = new
