"""Array-based spatial-median kd-tree.

This is the substrate used by every algorithm in the paper: WSPD
construction (Algorithm 1), the GetRho/GetPairs pruned traversals of
MemoGFK (Algorithm 3), k-NN core-distance queries, and the Boruvka
baseline; a run builds it once (k-NN and Boruvka share one block
kernel over its nodes capped by size, ``repro.geometry.knn``). Nodes are stored in flat NumPy arrays so the whole
tree can be pickled into a Spark broadcast variable and traversed
cheaply inside executors.

Points are *reordered* during the build so that every tree node owns a
contiguous range ``[lo, hi)`` of the point array. A well-separated pair
is therefore just four integers, which is what makes the Spark fan-out
of BCCP kernels cheap (see ``repro.engine.distribute``).

The split rule is the paper's "spatial median": cut the widest
dimension of the node's bounding box at its midpoint, falling back to
an object-median split when duplicates would make a side empty.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KDTree:
    """A kd-tree over ``pts`` (already reordered; ``perm`` maps back).

    Node arrays are indexed by node id; node 0 is the root. Leaves have
    ``left == -1``. ``lo``/``hi`` give the half-open point range of a
    node in the reordered array. ``center``/``radius`` describe the
    bounding sphere of the node's bounding box (the paper's d(A, B) and
    A_diam are defined on these spheres).

    ``cd`` / ``cd_min`` / ``cd_max`` are filled by
    :func:`attach_core_distances` for HDBSCAN*'s new well-separation
    test; they stay ``None`` for plain EMST.
    """

    pts: np.ndarray          # (n, d) float64, reordered
    perm: np.ndarray         # (n,) int64: perm[i] = original id of row i
    left: np.ndarray         # (m,) int32, -1 for leaf
    right: np.ndarray        # (m,) int32
    lo: np.ndarray           # (m,) int64
    hi: np.ndarray           # (m,) int64
    bb_min: np.ndarray       # (m, d)
    bb_max: np.ndarray       # (m, d)
    center: np.ndarray       # (m, d)
    radius: np.ndarray       # (m,)
    cd: np.ndarray | None = field(default=None)       # (n,) reordered core distances
    cd_min: np.ndarray | None = field(default=None)   # (m,)
    cd_max: np.ndarray | None = field(default=None)   # (m,)

    @property
    def n(self) -> int:
        return self.pts.shape[0]

    @property
    def dim(self) -> int:
        return self.pts.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.left.shape[0]

    def size(self, node: int) -> int:
        """Number of points owned by ``node``."""
        return int(self.hi[node] - self.lo[node])

    def diam(self, node: int) -> float:
        """Diameter of the node's bounding sphere (paper's A_diam)."""
        return 2.0 * float(self.radius[node])

    def node_dist(self, a: int, b: int) -> float:
        """Paper's d(A, B): min distance between the bounding spheres.

        A valid lower bound on every cross distance (hence on BCCP).
        """
        c = float(np.linalg.norm(self.center[a] - self.center[b]))
        return max(0.0, c - float(self.radius[a]) - float(self.radius[b]))

    def node_dist_max(self, a: int, b: int) -> float:
        """Paper's d_max(A, B): max distance between the bounding
        spheres — an upper bound on every cross distance (hence on BCCP)."""
        c = float(np.linalg.norm(self.center[a] - self.center[b]))
        return c + float(self.radius[a]) + float(self.radius[b])

    def well_separated(self, a: int, b: int, s: float = 2.0) -> bool:
        """Callahan–Kosaraju well-separation with separation constant s.

        Both nodes are enclosed in spheres of radius r = max(r_a, r_b);
        well-separated iff the gap between those spheres is >= s * r.
        """
        r = max(float(self.radius[a]), float(self.radius[b]))
        c = float(np.linalg.norm(self.center[a] - self.center[b]))
        return c - 2.0 * r >= s * r

    def geo_separated(self, a: int, b: int) -> bool:
        """HDBSCAN* paper's geometric separation:
        d(A, B) >= max(A_diam, B_diam)."""
        return self.node_dist(a, b) >= max(self.diam(a), self.diam(b))

    def mutually_unreachable(self, a: int, b: int) -> bool:
        """HDBSCAN* paper's mutual-unreachability (needs core distances):

        max{d(A,B), cd_min(A), cd_min(B)}
            >= max{A_diam, B_diam, cd_max(A), cd_max(B)}.
        """
        if self.cd_min is None:
            raise ValueError("hdbscan separation needs attach_core_distances()")
        lhs = max(self.node_dist(a, b), float(self.cd_min[a]), float(self.cd_min[b]))
        rhs = max(
            self.diam(a),
            self.diam(b),
            float(self.cd_max[a]),
            float(self.cd_max[b]),
        )
        return lhs >= rhs

    def points_of(self, node: int) -> np.ndarray:
        """Original ids of the points owned by ``node``."""
        return self.perm[self.lo[node] : self.hi[node]]


def check_points(points: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 copy of ``points``; ValueError unless it
    is a non-empty, finite (n, d) array whose box arithmetic is finite
    too: box centers (min + max) and four times the squared box diagonal,
    the headroom ``bccp_kernel``'s |p|^2 + |q|^2 - 2 p.q form needs.
    That diagonal term must also be 0 (all points equal) or a normal
    float: below that, squared distances underflow and MSTs come out
    light (all zero at extent 1e-170)."""
    pts = np.array(points, dtype=np.float64, copy=True, order="C")
    if pts.ndim != 2:
        raise ValueError("points must be (n, d)")
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf)")
    # One-segment reduceat: on (n, d) rows it is ~8x faster than min(axis=0).
    lo, hi = np.minimum.reduceat(pts, [0])[0], np.maximum.reduceat(pts, [0])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        diag2 = 4.0 * np.dot(span, span)
        ok = np.isfinite(lo + hi).all() and np.isfinite(diag2)
    if not ok:
        raise ValueError("coordinates too large: their bounding box is not finite in float64")
    if diag2 < 2.0**-1022 and span.any():  # below the smallest normal float64
        raise ValueError("coordinates too close together: their squared distances underflow float64")
    return pts


def build(points: np.ndarray) -> KDTree:
    """Build the spatial-median kd-tree over ``points`` (n, d), with one
    point per leaf: 2n - 1 nodes, so the arrays are allocated up front.

    Level-synchronous, as the paper's parallel build: each pass splits
    every segment of the frontier at once (one min/max ``reduceat`` for
    the boxes, one cut per segment, one stable partition by (segment,
    side)) and drops the size-1 segments; there is no recursion, and a
    skewed input costs one pass per level. An internal node's bounding
    box is the min/max its split computes; a leaf's is its point.

    Node ids are those of a depth-first build that splits the right
    child first: the internal node of rank k in that right-first
    preorder gets children 2k + 1 (left) and 2k + 2 (right). Its right
    child has rank k + 1 and its left child rank k + |right child|,
    since a subtree of s points holds s - 1 internal nodes.
    """
    # The input stays in original-id order (edge ids refer to it); the
    # tree's rows are a reordered copy.
    src = check_points(points)
    n, d = src.shape
    perm = np.arange(n, dtype=np.int64)
    m = 2 * n - 1
    left = np.full(m, -1, dtype=np.int32)
    right = np.full(m, -1, dtype=np.int32)
    los = np.empty(m, dtype=np.int64)
    his = np.empty(m, dtype=np.int64)
    bb_min = np.empty((m, d))
    bb_max = np.empty((m, d))
    los[0], his[0] = 0, n
    # Frontier of segments with >= 2 points: node id, preorder rank,
    # first row and size.
    node = np.zeros(1 if n > 1 else 0, dtype=np.int64)
    rank = np.zeros_like(node)
    lo = np.zeros_like(node)
    size = np.full_like(node, n)
    while node.size:
        starts = np.cumsum(size) - size        # segment starts among active rows
        seg = np.repeat(np.arange(node.size), size)
        pos = np.arange(seg.size) - starts[seg]  # row offset in its segment
        rows = lo[seg] + pos
        sub = src[perm[rows]]
        mn = bb_min[node] = np.minimum.reduceat(sub, starts, axis=0)
        mx = bb_max[node] = np.maximum.reduceat(sub, starts, axis=0)
        widths = mx - mn
        dim = np.argmax(widths, axis=1)
        at = np.arange(node.size)
        cut = 0.5 * (mn[at, dim] + mx[at, dim])
        keys = sub[np.arange(seg.size), dim[seg]]
        side = keys < cut[seg]                 # True: left child
        mid = np.add.reduceat(side, starts, dtype=np.int64)
        half = size // 2
        flat = widths[at, dim] <= 0.0
        # All points identical: object-median split in row order.
        side[flat[seg]] = (pos < half[seg])[flat[seg]]
        mid[flat] = half[flat]
        # Duplicates piled on the midpoint: stable sort, object median.
        stuck = ~flat & ((mid == 0) | (mid == size))
        mid[stuck] = half[stuck]
        # Stable partition by (segment, side): left rows first, then
        # right rows, each in row order.
        n_left = np.cumsum(side) - side        # left rows before each row
        left_dest = n_left - n_left[starts][seg]
        dest = lo[seg] + np.where(side, left_dest, mid[seg] + pos - left_dest)
        if stuck.any():
            fix = np.flatnonzero(stuck[seg])
            order = np.lexsort((keys[fix], seg[fix]))
            dest[fix[order]] = rows[fix]
        perm[dest] = perm[rows]
        l, r = 2 * rank + 1, 2 * rank + 2
        left[node], right[node] = l, r
        los[l], his[l], los[r], his[r] = lo, lo + mid, lo + mid, lo + size
        size_r = size - mid
        node = np.concatenate([l, r])
        rank = np.concatenate([rank + size_r, rank + 1])
        lo = np.concatenate([lo, lo + mid])
        size = np.concatenate([mid, size_r])
        split = size > 1
        node, rank, lo, size = node[split], rank[split], lo[split], size[split]

    pts = src[perm]
    leaves = left < 0
    bb_min[leaves] = bb_max[leaves] = pts[los[leaves]]
    center = 0.5 * (bb_min + bb_max)
    # The radius is the distance from the stored (rounded) center to the
    # farthest box corner, in the form of ``wspd.v_center_dist``, rounded
    # up one ulp. Rounding is monotone, so no point's computed distance
    # to the center exceeds it, however far the box is from the origin,
    # and d(A, B) stays a lower bound on BCCP. A zero-width box is exact.
    far = np.maximum(center - bb_min, bb_max - center)
    radius = np.sqrt(np.einsum("ij,ij->i", far, far))
    radius = np.where(radius > 0.0, np.nextafter(radius, np.inf), 0.0)
    return KDTree(
        pts=pts,
        perm=perm,
        left=left,
        right=right,
        lo=los,
        hi=his,
        bb_min=bb_min,
        bb_max=bb_max,
        center=center,
        radius=radius,
    )


def attach_core_distances(tree: KDTree, core_dist: np.ndarray) -> None:
    """Store per-point core distances (indexed by *original* id) and
    each node's cd_min / cd_max over its point range.

    This is the tree augmentation behind the paper's new notion of
    well-separation (Section 3.2.2).
    """
    cd = np.asarray(core_dist, dtype=np.float64)[tree.perm]
    # One reduceat over the interleaved [lo, hi) bounds of every node:
    # its even outputs are the node ranges (cd gets a pad row so that
    # hi = n is a valid index).
    bounds = np.stack([tree.lo, tree.hi], axis=1).ravel()
    padded = np.append(cd, 0.0)
    tree.cd = cd
    tree.cd_min = np.minimum.reduceat(padded, bounds)[::2]
    tree.cd_max = np.maximum.reduceat(padded, bounds)[::2]
