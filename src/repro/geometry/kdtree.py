"""Array-based spatial-median kd-tree.

This is the substrate used by every algorithm in the paper: WSPD
construction (Algorithm 1), the GetRho/GetPairs pruned traversals of
MemoGFK (Algorithm 3), k-NN core-distance queries, and the dual-tree
Boruvka baseline; a run builds it once (k-NN and Boruvka scan nodes
capped by size). Nodes are stored in flat NumPy arrays so the whole
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
        assert self.cd_min is not None and self.cd_max is not None
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
    is a non-empty, finite (n, d) array."""
    pts = np.array(points, dtype=np.float64, copy=True, order="C")
    if pts.ndim != 2:
        raise ValueError("points must be (n, d)")
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf)")
    return pts


def build(points: np.ndarray) -> KDTree:
    """Build the spatial-median kd-tree over ``points`` (n, d), with one
    point per leaf: 2n - 1 nodes, so the arrays are allocated up front.

    Iterative (explicit stack) so that skewed inputs cannot overflow
    Python's recursion limit. O(n log n) expected. An internal node's
    bounding box is the min/max its split computes; a leaf's is its point.
    """
    # Always copy: the build reorders rows in place, and the caller's
    # array must stay in original-id order (edge ids refer to it).
    pts = check_points(points)
    n, d = pts.shape
    perm = np.arange(n, dtype=np.int64)
    m = 2 * n - 1
    left = np.full(m, -1, dtype=np.int32)
    right = np.full(m, -1, dtype=np.int32)
    los = np.empty(m, dtype=np.int64)
    his = np.empty(m, dtype=np.int64)
    bb_min = np.empty((m, d))
    bb_max = np.empty((m, d))
    los[0], his[0] = 0, n
    # Children are numbered when their parent is split, in pop order.
    used = 1
    stack = [0]
    while stack:
        node = stack.pop()
        lo, hi = int(los[node]), int(his[node])
        if hi - lo == 1:
            continue
        seg = pts[lo:hi]
        mn = bb_min[node] = seg.min(axis=0)
        mx = bb_max[node] = seg.max(axis=0)
        widths = mx - mn
        dim = int(np.argmax(widths))
        if widths[dim] <= 0.0:
            # All points identical: object-median split keeps progress.
            mid = (hi - lo) // 2
            order = np.arange(hi - lo)
        else:
            cut = 0.5 * (mn[dim] + mx[dim])
            keys = seg[:, dim]
            mask = keys < cut
            mid = int(mask.sum())
            if mid == 0 or mid == hi - lo:
                # Duplicates piled on the midpoint: fall back to median.
                mid = (hi - lo) // 2
                order = np.argsort(keys, kind="stable")
            else:
                order = np.argsort(~mask, kind="stable")  # True (left) first
        pts[lo:hi] = seg[order]
        perm[lo:hi] = perm[lo:hi][order]
        l, r = used, used + 1
        used += 2
        left[node], right[node] = l, r
        los[l], his[l], los[r], his[r] = lo, lo + mid, lo + mid, hi
        stack.append(l)
        stack.append(r)

    leaves = left < 0
    bb_min[leaves] = bb_max[leaves] = pts[los[leaves]]
    return KDTree(
        pts=pts,
        perm=perm,
        left=left,
        right=right,
        lo=los,
        hi=his,
        bb_min=bb_min,
        bb_max=bb_max,
        center=0.5 * (bb_min + bb_max),
        radius=0.5 * np.linalg.norm(bb_max - bb_min, axis=1),
    )


def attach_core_distances(tree: KDTree, core_dist: np.ndarray) -> None:
    """Store per-point core distances (indexed by *original* id) and
    fill per-node cd_min / cd_max bottom-up.

    This is the tree augmentation behind the paper's new notion of
    well-separation (Section 3.2.2).
    """
    cd = np.asarray(core_dist, dtype=np.float64)[tree.perm]
    m = tree.n_nodes
    cd_min = np.empty(m)
    cd_max = np.empty(m)
    # Children always have larger ids than their parent (allocation
    # order), so a reverse scan is a valid bottom-up pass.
    for i in range(m - 1, -1, -1):
        if tree.left[i] < 0:
            seg = cd[tree.lo[i] : tree.hi[i]]
            cd_min[i] = seg.min()
            cd_max[i] = seg.max()
        else:
            l, r = tree.left[i], tree.right[i]
            cd_min[i] = min(cd_min[l], cd_min[r])
            cd_max[i] = max(cd_max[l], cd_max[r])
    tree.cd = cd
    tree.cd_min = cd_min
    tree.cd_max = cd_max
