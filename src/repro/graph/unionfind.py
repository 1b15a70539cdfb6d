"""Union-find (disjoint set union) with path compression + union by size.

No algorithm calls it: it is the tests' reference for the vectorized
``kruskal.spanning_forest`` and for the bottom-up dendrogram's list
union-find (``dendrogram._bottom_up``).
"""
from __future__ import annotations

import numpy as np


class UnionFind:
    """Classic DSU over ``n`` elements."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        p = self.parent
        while p[root] != root:
            root = p[root]
        # Path compression.
        while p[x] != root:
            p[x], x = root, p[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Join the components of a and b; True iff they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True
