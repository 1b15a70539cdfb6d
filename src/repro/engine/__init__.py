"""Spark execution substrate: the paper's shared-memory parallel loops
as RDD map jobs over dealt groups, with a per-job tree broadcast (see
DESIGN.md §3)."""
