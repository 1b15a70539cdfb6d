"""Tracer mechanics, and that a traced solve leaves the program as it was."""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_time_is_span_minus_children():
    owner = type("M", (), {"leaf": staticmethod(lambda x: (time.sleep(0.01), x)[1])})
    tr = Tracer()
    tr.patch(owner, "leaf", "leaf", after=lambda t, args, r: t.count("leaves", 1))
    try:
        with tr.span("root"):
            time.sleep(0.02)
            owner.leaf(1)
            owner.leaf(2)
    finally:
        tr.restore()
    own, tot = tr.totals(self_time=True), tr.totals()
    assert tr.calls() == {"leaf": 2, "root": 1}
    assert tr.counters == {"leaves": 2}
    assert np.isclose(own["root"], tot["root"] - tot["leaf"])
    assert own["root"] >= 0.02 and tot["leaf"] >= 0.02
    assert np.isclose(sum(own.values()), tot["root"])
    assert tr.parents == [-1, 0, 0]


def test_failing_call_closes_its_span_and_restore_puts_originals_back():
    def boom():
        raise ValueError("boom")

    owner = type("M", (), {"boom": staticmethod(boom)})
    original = vars(owner)["boom"]
    tr = Tracer()
    tr.patch(owner, "boom", "boom")
    assert vars(owner)["boom"] is not original
    try:
        owner.boom()
    except ValueError:
        pass
    tr.restore()
    assert vars(owner)["boom"] is original
    assert tr.current() is None and tr.ends[0] >= tr.starts[0]


def test_save_writes_spans(tmp_path):
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
    tr.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as f:
        assert f["name"].tolist() == ["a", "b"]
        assert f["parent"].tolist() == [-1, 0]
        assert np.all(f["end"] >= f["start"])


def test_traced_solves_restore_every_patched_name():
    before = layers.bindings()
    for name in workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        pts = workloads.make_points(w, 300, seed=3)
        tr = Tracer()
        layers.install(tr)
        try:
            assert all(layers.bindings()[k] is not v for k, v in before.items())
            with tr.span("solve"):
                out = workloads.solve(w, pts)  # no Spark: the sequential path
        finally:
            tr.restore()
        assert workloads.check(workloads.reference(w, pts), 300, out) is None
        m = layers.solve_metrics(tr, w.pipeline, 300, out["stats"], {})
        assert set(m) == set(layers.METRICS) - {"trace.solve_s", "trace.overhead_s"}
        assert m["bccp.calls"] == len(tr.samples["bccp.pair_cells"])
        assert 0 < m["trace.covered_frac"] <= 1
    after = layers.bindings()
    assert all(after[k] is v for k, v in before.items())


def test_check_rejects_wrong_trees():
    w = workloads.WORKLOADS["emst-gfk-uniform3d"]
    pts = workloads.make_points(w, 200, seed=5)
    ref = workloads.reference(w, pts)
    out = workloads.solve(w, pts)
    assert workloads.check(ref, 200, out) is None
    short = dict(out, edges=out["edges"][:-1])
    assert "edges" in workloads.check(ref, 200, short)
    heavy = out["edges"].copy()
    heavy[0, 2] *= 1.5
    assert "weight" in workloads.check(ref, 200, dict(out, edges=heavy))
    loop = out["edges"].copy()
    loop[0, :2] = loop[1, :2]
    assert "span" in workloads.check(ref, 200, dict(out, edges=loop))


def test_bruteforce_core_distances_match_sorted_distances():
    rng = np.random.default_rng(0)
    pts = rng.random((150, 3))
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    expect = np.sort(d, axis=1)[:, workloads.MIN_PTS - 1]
    assert np.allclose(workloads.core_distances_bruteforce(pts, workloads.MIN_PTS), expect)
