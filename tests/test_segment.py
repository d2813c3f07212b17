import numpy as np
import pytest

from switchsde.segment import Segment, SegmentBatch


def test_constant_window_basics():
    seg = Segment.make_constant([2.0, -1.0], delay=1.0, dt=0.25)
    assert seg.n_samples == 5
    assert seg.dim == 2
    assert np.allclose(seg.terminal(), [2.0, -1.0])
    assert seg.sup_norm() == pytest.approx(np.sqrt(5.0))
    assert np.allclose(seg.value_at(-0.6), [2.0, -1.0])


def test_requires_grid_compatible_delay():
    with pytest.raises(ValueError):
        Segment.make_constant([0.0], delay=1.0, dt=0.3)
    with pytest.raises(ValueError):
        Segment.make_constant([0.0], delay=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        Segment(np.zeros((3, 1)), delay=1.0, dt=0.25)  # wrong sample count
    with pytest.raises(ValueError):
        Segment(np.full((5, 1), np.inf), delay=1.0, dt=0.25)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="delay must be finite"):
            Segment.make_constant([0.0], delay=bad, dt=0.25)
        with pytest.raises(ValueError, match="dt must be finite"):
            Segment.make_constant([0.0], delay=1.0, dt=bad)
        with pytest.raises(ValueError, match="delay must be finite"):
            Segment(np.zeros((5, 1)), delay=bad, dt=0.25)


def test_push_slides_window():
    seg = Segment.make_constant([0.0], delay=1.0, dt=0.5)
    for v in (1.0, 2.0, 3.0):
        seg.push([v])
    # window now holds the last three samples pushed
    assert np.allclose(seg.samples[:, 0], [1.0, 2.0, 3.0])
    assert seg.terminal()[0] == 3.0
    assert np.allclose(seg.value_at(-1.0), [1.0])
    assert seg.sup_norm() == 3.0


def test_push_rejects_wrong_shape():
    seg = Segment.make_constant([0.0, 0.0], delay=1.0, dt=0.5)
    with pytest.raises(ValueError):
        seg.push([1.0])


def test_value_at_interpolates_linearly():
    samples = np.array([[0.0], [1.0], [4.0]])
    seg = Segment(samples, delay=1.0, dt=0.5)
    assert seg.value_at(-0.75)[0] == pytest.approx(0.5)
    assert seg.value_at(-0.25)[0] == pytest.approx(2.5)
    # grid points are returned exactly
    assert seg.value_at(-0.5)[0] == 1.0
    assert seg.value_at(0.0)[0] == 4.0
    with pytest.raises(ValueError):
        seg.value_at(-1.5)
    with pytest.raises(ValueError):
        seg.value_at(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_value_at_refuses_an_offset_that_is_not_a_number_in_range(bad):
    # a NaN offset once passed the range test and failed converting to an index
    seg = Segment(np.array([[0.0], [1.0], [4.0]]), delay=1.0, dt=0.5)
    batch = SegmentBatch(np.zeros((3, 2, 1)), 0, np.arange(2), 1.0, 0.5)
    for window in (seg, batch):
        with pytest.raises(ValueError, match=rf"offset {bad} outside \[-1.0, 0\]"):
            window.value_at(bad)


def test_value_at_after_wraparound():
    seg = Segment(np.array([[0.0], [1.0], [2.0]]), delay=1.0, dt=0.5)
    seg.push([3.0])  # logical window is now (1, 2, 3)
    assert seg.value_at(-1.0)[0] == 1.0
    assert seg.value_at(-0.25)[0] == pytest.approx(2.5)
    assert seg.terminal()[0] == 3.0


def test_integrate_against_point_masses():
    seg = Segment(np.array([[1.0], [2.0], [5.0]]), delay=2.0, dt=1.0)
    got = seg.integrate_against([(-2.0, 0.5), (0.0, 2.0)])
    assert got[0] == pytest.approx(0.5 * 1.0 + 2.0 * 5.0)


def test_copy_is_detached():
    seg = Segment.make_constant([1.0], delay=1.0, dt=0.5)
    dup = seg.copy()
    seg.push([9.0])
    assert dup.terminal()[0] == 1.0
    assert seg.terminal()[0] == 9.0


def test_many_pushes_keep_chronological_order():
    rng = np.random.default_rng(7)
    seg = Segment.make_constant([0.0], delay=1.0, dt=0.1)
    vals = list(np.zeros(11))
    for _ in range(37):
        v = float(rng.standard_normal())
        seg.push([v])
        vals = vals[1:] + [v]
    assert np.allclose(seg.samples[:, 0], vals)
    assert seg.sup_norm() == pytest.approx(max(abs(v) for v in vals))
