import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde.registry import REGISTRY_NAMES, registry_get
from switchsde.segment import Segment, SegmentBatch

DEFAULTS = {
    "switched_ou": {"theta": 1.0, "mu": 0.0, "sigma": 0.5, "c": 1.0},
    "controlled_scalar": {"A": 1.0, "B": 1.0, "sigma": 0.2, "L": 3.0, "c": 1.0},
    "fluid_queue": {"f": [1.0, -2.0, 0.5], "c": 1.0},
    "predator_prey": {"beta": 1.0, "delta": 0.5, "n_max": 20, "phi_cap": 5.0},
    "linear_2d": {"B": [[-1.0, 0.5], [0.0, -2.0]], "A": [0.3, -0.2]},
}


def probe_segment(spec, value=1.5):
    return Segment.make_constant(
        np.full(spec.dim, value), spec.delay, spec.delay / 8.0
    )


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_shapes_and_rate_bounds(name):
    spec, lin = registry_get(name, DEFAULTS[name])
    x = np.linspace(0.5, 1.5, spec.dim)
    seg = probe_segment(spec)
    for i in (1, 2, 3, 7):
        b = np.asarray(spec.drift(x, i), dtype=float)
        assert b.shape == (spec.dim,)
        sig = np.asarray(spec.diffusion(x, i), dtype=float)
        assert sig.shape == (spec.dim, spec.brownian_dim)
        row = spec.rates_row(seg, i)
        assert all(j >= 1 and j != i for j in row)
        assert all(rate >= 0.0 for rate in row.values())
        assert sum(row.values()) <= spec.rate_bound + 1e-9
        ref = lin.qhat.row(i)
        assert sum(ref.values()) <= lin.qhat.rate_bound + 1e-9
        assert lin.b_mat(i).shape == (spec.dim, spec.dim)
        mats = lin.sigma_mats(i)
        assert len(mats) == spec.brownian_dim
        assert all(np.asarray(s).shape == (spec.dim, spec.dim) for s in mats)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_batched_evaluation_matches_pointwise(name):
    spec, _ = registry_get(name, DEFAULTS[name])
    rng = np.random.default_rng(1)
    xs = np.abs(rng.standard_normal((6, spec.dim))) + 0.1
    for i in (1, 4):
        bb = np.asarray(spec.drift(xs, i), dtype=float)
        assert bb.shape == (6, spec.dim)
        # constant diffusions may come back unbatched; they must broadcast
        sb = np.broadcast_to(
            np.asarray(spec.diffusion(xs, i), dtype=float),
            (6, spec.dim, spec.brownian_dim),
        )
        for k in range(6):
            assert np.allclose(bb[k], spec.drift(xs[k], i))
            assert np.allclose(sb[k], spec.diffusion(xs[k], i))


def test_unknown_name_raises():
    with pytest.raises(ValueError):
        registry_get("no_such_family", {})


@pytest.mark.parametrize(
    "name, params, match",
    [
        ("switched_ou", {"theta": []}, "empty per-mode sequence"),
        ("switched_ou", {"c": -1}, "nonnegative"),
        ("controlled_scalar", {"c": 0}, "positive"),
        ("controlled_scalar", {"controllable": [0]}, "mode .* >= 1, got 0"),
        ("predator_prey", {"beta": -1}, "nonnegative"),
        ("predator_prey", {"n_max": 1}, "n_max >= 2"),
        ("linear_2d", {"B": [1.0, 2.0]}, "B must be"),
        ("linear_2d", {"B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "B matrices must be 2x2"),
        ("linear_2d", {"A": [[[1.0, 2.0]]]}, "A must be"),
        ("linear_2d", {"A": [1.0, 2.0, 3.0]}, "A vectors must have length 2"),
        ("linear_2d", {"qhat": "nope"}, "unknown qhat family"),
        # int() once read 1.5 as mode 1 and True as mode 1
        ("controlled_scalar", {"controllable": [1.5]}, "controllable mode .* got 1.5"),
        ("controlled_scalar", {"controllable": [True]}, "controllable mode .* got True"),
    ],
)
def test_invalid_parameters_raise(name, params, match):
    with pytest.raises(ValueError, match=match):
        registry_get(name, params)


def test_linear_2d_qhat_families():
    _, lin = registry_get("linear_2d", {"qhat": "controlled_scalar"})
    assert lin.qhat.row(1) == {2: 1.0}
    assert lin.qhat.row(3) == {1: 1.0, 4: 1.0}
    spec, lin = registry_get("linear_2d", {"qhat": [[1, 2, 0.5], [2, 1, 0.25]]})
    assert lin.qhat.row(1) == {2: 0.5}
    assert lin.qhat.row(2) == {1: 0.25}
    assert lin.qhat.rate_bound == spec.rate_bound == 0.5


def test_per_mode_sequences_clamp():
    spec, _ = registry_get("switched_ou", {"theta": [1.0, 2.0], "mu": 0.0})
    assert spec.drift(np.array([1.0]), 1)[0] == pytest.approx(-1.0)
    assert spec.drift(np.array([1.0]), 2)[0] == pytest.approx(-2.0)
    assert spec.drift(np.array([1.0]), 9)[0] == pytest.approx(-2.0)


def test_switched_ou_rates_shrink_with_history_norm():
    spec, lin = registry_get("switched_ou", {"c": 1.0})
    small = probe_segment(spec, value=0.0)
    large = probe_segment(spec, value=99.0)
    row_small = spec.rates_row(small, 3)
    row_large = spec.rates_row(large, 3)
    assert set(row_small) == {1, 2, 4}
    assert row_small[1] == pytest.approx(2.0)
    assert row_large[1] == pytest.approx(1.01)
    assert lin.qhat.row(3) == {1: 1.0, 2: 1.0, 4: 1.0}


def test_controlled_scalar_rates_read_oldest_point():
    spec, _ = registry_get("controlled_scalar", {"c": 1.0})
    seg = probe_segment(spec, value=0.0)
    # only the delayed endpoint matters
    for v in (3.0, 3.0, 3.0, 3.0):
        seg.push(np.array([v]))
    row = spec.rates_row(seg, 2)
    z = float(seg.value_at(-spec.delay)[0])
    assert row == {1: z / (1.0 + z), 3: z / (1.0 + z)}
    assert spec.rates_row(seg, 1) == {2: z / (1.0 + z)}


# |z| from the square root of the smallest normal double to that of the
# largest double: the range where z * z is a normal double
NORMAL_SQUARES = st.floats(2.0**-511, 1.3e154)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(NORMAL_SQUARES, st.booleans()), min_size=1, max_size=4),
       st.integers(1, 4))
def test_controlled_scalar_rates_keep_the_bits_of_the_square_root(zs, i):
    # |z| was once taken as sqrt(z * z), which overflows past about 1.3e154;
    # wherever z * z is a normal double the two agree bit for bit
    spec, _ = registry_get("controlled_scalar", {"c": [0.5, 1.0, 3.0]})
    z = np.array([-v if neg else v for v, neg in zs])
    ref = np.sqrt(z * z)
    want = ref / ([0.5, 1.0, 3.0][min(i, 3) - 1] + ref)
    dt, m = spec.delay / 8.0, 9
    ring = np.repeat(z[None, :, None], m, axis=0)
    view = SegmentBatch(ring, 0, np.arange(z.size), spec.delay, dt)
    for rate in spec.rates_row(view, i).values():
        assert rate.tobytes() == want.tobytes()
    for p, v in enumerate(z):
        for rate in spec.rates_row(Segment.make_constant([v], spec.delay, dt), i).values():
            assert np.float64(rate).tobytes() == want[p].tobytes()


def test_controlled_scalar_control_only_on_declared_modes():
    spec, lin = registry_get(
        "controlled_scalar",
        {"A": 1.0, "B": 1.0, "L": 3.0, "controllable": [1]},
    )
    assert lin.b_mat(1)[0, 0] == pytest.approx(-2.0)
    assert lin.b_mat(2)[0, 0] == pytest.approx(1.0)
    assert spec.meta["input_matrix"](1)[0, 0] == pytest.approx(1.0)
    assert spec.meta["input_matrix"](2)[0, 0] == pytest.approx(0.0)


def test_fluid_queue_boundary_behavior():
    spec, _ = registry_get("fluid_queue", DEFAULTS["fluid_queue"])
    assert spec.zero_diffusion
    # draining mode cannot push the state below the boundary
    assert spec.drift(np.array([0.0]), 2)[0] == 0.0
    assert spec.drift(np.array([1.0]), 2)[0] == pytest.approx(-2.0)
    assert spec.post_step(np.array([-0.3]))[0] == 0.0


def test_predator_prey_respects_mode_cap():
    spec, lin = registry_get("predator_prey", DEFAULTS["predator_prey"])
    seg = probe_segment(spec, value=2.0)
    assert 1 not in spec.rates_row(seg, 1)  # no death below mode 2
    top = spec.rates_row(seg, lin.qhat.n_modes)
    assert lin.qhat.n_modes + 1 not in top  # birth stops at the cap
    mid = spec.rates_row(seg, 5)
    assert set(mid) == {4, 6}
    assert sum(mid.values()) <= spec.rate_bound + 1e-9
    # feed term saturates at the declared cap
    big = probe_segment(spec, value=1e6)
    capped = spec.rates_row(big, 5)
    assert capped[4] == pytest.approx(lin.qhat.row(5)[4])


def test_predator_prey_limit_rows_are_the_capped_rate_rows():
    spec, lin = registry_get("predator_prey", DEFAULTS["predator_prey"])
    n_max = lin.qhat.n_modes
    seg = probe_segment(spec, value=DEFAULTS["predator_prey"]["phi_cap"])
    for n in range(1, n_max + 1):
        assert spec.rates_row(seg, n) == lin.qhat.row(n)
    bound = max(spec.mode_rate_bound(n) for n in range(1, n_max + 1))
    assert spec.rate_bound == lin.qhat.rate_bound == bound


def test_linear_2d_rates_are_history_free():
    spec, lin = registry_get("linear_2d", DEFAULTS["linear_2d"])
    assert not spec.rates_depend_on_path
    seg = probe_segment(spec, value=7.0)
    assert spec.rates_row(seg, 4) == lin.qhat.row(4)
    # diffusion gate vanishes at the origin
    assert np.allclose(spec.diffusion(np.zeros(2), 1), 0.0)


def test_linear_2d_noise_matrices_are_rank_one():
    _, lin = registry_get("linear_2d", {"c1": 0.4, "c2": 0.7})
    s1, s2 = lin.sigma_mats(1)
    assert np.allclose(s1, np.diag([0.4, 0.0]))
    assert np.allclose(s2, np.diag([0.0, 0.7]))


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_mode_bounds_dominate_rows(name):
    params = DEFAULTS[name]
    spec, lin = registry_get(name, params)
    assert spec.mode_rate_bound is not None
    rng = np.random.default_rng(5)
    shape = (9, spec.dim)  # delay / dt + 1 samples at dt = delay / 8
    histories = {
        "random": 3.0 * rng.standard_normal(shape),
        "zero": np.zeros(shape),
        "huge": 1e12 * rng.standard_normal(shape),
    }
    if name == "predator_prey":
        # the feed level reads phi(0) clamped to phi_cap; pin it at the cap
        histories["feed_at_cap"] = np.full(shape, params["phi_cap"])
    for label, samples in histories.items():
        seg = Segment(samples, spec.delay, spec.delay / 8.0)
        for i in range(1, min(60, lin.qhat.n_modes or 60) + 1):
            total = sum(spec.rates_row(seg, i).values())
            assert total <= spec.mode_rate_bound(i) <= spec.rate_bound, (label, i)


# predator_prey again, with a feed that interpolates between grid samples
BATCH_CASES = [(name, DEFAULTS[name]) for name in REGISTRY_NAMES] + [
    ("predator_prey", dict(DEFAULTS["predator_prey"],
                           mu_weights=[(-0.3, 0.5), (0.0, 0.5), (-1.0, 0.25)])),
]


@pytest.mark.parametrize("name, params", BATCH_CASES,
                         ids=[*REGISTRY_NAMES, "predator_prey_interpolated"])
def test_batch_rows_equal_per_path_rows(name, params):
    # the oracle is rates_row on each path's own Segment, compared bit for bit
    spec, _ = registry_get(name, params)
    dt, m = spec.delay / 8.0, 9
    rng = np.random.default_rng(11)
    wins = 3.0 * rng.standard_normal((8, m, spec.dim))
    wins[0] = 0.0  # a zero window
    wins[1, 0] = 0.0  # oldest sample 0: controlled_scalar at z = 0
    wins[2] = 1e12 * rng.standard_normal((m, spec.dim))
    wins[3] = 5.0  # predator_prey's feed at phi_cap
    wins[4] = 3.0 * 5.0  # and above it
    wins[5, -1] = 5.0  # phi(0) at the cap, the rest random
    head = 3  # the ring holds window k at slot (head + k) % m
    ring = np.empty((m, len(wins), spec.dim))
    ring[(head + np.arange(m)) % m] = wins.transpose(1, 0, 2)
    for paths in (np.arange(len(wins)), np.array([5, 0, 3])):
        view = SegmentBatch(ring, head, paths, spec.delay, dt)
        segs = [Segment(wins[p], spec.delay, dt) for p in paths]
        for i in range(1, 61):
            got = spec.rates_row(view, i)
            want = [spec.rates_row(seg, i) for seg in segs]
            assert all(sorted(got) == sorted(row) for row in want), i
            for j, rate in got.items():
                rates = np.broadcast_to(rate, paths.shape)
                assert np.array_equal(rates, [row[j] for row in want]), (i, j)



# sequence-valued parameters and controllable sets: (params, declared K)
SEQUENCES = {
    "switched_ou": ({"theta": [1.0, 2.0, 0.5], "mu": [0.0, 1.0], "sigma": [0.5, 0.1, 0.2, 0.3]}, 4),
    "controlled_scalar": (
        {"A": [1.0, 2.0], "B": [1.0, 3.0, 0.5, 2.0, 1.0], "C": [0.0, 0.5, 1.0],
         "sigma": [0.1, 0.2], "L": [3.0, 1.0, 2.0, 4.0, 5.0, 6.0], "controllable": [1, 4]},
        5,  # mode 4 is controllable; B and L change beyond it but act on no mode there
    ),
    "fluid_queue": ({"f": [1.0, -2.0, 0.5, 3.0]}, 4),
    "linear_2d": (
        {"B": [[[-1.0, 0.5], [0.0, -2.0]], [[-2.0, 0.0], [0.3, -1.0]]],
         "A": [[0.3, -0.2], [0.1, 0.1], [1.0, 2.0]], "c1": [0.4, 0.1], "c2": [0.2, 0.3, 0.5, 0.7]},
        4,
    ),
}


def shared_cases():
    for name in REGISTRY_NAMES:
        yield name, DEFAULTS[name], None
        if name in SEQUENCES:
            yield name, *SEQUENCES[name]
    yield "controlled_scalar", {"controllable": []}, 1
    yield "controlled_scalar", {"controllable": [3], "A": [1.0, 2.0], "L": 2.0}, 4


@pytest.mark.parametrize("name, params, want", shared_cases())
def test_shared_coefficients_repeat_from_the_declared_mode(name, params, want):
    spec, _ = registry_get(name, params)
    k = spec.shared_coefficients_from
    if name == "predator_prey":
        assert k is None  # its drift reads min(i, n_max): no tail to share
        return
    assert k is not None and (want is None or k == want)
    rng = np.random.default_rng(len(name) + k)
    x = rng.standard_normal((40, spec.dim)) * rng.choice([0.0, 1e-3, 1.0, 50.0], (40, 1))
    b_k, s_k = spec.drift(x, k), spec.diffusion(x, k)
    for i in range(k + 1, k + 26):
        assert np.array_equal(spec.drift(x, i), b_k)
        assert np.array_equal(spec.diffusion(x, i), s_k)
    if want is not None and k > 1:  # and no lower mode could be declared
        assert not (
            np.array_equal(spec.drift(x, k - 1), b_k)
            and np.array_equal(spec.diffusion(x, k - 1), s_k)
        )


def coeff_cases():
    for name in REGISTRY_NAMES:
        yield name, DEFAULTS[name]
        if name in SEQUENCES:
            yield name, SEQUENCES[name][0]
    # negative entries: the bound must take |.|, not the largest signed value
    yield "switched_ou", {"theta": [-3.0, 1.0]}
    yield "controlled_scalar", {"A": [-5.0, -1.0], "L": 0.0}
    yield "controlled_scalar", {"A": 1.0, "B": [1.0, 2.0], "L": [4.0, -3.0], "controllable": [1, 2]}
    yield "fluid_queue", {"f": [-1.0, -2.0]}
    yield "predator_prey", {"D": 30.0, "sigma": -0.3, "n_max": 12}
    yield "linear_2d", {"B": [[[-4.0, 1.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, -1.0]]], "c1": [-3.0, 0.1]}


@pytest.mark.parametrize("name, params", coeff_cases())
def test_coeff_bound_is_the_largest_spectral_norm(name, params):
    _, lin = registry_get(name, params)
    norms = [
        np.linalg.norm(m, 2)
        for i in range(1, 61)
        for m in (lin.b_mat(i), *lin.sigma_mats(i))
    ]
    assert lin.coeff_bound == max(norms)


def shifted(row: dict, k: int, i: int) -> list:
    """Row k moved to mode i: targets >= k shift by i - k, the rest stay."""
    return [(j + i - k if j >= k else j, rate) for j, rate in row.items()]


def mode_mats(lin, i) -> bytes:
    mats = (lin.b_mat(i), *lin.sigma_mats(i))
    return b"".join(np.asarray(m, dtype=float).tobytes() for m in mats)


def repeat_cases():
    for name in REGISTRY_NAMES:
        yield name, DEFAULTS[name]
        if name in SEQUENCES:
            yield name, SEQUENCES[name][0]
    yield "linear_2d", {"qhat": "controlled_scalar"}


@pytest.mark.parametrize("name, params", repeat_cases())
def test_rows_and_coefficients_repeat_from_the_declared_modes(name, params):
    _, lin = registry_get(name, params)
    qhat, k = lin.qhat, lin.qhat.repeats_from
    if name == "predator_prey":
        assert k is None  # a finite mode space whose rates grow with the mode
    else:
        assert k in (2, 3)
        base = qhat.row(k)
        for i in range(k, k + 26):
            assert list(qhat.row(i).items()) == shifted(base, k, i), i
        assert list(base.items()) != shifted(qhat.row(k - 1), k - 1, k)
    k = lin.repeats_from
    assert k is not None and k >= 1
    for i in range(k, k + 26):
        assert mode_mats(lin, i) == mode_mats(lin, k), i
    if k > 1:  # and no lower mode could be declared
        assert mode_mats(lin, k - 1) != mode_mats(lin, k)


def declared_cases():
    """The families that declare ``mode_arrays``, with their defaults, their
    per-mode sequences, and for fluid_queue signed zero rates."""
    for name in ("controlled_scalar", "fluid_queue", "predator_prey", "switched_ou"):
        yield name, DEFAULTS[name]
        if name in SEQUENCES:
            yield name, SEQUENCES[name][0]
    yield "fluid_queue", {"f": [1.0, -0.0, 0.0, -2.0, float("nan")]}


DECLARED = list(declared_cases())
STATES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.37, -2.5, 1e300, -1e300]) | st.floats(-50, 50)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=st.sampled_from(DECLARED), rows=st.lists(st.tuples(STATES, st.integers(1, 60)),
                                                      min_size=1, max_size=24))
def test_a_mode_array_call_gives_each_row_its_scalar_calls_bits(case, rows):
    # one drift and one diffusion call over modes 1..60 (1..n_max for
    # predator_prey) give each row the bits of the call with its own mode
    name, params = case
    spec, _ = registry_get(name, params)
    assert spec.mode_arrays
    top = params.get("n_max", 60)
    x = np.array([[v] for v, _ in rows])
    modes = np.array([min(i, top) for _, i in rows])
    p, shapes = len(rows), ((spec.dim,), (spec.dim, spec.brownian_dim))
    with np.errstate(all="ignore"):
        for fn, shape in zip((spec.drift, spec.diffusion), shapes):
            got = np.broadcast_to(np.asarray(fn(x, modes), dtype=float), (p, *shape))
            for k in range(p):
                one = np.asarray(fn(x[k:k + 1], int(modes[k])), dtype=float)
                assert got[k].tobytes() == np.broadcast_to(one, (1, *shape))[0].tobytes(), k
