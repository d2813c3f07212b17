from dataclasses import replace

import numpy as np
import pytest

from switchsde.chain import SparseGenerator
from switchsde.model import (
    Linearization,
    ModelSpec,
    check_rate_convergence,
    check_sublinear_residuals,
    residual_diffusion,
    residual_drift,
)
from switchsde.registry import registry_get
from switchsde.segment import Segment
from switchsde.sim import BatchEnsemble, SimConfig, simulate


def toy_affine_model(offset=2.0):
    """dX = (offset - x) dt + dW with a single effective mode."""

    def drift(x, i):
        return offset - np.asarray(x, dtype=float)

    def diffusion(x, i):
        return np.array([[1.0]])

    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion,
        rates_row=lambda seg, i: {},
        rate_bound=1.0,
        delay=1.0,
    )
    lin = Linearization(
        b_mat=lambda i: np.array([[-1.0]]),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(lambda i: {1: 1.0} if i > 1 else {2: 1.0}, 2.0),
        coeff_bound=1.0,
    )
    return spec, lin


def test_residuals_are_the_affine_parts():
    spec, lin = toy_affine_model(offset=2.0)
    x = np.array([3.0])
    assert residual_drift(spec, lin, x, 1)[0] == pytest.approx(2.0)
    # diffusion is constant, linear part vanishes
    assert residual_diffusion(spec, lin, x, 1)[0, 0] == pytest.approx(1.0)


def test_sublinear_residual_ratios_exact():
    spec, lin = toy_affine_model(offset=2.0)
    chk = check_sublinear_residuals(
        spec, lin, ray_dirs=[[1.0]], radii=[10.0, 100.0], modes=[1], tol=0.05
    )
    # ratio is max(offset, sigma) / R
    assert chk.values[0] == pytest.approx(2.0 / 10.0)
    assert chk.values[1] == pytest.approx(2.0 / 100.0)
    assert chk.passed

    tight = check_sublinear_residuals(
        spec, lin, ray_dirs=[[1.0]], radii=[10.0, 100.0], modes=[1], tol=0.01
    )
    assert not tight.passed


def test_sublinear_input_validation():
    spec, lin = toy_affine_model()
    with pytest.raises(ValueError):
        check_sublinear_residuals(spec, lin, [[0.0]], [1.0, 2.0], [1])
    with pytest.raises(ValueError):
        check_sublinear_residuals(spec, lin, [[1.0]], [5.0], [1])


def test_rate_convergence_values_switched_ou():
    spec, lin = registry_get("switched_ou", {"c": 1.0})
    chk = check_rate_convergence(spec, lin, radius=10.0, modes=[1, 2, 3])
    # three targets each off by c/(R+1), worst over probed modes
    for r, v in zip(chk.radii, chk.values):
        assert v == pytest.approx(3.0 / (r + 1.0))
    assert chk.passed


def test_rate_convergence_values_controlled_scalar():
    spec, lin = registry_get("controlled_scalar", {"c": 2.0})
    chk = check_rate_convergence(spec, lin, radius=8.0, modes=[1, 2, 5])
    # each of the two targets is short by c/(c+R)
    for r, v in zip(chk.radii, chk.values):
        assert v == pytest.approx(2.0 * 2.0 / (2.0 + r))
    assert chk.passed


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec(
            dim=0,
            brownian_dim=1,
            drift=lambda x, i: x,
            diffusion=lambda x, i: x,
            rates_row=lambda s, i: {},
            rate_bound=1.0,
            delay=1.0,
        )
    with pytest.raises(ValueError):
        ModelSpec(
            dim=1,
            brownian_dim=1,
            drift=lambda x, i: x,
            diffusion=lambda x, i: x,
            rates_row=lambda s, i: {},
            rate_bound=0.0,
            delay=1.0,
        )
    for delay in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delay must be finite and positive"):
            ModelSpec(
                dim=1,
                brownian_dim=1,
                drift=lambda x, i: x,
                diffusion=lambda x, i: x,
                rates_row=lambda s, i: {},
                rate_bound=1.0,
                delay=delay,
            )


def test_modelspec_checks_the_shared_coefficient_mode():
    base = dict(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: x,
        diffusion=lambda x, i: x,
        rates_row=lambda s, i: {},
        rate_bound=1.0,
        delay=1.0,
    )
    for k in (0, -2):
        with pytest.raises(ValueError, match="shared_coefficients_from"):
            ModelSpec(**base, shared_coefficients_from=k)
    for k in (1, 40):
        assert ModelSpec(**base, shared_coefficients_from=k).shared_coefficients_from == k


@pytest.mark.parametrize("bad", [2.5, 2.7, 2.0, -3, 0, "2"])
def test_mode_declarations_must_be_integers_of_at_least_one(bad):
    # n_modes=2.5 once became 2 and -3 was kept until certify failed with
    # "need at least 2 modes"; repeats_from=2.7 became 2 without a word,
    # and Linearization(repeats_from=2.5) failed later in range()
    spec, lin = toy_affine_model()
    row = lin.qhat.row
    declarations = [
        ("n_modes", lambda: SparseGenerator(row, 2.0, n_modes=bad)),
        ("repeats_from", lambda: SparseGenerator(row, 2.0, repeats_from=bad)),
        ("repeats_from", lambda: replace(lin, repeats_from=bad)),
        ("shared_coefficients_from", lambda: replace(spec, shared_coefficients_from=bad)),
    ]
    for name, declare in declarations:
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {bad!r}"):
            declare()
    # numpy integers pass and are kept as ints
    gen = SparseGenerator(row, 2.0, n_modes=np.int64(2), repeats_from=np.int32(2))
    assert (gen.n_modes, gen.repeats_from) == (2, 2) and type(gen.n_modes) is int
    assert replace(lin, repeats_from=np.int64(1)).repeats_from == 1
    assert replace(spec, shared_coefficients_from=np.int64(1)).shared_coefficients_from == 1


def test_modelspec_rejects_bad_rate_bounds_and_pointwise_declarations():
    spec, _ = toy_affine_model()
    # NaN switched switching off and inf made the thinning clock draw zero gaps
    for bad in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="rate_bound must be finite and positive"):
            replace(spec, rate_bound=bad)
    # every model takes batched states: the keyword is accepted as True only
    with pytest.raises(ValueError, match="supports_batch must be True"):
        replace(spec, supports_batch=False)
    assert replace(spec, supports_batch=True) == spec
    # a per-mode bound must be finite and nonnegative where it is read; 0 is legal
    bounds = {1: 0.0, 2: 0.5, 3: np.nan, 4: np.inf, 5: -0.5}
    spec = replace(spec, mode_rate_bound=bounds.get)
    assert (spec.thinning_bound(1), spec.thinning_bound(2)) == (0.0, 0.5)
    for i in (3, 4, 5):
        with pytest.raises(ValueError, match=rf"mode_rate_bound\({i}\) = .* must be finite and >= 0"):
            spec.thinning_bound(i)
    # and at most rate_bound, which the bernoulli check dt * rate_bound < 0.5 reads
    over = 2.0 * spec.rate_bound
    spec = replace(spec, mode_rate_bound={1: spec.rate_bound, 2: over}.get)
    assert spec.thinning_bound(1) == spec.rate_bound
    with pytest.raises(ValueError, match=rf"mode_rate_bound\(2\) = {over} exceeds "
                                         rf"rate_bound = {spec.rate_bound}"):
        spec.thinning_bound(2)
    # bernoulli runs on 1 / dt, and still rejects the bound once a path enters mode 2
    for depends in (False, True):
        spec = replace(spec, rates_row=lambda seg, i: {2: 1.0} if i == 1 else {},
                       rates_depend_on_path=depends)
        cfg = SimConfig(dt=0.1, horizon=50.0, scheme="bernoulli", seed=1)
        phi0 = Segment.make_constant([0.0], spec.delay, cfg.dt)
        with pytest.raises(ValueError, match=r"mode_rate_bound\(2\) = .* exceeds"):
            simulate(spec, phi0, 1, cfg)
        with pytest.raises(ValueError, match=r"mode_rate_bound\(2\) = .* exceeds"):
            BatchEnsemble(spec, phi0, 1, cfg, 4).run(500)
