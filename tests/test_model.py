import numpy as np
import pytest

from switchsde.chain import SparseGenerator
from switchsde.model import (
    Linearization,
    ModelSpec,
    check_drift_condition,
    check_local_lipschitz,
    check_rate_convergence,
    check_sublinear_residuals,
    residual_diffusion,
    residual_drift,
)
from switchsde.registry import registry_get
from switchsde.segment import Segment


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


def test_drift_condition_on_limit_generators():
    _, lin_ou = registry_get("switched_ou", {})
    q_ou = lin_ou.qhat
    assert check_drift_condition(q_ou, k0=2, eta=lambda j: 0.5, probe_modes=range(3, 20))
    assert not check_drift_condition(
        q_ou, k0=2, eta=lambda j: 1.0 / 3.0, probe_modes=range(3, 20)
    )

    _, lin_lad = registry_get("controlled_scalar", {})
    q_lad = lin_lad.qhat
    assert check_drift_condition(q_lad, k0=1, eta=lambda j: 1.0, probe_modes=range(2, 20))
    assert not check_drift_condition(
        q_lad, k0=1, eta=lambda j: 0.5, probe_modes=range(2, 20)
    )


def test_drift_condition_accepts_dict_eta():
    _, lin = registry_get("controlled_scalar", {})
    eta = {j: 1.0 for j in range(2, 30)}
    assert check_drift_condition(lin.qhat, k0=1, eta=eta, probe_modes=range(2, 20))


def test_drift_condition_on_path_dependent_rows():
    spec, _ = registry_get("switched_ou", {"c": 1.0})
    seg = Segment.make_constant([5.0], delay=1.0, dt=0.125)
    # rates exceed their limits, so the margin only improves
    assert check_drift_condition(
        spec, k0=2, eta=lambda j: 0.5, probe_modes=range(3, 10), probe_segments=[seg]
    )
    with pytest.raises(ValueError):
        check_drift_condition(spec, k0=2, eta=lambda j: 0.5, probe_modes=[3])


def test_drift_condition_rejects_bad_eta():
    _, lin = registry_get("controlled_scalar", {})
    with pytest.raises(ValueError):
        check_drift_condition(lin.qhat, k0=1, eta=lambda j: -1.0, probe_modes=[2])


def test_local_lipschitz_smoke():
    spec, _ = registry_get("switched_ou", {"theta": 1.0, "sigma": 0.5})
    worst = check_local_lipschitz(spec, radius=5.0, modes=[1, 3])
    assert 0.9 <= worst <= 1.1


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
    for k, n_modes in ((0, None), (-2, None), (0, 4), (5, 4)):
        with pytest.raises(ValueError, match="shared_coefficients_from"):
            ModelSpec(**base, shared_coefficients_from=k, n_modes=n_modes)
    for k, n_modes in ((1, None), (40, None), (4, 4), (1, 4)):
        assert ModelSpec(**base, shared_coefficients_from=k, n_modes=n_modes).shared_coefficients_from == k
