"""The package-level calls that perfbench's grls_long workload makes.

The benchmark is not part of these tests, so a change to the API it drives
would otherwise show only when the benchmark runs. This test makes the same
calls, looked up on the ``sisid`` namespace, without importing perfbench.
"""

import numpy as np

import sisid

THETA0 = (1.0, 1.0)
P0_SCALE = 100.0
STEPS = 400


def test_grls_long_call_surface():
    params = sisid.SisParams(0.8076, 0.2692)  # the fig3 rates
    traj = sisid.simulate(0.01, params, STEPS, sisid.NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
    state = sisid.GrlsState.initial(THETA0, sisid.SIS_REGRESSOR, alpha=0.94, p0_scale=P0_SCALE)
    xs = traj.states
    thetas = np.full((STEPS, 2), np.nan)
    for k in range(STEPS):
        state = sisid.grls_step(state, xs[k], xs[k + 1])
        thetas[k] = state.theta
    accepted = state.excitation.indices
    assert accepted and all(0 <= i < STEPS for i in accepted)
    for k in (99, 249, STEPS - 1):
        spec = sisid.WeightedCostSpec(
            alpha=0.94,
            p0_inv=np.eye(2) / P0_SCALE,
            theta0=np.asarray(THETA0),
            greedy_indices=frozenset(i for i in accepted if i <= k),
        )
        oracle = sisid.batch_oracle(traj, sisid.SIS_REGRESSOR, spec, k)
        assert np.linalg.norm(thetas[k] - oracle) / np.linalg.norm(oracle) <= 1e-6
    true_theta = params.as_vector()
    assert np.max(np.abs(thetas[-1] - true_theta) / true_theta) <= 0.1
