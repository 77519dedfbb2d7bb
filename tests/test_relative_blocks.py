"""A relative run composes each block of steps into one affine map per
household; the composition must step as the splitting does, one step at
a time."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wealthsim import EconomyParams
from wealthsim import simulate
from wealthsim.errors import NonFiniteError
from wealthsim.simulate import SimulationConfig, _stream, run_relative_growth

from conftest import RHO_INF


@settings(max_examples=60, deadline=None, database=None)
@given(steps=st.integers(1, 300), n=st.integers(1, 64), dt=st.floats(0.01, 50.0),
       delta=st.floats(0.5, 70.0), seed=st.integers(0, 2 ** 32))
@example(steps=3, n=50, dt=50.0, delta=70.0, seed=5)  # revert*dt 0.20, sigma**2*dt 0.90
def test_one_composed_block_steps_as_the_splitting(steps, n, dt, delta, seed):
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=delta)
    cfg = SimulationConfig(dt=dt, t_end=steps * dt, record_every=steps * dt, seed=seed)
    u = 1.0 + 0.9 * _stream(seed, 2 ** 63).uniform(-1.0, 1.0, n)
    u /= u.mean()
    # one block of every step: the run records only steps 0 and `steps`
    with mock.patch.object(simulate, "RELATIVE_BLOCK", 300):
        panel = run_relative_growth(cfg, params, 1.0, RHO_INF, u)
    assert panel.counters["noise_workers"] == 0

    revert = params.s * RHO_INF * params.tau_k
    sigma = math.sqrt(delta) * params.s * (1.0 - params.tau_k) * RHO_INF
    half = math.exp(-0.5 * revert * dt)
    for step in range(1, steps + 1):
        dw = math.sqrt(dt) * _stream(seed, step).standard_normal(n)
        geometric = np.exp(sigma * dw - 0.5 * sigma ** 2 * dt)
        u = 1.0 + ((1.0 + (u - 1.0) * half) * geometric - 1.0) * half
    np.testing.assert_allclose(panel.final(), u, rtol=1e-12, atol=0.0)
    assert np.all(panel.final() > 0.0)


def test_blocks_are_cut_at_every_recorded_step(monkeypatch):
    # at most RELATIVE_BLOCK steps, from the plan alone
    plans, plan = [], simulate._noise
    monkeypatch.setattr(simulate, "_noise", lambda ends, *args: plans.append(ends) or plan(ends, *args))
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    for t_end, burn_in, every in ((2500.0, 2499.75, 0.25), (25.0, 0.0, 7.5)):
        cfg = SimulationConfig(dt=0.25, t_end=t_end, burn_in=burn_in, record_every=every)
        run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(3))
        monkeypatch.setattr(simulate, "RELATIVE_BLOCK", 16)
    assert plans == [list(range(64, 9999, 64)) + [9999, 10000],
                     [16, 30, 32, 48, 60, 64, 80, 90, 96, 100]]


def test_non_finite_step_inside_a_block_is_found_by_replay(monkeypatch):
    # step 70 sits inside the block 65-128: the block's end state is not
    # finite and its steps are replayed from its start, inline and forked
    stream = simulate._stream

    class Poisoned:
        def standard_normal(self, size):
            return np.full(size, np.inf)

    monkeypatch.setattr(simulate, "_stream",
                        lambda seed, step: Poisoned() if step == 70 else stream(seed, step))
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", 0)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    params = EconomyParams(s=0.2, tau_k=0.2, chi=0.0, nu=0.01, a=1.0, delta=10.0)
    cfg = SimulationConfig(dt=0.25, t_end=100.0, record_every=50.0, seed=4)
    for threads in (1, 2):
        with pytest.raises(NonFiniteError) as err:
            run_relative_growth(cfg, params, 1.0, RHO_INF, np.ones(30), threads=threads)
        assert err.value.step == 70
