import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (DomainError, TheoryParams, curriculum_coefficients,
                         derive_constants, eval_map, improvement_threshold,
                         invariant_interval, iterate_baseline, iterate_curriculum,
                         map_spec, write_trajectory_csv)

# Frozen from high-precision summation: sum_{i=1..5} i^(-0.1) = 4.550881937194478
FIRST_COEFF_L5 = 1.0986881375969936   # 5 / 4.550881937194478
FINAL_COEFF_L5 = 1.0691104262371469   # 4.550881937194478 / 5^0.9
RATIO_FIRST_STEP = 0.7578582832551990  # 2^(-0.4)

P = TheoryParams()


def test_coefficients_frozen_values():
    co = curriculum_coefficients(TheoryParams(L=5, beta_lo=0.1, beta_hi=0.4))
    assert co.first == pytest.approx(FIRST_COEFF_L5, abs=1e-12)
    assert co.final == pytest.approx(FINAL_COEFF_L5, abs=1e-12)
    assert co.mid[0] == pytest.approx(RATIO_FIRST_STEP, abs=1e-12)


def test_coefficients_tend_to_one_as_exponent_vanishes():
    co = curriculum_coefficients(TheoryParams(beta_lo=1e-13, beta_hi=0.4))
    assert co.first == pytest.approx(1.0, abs=1e-11)
    assert co.final == pytest.approx(1.0, abs=1e-11)


def test_mid_ratios_in_unit_interval_and_telescoping():
    for L, beta_hi in ((2, 0.3), (5, 0.4), (9, 1.7)):
        p = TheoryParams(L=L, beta_lo=0.05, beta_hi=beta_hi)
        co = curriculum_coefficients(p)
        assert all(0.0 < r < 1.0 for r in co.mid)
        assert math.prod(co.mid) == pytest.approx(L ** (-beta_hi), rel=1e-12)
        for t, r in enumerate(co.mid, start=1):
            assert r == pytest.approx((1 + 1 / t) ** (-beta_hi), rel=1e-12)


def test_coefficients_at_least_one():
    for beta_lo in (0.01, 0.3, 2.0):
        co = curriculum_coefficients(TheoryParams(beta_lo=beta_lo, beta_hi=beta_lo + 1))
        assert co.first > 1.0 and co.final > 1.0


def test_eval_map_noiseless():
    d = derive_constants(P, nu=0.0)
    spec = map_spec(1.0, P, d)
    for x in (1e-9, 0.3, 0.97):
        assert eval_map(spec, x) == 1.0 - P.gamma


def test_eval_map_below_ceiling():
    d = derive_constants(P, nu=0.02)
    spec = map_spec(1.0, P, d)
    for x in np.linspace(0.1, 0.97, 20):
        assert eval_map(spec, float(x)) < 1.0 - P.gamma


def test_eval_map_domain_error():
    d = derive_constants(P, nu=0.05)
    spec = map_spec(1.0, P, d)
    with pytest.raises(DomainError):
        eval_map(spec, spec.domain_lo)
    with pytest.raises(DomainError):
        eval_map(spec, spec.domain_lo - 0.01)


def test_eval_map_diverges_at_boundary():
    d = derive_constants(P, nu=0.05)
    spec = map_spec(1.0, P, d)
    values = [eval_map(spec, spec.domain_lo + eps) for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < -1e3


def test_eval_map_fixed_point_residual():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    spec = map_spec(1.0, P, d)
    assert abs(eval_map(spec, iv.lo) - iv.lo) < 1e-10
    assert abs(eval_map(spec, iv.hi) - iv.hi) < 1e-10


@given(x=st.floats(min_value=0.15, max_value=0.97),
       bump=st.floats(min_value=1e-6, max_value=0.1))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_increasing_in_x(x, bump):
    d = derive_constants(P, nu=0.04)
    spec = map_spec(1.0, P, d)
    assert eval_map(spec, x + bump) > eval_map(spec, x)


@given(x=st.floats(min_value=0.2, max_value=0.97),
       nu=st.floats(min_value=1e-4, max_value=0.05),
       bump=st.floats(min_value=1e-5, max_value=0.02))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_decreasing_in_nu(x, nu, bump):
    lo = eval_map(map_spec(1.0, P, derive_constants(P, nu=nu)), x)
    hi = eval_map(map_spec(1.0, P, derive_constants(P, nu=nu + bump)), x)
    assert hi < lo


@given(x=st.floats(min_value=0.2, max_value=0.97),
       a=st.floats(min_value=0.5, max_value=2.0),
       bump=st.floats(min_value=1e-5, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_eval_map_increasing_in_scale(x, a, bump):
    d = derive_constants(P, nu=0.03)
    assert eval_map(map_spec(a + bump, P, d), x) > eval_map(map_spec(a, P, d), x)


def test_baseline_monotone_inside_interval():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    traj = iterate_baseline(P, d, iv.lo + 0.05, t_steps=15)
    assert traj.stayed_in_domain
    assert traj.monotone_prefix == 15
    assert all(iv.lo < v < iv.hi + 1e-12 for v in traj.values)


def test_baseline_constant_at_attracting_fixed_point():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    traj = iterate_baseline(P, d, iv.hi, t_steps=100)
    assert traj.stayed_in_domain
    assert max(abs(v - iv.hi) for v in traj.values) < 5e-13


def test_baseline_near_constant_at_repelling_fixed_point():
    # The lower endpoint repels, so float drift grows; a short horizon stays put.
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    traj = iterate_baseline(P, d, iv.lo, t_steps=5)
    assert max(abs(v - iv.lo) for v in traj.values) < 1e-10


def test_baseline_decreasing_below_interval():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    traj = iterate_baseline(P, d, iv.lo - 1e-6, t_steps=50)
    assert traj.monotone_prefix == 0
    assert all(b < a for a, b in zip(traj.values, traj.values[1:]))


def test_baseline_truncates_on_domain_exit():
    d = derive_constants(P, nu=0.05)
    spec = map_spec(1.0, P, d)
    traj = iterate_baseline(P, d, spec.domain_lo + 1e-10, t_steps=10)
    assert not traj.stayed_in_domain
    assert len(traj.values) < 11


def test_baseline_zero_steps():
    d = derive_constants(P, nu=0.05)
    traj = iterate_baseline(P, d, 0.4, t_steps=0)
    assert traj.values == (0.4,)
    assert traj.monotone_prefix == 0 and traj.stayed_in_domain


def test_baseline_rejects_negative_steps():
    from selfimprove import ParameterError
    d = derive_constants(P, nu=0.05)
    with pytest.raises(ParameterError):
        iterate_baseline(P, d, 0.4, t_steps=-1)


def test_curriculum_noiseless():
    d = derive_constants(P, nu=0.0)
    co = curriculum_coefficients(P)
    ceiling = 1.0 - P.gamma
    traj = iterate_curriculum(P, d, 0.3, with_final_rescale=True)
    assert traj.values[1:-1] == tuple([ceiling] * P.L)
    assert traj.values[-1] == pytest.approx(co.final * ceiling, rel=1e-14)


def test_curriculum_noiseless_flat_exponent():
    p = TheoryParams(beta_lo=1e-13, beta_hi=0.4)
    d = derive_constants(p, nu=0.0)
    traj = iterate_curriculum(p, d, 0.3, with_final_rescale=True)
    assert traj.values[-1] == pytest.approx(1.0 - p.gamma, abs=1e-11)


def test_curriculum_monitoring_skips_initialization_step():
    # Noiseless map sends everything to the ceiling, so a start above it
    # drops at step 0; the monitored sequence begins at the first image and
    # must stay classified as non-decreasing.
    d = derive_constants(P, nu=0.0)
    traj = iterate_curriculum(P, d, 0.99, with_final_rescale=False)
    assert traj.values[1] < traj.values[0]
    assert traj.strictly_increasing()
    assert traj.monitored_from == 1


def test_curriculum_prefix_counts_interior_steps():
    d = derive_constants(P, nu=0.01)
    traj = iterate_curriculum(P, d, 0.4, with_final_rescale=False)
    assert traj.stayed_in_domain
    assert len(traj.values) == P.L + 1
    assert traj.monotone_prefix == P.L - 1
    assert traj.strictly_increasing()


def test_curriculum_beats_baseline_inside_improvement_region():
    d = derive_constants(P, nu=0.01)
    threshold = improvement_threshold(P.beta_lo, P.beta_hi, d.nu, P, d)
    for x0 in np.linspace(threshold + 1e-3, 1.0 - P.gamma - 1e-3, 25):
        curriculum = iterate_curriculum(P, d, float(x0), with_final_rescale=True)
        baseline = iterate_baseline(P, d, float(x0), t_steps=P.L)
        assert curriculum.stayed_in_domain and baseline.stayed_in_domain
        assert curriculum.values[-1] > baseline.values[-1]


def test_final_rescale_can_exceed_ceiling():
    # The rescale is a change of evaluation distribution; values above the
    # map ceiling are reported, not clipped.
    p = TheoryParams(beta_lo=3.0, beta_hi=3.5)
    d = derive_constants(p, nu=0.0)
    traj = iterate_curriculum(p, d, 0.5, with_final_rescale=True)
    assert traj.values[-1] > 1.0
    assert traj.exceeded_unit


def test_trajectory_reproducible():
    d = derive_constants(P, nu=0.03)
    first = iterate_baseline(P, d, 0.37, t_steps=60)
    second = iterate_baseline(P, d, 0.37, t_steps=60)
    assert first.values == second.values


def test_trajectory_csv(tmp_path):
    d = derive_constants(P, nu=0.03)
    traj = iterate_baseline(P, d, 0.37, t_steps=5)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,value,monotone_so_far,in_domain"
    assert len(lines) == 7
    assert lines[1].startswith("0,0.37,")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == list(traj.values)
