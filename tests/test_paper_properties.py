"""The paper's qualitative claims, as properties over the model parameters."""

from hypothesis import example, given, settings, strategies as st

from qcorr import ModelParams, steady_correlations_thermal


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(1e-3, 20.0), delta=st.floats(-0.5, 0.5), j=st.floats(-0.5, 0.5))
@example(gamma=20.0, delta=-0.0025, j=0.0)  # tightest of a 400-point Delta grid: slack 2.5e-4
@example(gamma=0.1, delta=0.0, j=0.1)  # every measure is zero: the two sides are equal
def test_zero_temperature_steady_lqu_is_below_every_other_correlation(gamma, delta, j):
    # "the zero-temperature steady state exhibits less LQU than the other
    # correlations", in the weak regime |Delta|, |J| <= omega/2. Beyond it the
    # claim fails: just above Delta = omega the LQU exceeds the concurrence.
    c = steady_correlations_thermal(ModelParams(j=j, delta=delta, omega=1.0, gamma=gamma, nbar=0.0))
    others = min(c.concurrence, c.log_negativity, c.min_trace, c.correlated_coherence)
    assert c.lqu <= others
    if delta == 0.0:
        assert c.lqu == others == 0.0
