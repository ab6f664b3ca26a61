"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from phaseclone.states import TWO_PI

# uniform phases, and phases within 1e-9 of the 2*pi wrap on either side
phase = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(TWO_PI - 1e-9, TWO_PI + 1e-9),
    st.floats(-1e-9, 1e-9),
)
