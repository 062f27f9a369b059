"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from magrec import ChannelParams


@st.composite
def channels(draw, max_n=5, max_kp=3, max_km=2):
    """A ChannelParams with n <= max_n, k- <= max_km and k+ <= max_kp."""
    n = draw(st.integers(1, max_n))
    km = draw(st.integers(0, max_km))
    kp = draw(st.integers(max(km, 1), max(km, 1, max_kp)))
    return ChannelParams(n, draw(st.integers(0, n)), kp, km)
