import hypothesis
from hypothesis import strategies as st

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


def pair_lists(max_n: int = 12, elements=finite):
    return st.lists(st.tuples(elements, elements), min_size=1, max_size=max_n)


def int_pair_lists(max_n: int = 12, min_n: int = 1):
    ints = st.integers(min_value=-100, max_value=100)
    return st.lists(st.tuples(ints, ints), min_size=min_n, max_size=max_n)


def bit_lists(max_n: int = 64):
    return st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=max_n)
