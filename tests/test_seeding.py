import pytest

from ergomix.seeding import child_seed


@pytest.mark.parametrize(
    "stream, seed",
    [
        ("lyapunov", 7557070060344235790),
        ("entropy", 18104550210129636163),
        ("nu", 7871076522354871420),
    ],
)
def test_child_seed_values_are_pinned(stream, seed):
    # every report depends on these; a changed spawn key silently changes all of them
    assert child_seed(20260809, stream) == seed
