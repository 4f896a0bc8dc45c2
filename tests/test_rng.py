import numpy as np
import pytest

from vecdrive.rng import SplitMix64, mix64

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    # Independent transcription of the splitmix64 reference algorithm.
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_algorithm_across_seeds():
    for seed in [0, 1, 42, 0xDEADBEEF, MASK]:
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(20)] == reference_stream(seed, 20)


def test_known_seed_zero_vector():
    # Widely published first output of splitmix64 for seed 0.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_next_float_bounds():
    rng = SplitMix64(7)
    values = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 1900


def test_uniform_range():
    rng = SplitMix64(3)
    for _ in range(500):
        v = rng.uniform(-2.5, 4.0)
        assert -2.5 <= v < 4.0


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
def test_uniform_array_matches_scalar_draws(seed):
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    for n, lo, hi in ((0, 0.0, 1.0), (1, -0.5, 0.5), (257, -0.125, 3.0), (40, -2.5, 4.0)):
        got = vec.uniform_array(n, lo, hi)
        expected = np.array([scalar.uniform(lo, hi) for _ in range(n)], dtype=float)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, expected)
    assert vec.next_u64() == scalar.next_u64()


def test_randint_unbiased_range():
    rng = SplitMix64(11)
    seen = {rng.randint(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_shuffle_deterministic_and_permutes():
    a = list(range(20))
    b = list(range(20))
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))


def test_substream_independent_of_consumption():
    parent = SplitMix64(123)
    before = parent.substream(4).next_u64()
    parent.next_u64()
    parent.next_u64()
    after = parent.substream(4).next_u64()
    assert before == after
    assert parent.substream(4).next_u64() != parent.substream(5).next_u64()


def test_mix64_is_pure():
    assert mix64(17) == mix64(17)
    assert mix64(17) != mix64(18)
