"""Deterministic random streams based on splitmix64.

Every stochastic piece of the system (weight init, training shuffle,
scenario generation) draws from this generator so that datasets and
checkpoints are bit-reproducible across runs and across platforms.

The module is pure Python: ``planner.uniform_array`` draws a vector of
the same values with numpy, from the state ``SplitMix64.skip`` hands it.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def check_seed(seed: int) -> int:
    """``seed`` if it lies in [0, 2^64), else a ValueError.

    Streams take seeds mod 2^64, so a seed outside that range would
    silently stand for one inside it.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside u64 range")
    return seed


def mix64(x: int) -> int:
    """One splitmix64 output for state ``x`` (finalizer only, no increment)."""
    z = (x + GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream with the standard constants.

    State advances by the golden-gamma increment; each output is the
    mixed previous state. Seeds are taken mod 2^64.
    """

    __slots__ = ("_state", "_seed")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = mix64(self._state)
        self._state = (self._state + GAMMA) & _MASK64
        return z

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def skip(self, n: int) -> int:
        """Advance the stream past its next ``n`` outputs; return the state they start from.

        Output ``i`` of the ``n`` (from 1) is ``mix64`` of that state plus
        ``(i - 1) * GAMMA``, mod 2^64.
        """
        state = self._state
        self._state = (state + n * GAMMA) & _MASK64
        return state

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, no modulo bias."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def substream(self, index: int) -> "SplitMix64":
        """Independent child stream for element ``index``.

        Derived from the construction seed (not the current state), so
        children can be created in any order and are unaffected by how
        much of the parent stream has been consumed.
        """
        return SplitMix64(mix64(self._seed ^ mix64(index)))
