"""The package's random streams: numpy's SeedSequence, PCG64 and the
`Generator` draws that dgt uses, reproduced bit for bit in pure Python.

`SeedSequence(entropy, spawn_key).generate_state(k)` equals numpy's
`generate_state(k, np.uint64)`.  For `rng = PCG64(seed, spawn_key)` and
`gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed,
spawn_key=spawn_key)))`, `rng.permutation(n)`, `rng.random()`,
`rng.integers(low, high)` and `rng.choice(n, size)` equal
`gen.permutation(n)`, `gen.random()`, `gen.integers(low, high)` and
`gen.choice(n, size, replace=False)`, including the buffered 32-bit half
that one draw leaves for the next.  Owning the streams means a numpy
release cannot move an output byte, and dgt does not import numpy.
"""

from __future__ import annotations

from .errors import PreconditionError

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words; 0 is one word."""
    if value < 0:
        raise PreconditionError(f"seed values must be >= 0, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


class SeedSequence:
    """numpy's SeedSequence for an int entropy and a tuple of int spawn keys."""

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        words = _words(entropy)
        spawn = [w for key in spawn_key for w in _words(key)]
        if spawn:
            words += [0] * (_POOL_SIZE - len(words))
        words += spawn
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in words[_POOL_SIZE:]:
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        self.pool = pool

    def generate_state(self, n_words: int) -> list[int]:
        """`n_words` 64-bit words, each from two 32-bit draws, low first."""
        hash_const = _INIT_B
        halves = []
        for i in range(2 * n_words):
            value = self.pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            value = value * hash_const & _M32
            halves.append(value ^ value >> 16)
        return [halves[k] | halves[k + 1] << 32 for k in range(0, 2 * n_words, 2)]


class PCG64:
    """numpy's PCG64 (XSL-RR output) seeded from `SeedSequence(seed, spawn_key)`."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        s_hi, s_lo, i_hi, i_lo = SeedSequence(seed, spawn_key).generate_state(4)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # pcg's srandom: step from 0 (giving inc), add the seed, step again
        self.state = ((self.inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self.inc) & _M128
        # the high half of the last 64-bit output, until a 32-bit draw takes it
        self.half: int | None = None

    def next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next32(self) -> int:
        if self.half is not None:
            value, self.half = self.half, None
            return value
        value = self.next64()
        self.half = value >> 32
        return value & _M32

    def permutation(self, n: int) -> list[int]:
        """numpy's `Generator.permutation(n)`: a backward Fisher-Yates whose
        index for position i is a 32-bit draw masked to i's bit length,
        redrawn while above i."""
        if n > 1 << 32:
            # numpy draws 64-bit words past 2**32 items, too many to check against
            raise PreconditionError(f"permutation size must be <= 2**32, got {n}")
        out = list(range(n))
        next32 = self.next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next32() & mask
            while j > i:
                j = next32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def random(self) -> float:
        """numpy's `Generator.random()`: the top 53 bits of a 64-bit draw,
        scaled to [0, 1).  The buffered half is left alone."""
        return (self.next64() >> 11) * 2.0**-53

    def _lemire(self, top: int) -> int:
        """numpy's 32-bit Lemire draw in [0, top], `top` < 2**32: the high
        word of a 32-bit draw times top + 1, redrawn while the low word
        falls below (2**32 - top - 1) % (top + 1)."""
        if top == 0:
            return 0
        if top == _M32:
            return self.next32()
        span = top + 1
        product = self.next32() * span
        if product & _M32 < span:
            threshold = (_M32 - top) % span
            while product & _M32 < threshold:
                product = self.next32() * span
        return product >> 32

    def integers(self, low: int, high: int) -> int:
        """numpy's `Generator.integers(low, high)`: one int in [low, high)."""
        if not 0 < high - low <= 1 << 32:
            # numpy draws 64-bit words past 2**32 values, too many to check against
            raise PreconditionError(f"integers range must be in 1..2**32, got [{low}, {high})")
        return low + self._lemire(high - low - 1)

    def choice(self, n: int, size: int) -> list[int]:
        """numpy's `Generator.choice(n, size, replace=False)`.

        Above 10 000 items with `size` over n // 50 it is a backward
        Fisher-Yates over range(n) stopped once the last `size` places
        (or all but place 0) are drawn.  Otherwise it is Floyd's algorithm
        (for j in n - size .. n - 1 take a draw in [0, j], or j itself if
        the draw is taken) followed by a backward Fisher-Yates of the
        picks.  Every index is a Lemire draw."""
        if n > 1 << 32:
            raise PreconditionError(f"choice population must be <= 2**32, got {n}")
        if not 0 <= size <= n:
            raise PreconditionError(f"choice size must be in 0..{n}, got {size}")
        lemire = self._lemire
        if n > 10_000 and size > n // 50:
            out = list(range(n))
            for i in range(n - 1, max(n - size, 1) - 1, -1):
                j = lemire(i)
                out[i], out[j] = out[j], out[i]
            return out[n - size:]
        out, taken = [], set()
        for j in range(n - size, n):
            pick = lemire(j)
            if pick in taken:
                pick = j
            taken.add(pick)
            out.append(pick)
        for i in range(size - 1, 0, -1):
            j = lemire(i)
            out[i], out[j] = out[j], out[i]
        return out
