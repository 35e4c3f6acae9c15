"""`dgt.rng` against numpy's SeedSequence, PCG64 and Generator.permutation,
plus literal pins that hold without numpy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgt.errors import PreconditionError
from dgt.rng import PCG64, SeedSequence
from dgt.runner import derive_seeds

RNG_SETTINGS = settings(max_examples=200, deadline=None)

entropies = st.one_of(st.just(0), st.integers(0, 2**64 - 1), st.integers(2**64, 2**130))
spawn_keys = st.lists(st.integers(0, 2**70), max_size=3).map(tuple)


class TestPinned:
    def test_derive_seeds(self):
        assert derive_seeds(0, 0, 0) == (2635072618980576772, 8565498584995198975)

    def test_permutation(self):
        assert PCG64(0).permutation(10) == [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]

    def test_empty_and_one_draw_nothing(self):
        rng = PCG64(0)
        assert rng.permutation(0) == [] and rng.permutation(1) == [0]
        assert rng.permutation(10) == PCG64(0).permutation(10)

    def test_over_two_to_the_32_items_is_refused(self):
        # raised before any list is built
        with pytest.raises(PreconditionError):
            PCG64(0).permutation(2**32 + 1)

    def test_negative_seed_is_refused(self):
        with pytest.raises(PreconditionError):
            SeedSequence(-1)


class TestAgainstNumpy:
    @RNG_SETTINGS
    @given(entropy=entropies, spawn_key=spawn_keys, n_words=st.integers(1, 6))
    def test_generate_state(self, entropy, spawn_key, n_words):
        np = pytest.importorskip("numpy")
        expected = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(
            n_words, np.uint64)
        assert SeedSequence(entropy, spawn_key).generate_state(n_words) == expected.tolist()

    @RNG_SETTINGS
    @given(master=entropies, repetition=st.integers(0, 19), t=st.integers(0, 29))
    def test_derive_seeds(self, master, repetition, t):
        np = pytest.importorskip("numpy")
        expected = np.random.SeedSequence(master, spawn_key=(repetition, t)).generate_state(
            2, np.uint64)
        assert derive_seeds(master, repetition, t) == tuple(expected.tolist())

    @RNG_SETTINGS
    @given(seed=st.integers(0, 2**64 - 1),
           sizes=st.lists(st.one_of(st.integers(0, 2), st.integers(3, 500)),
                          min_size=1, max_size=6))
    def test_consecutive_permutations(self, seed, sizes):
        # one generator for all sizes, so a buffered 32-bit half carries over
        np = pytest.importorskip("numpy")
        mine, theirs = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
        for n in sizes:
            assert mine.permutation(n) == theirs.permutation(n).tolist()
        assert mine.next64() == int(theirs.bit_generator.random_raw())
