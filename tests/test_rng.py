"""`dgt.rng` against numpy's SeedSequence, PCG64 and the Generator draws
`permutation`, `random`, `integers` and `choice(replace=False)`, plus
literal pins that hold without numpy."""

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

    def test_random(self):
        rng = PCG64(0)
        assert [rng.random(), rng.random()] == [0.6369616873214543, 0.2697867137638703]
        assert PCG64(0, spawn_key=(1,)).random() == 0.6771968569751019

    def test_integers(self):
        rng = PCG64(0)
        assert [rng.integers(0, 10) for _ in range(6)] == [8, 6, 5, 2, 3, 0]
        # a one-value range draws nothing
        assert rng.integers(1, 2) == 1 and rng.integers(0, 10) == 0

    def test_choice_floyd(self):
        assert PCG64(0).choice(10, 4) == [2, 4, 5, 7]

    def test_choice_tail_shuffle(self):
        picks = PCG64(0).choice(10_001, 300)
        assert picks[:5] == [8050, 8343, 4030, 7665, 7985] and sum(picks) == 1584241

    @pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1)])
    def test_integers_range_is_refused(self, low, high):
        with pytest.raises(PreconditionError):
            PCG64(0).integers(low, high)

    @pytest.mark.parametrize("n, size", [(3, 4), (3, -1), (2**32 + 1, 1)])
    def test_choice_size_is_refused(self, n, size):
        with pytest.raises(PreconditionError):
            PCG64(0).choice(n, size)

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

    @RNG_SETTINGS
    @given(seed=st.integers(0, 2**64 - 1), spawn_key=spawn_keys, data=st.data())
    def test_mixed_draws(self, seed, spawn_key, data):
        # one generator for every draw, so a buffered 32-bit half left by
        # integers or choice carries over, and random leaves it alone
        np = pytest.importorskip("numpy")
        mine = PCG64(seed, spawn_key)
        theirs = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["random", "integers", "choice", "permutation"]))
            if kind == "random":
                assert mine.random() == theirs.random()
            elif kind == "integers":
                low = data.draw(st.integers(-2**40, 2**40))
                span = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 2**32),
                                           st.sampled_from([2**31, 2**32 - 1, 2**32])))
                assert mine.integers(low, low + span) == int(theirs.integers(low, low + span))
            elif kind == "choice":
                n = data.draw(st.integers(0, 300))
                size = data.draw(st.integers(0, n))
                assert mine.choice(n, size) == theirs.choice(n, size, replace=False).tolist()
            else:
                n = data.draw(st.integers(0, 40))
                assert mine.permutation(n) == theirs.permutation(n).tolist()
        assert mine.next32() == int(theirs.integers(0, 2**32))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(9_990, 10_010), data=st.data())
    def test_choice_either_side_of_ten_thousand(self, seed, n, data):
        # above 10 000 items a size over n // 50 takes the tail shuffle
        np = pytest.importorskip("numpy")
        size = data.draw(st.sampled_from([0, 1, n // 50, n // 50 + 1, 450, n]))
        mine, theirs = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
        assert mine.choice(n, size) == theirs.choice(n, size, replace=False).tolist()
        assert mine.next32() == int(theirs.integers(0, 2**32))
