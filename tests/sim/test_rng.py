"""``repro.sim.rng.Rng`` draws exactly what ``numpy.random.default_rng`` draws.

The hard-coded pins hold without numpy; the cross-checks run against
numpy's generator where numpy is installed (it is a test dependency).
"""

import zlib

import pytest

from repro.sim.rng import RandomStreams, Rng, seed_words

BOUNDS = [1, 2, 2000, 3 * 2**30, 2**31, 2**32 - 1, 2**32, 2**40, 3 * 2**61, 2**63]
SEEDS = [0, 1, 42, 2**32, 2**70 + 5, [0, zlib.crc32(b"h7.noise")], [7, 3, 9, 11, 13, 2**40]]


def test_hard_coded_draws_for_seed_42():
    assert seed_words(42) == (
        0x9F1E2E6DCD540AB7, 0xD57873DC79FB94B6, 0x7D282A1B64D420B7, 0x336579714692D5FF,
    )
    rng = Rng(42)
    assert [rng._next64() for _ in range(3)] == [
        0xC621FBCD16D92688, 0x705A5661A791FFC1, 0xDBCD12C26EDA1624,
    ]
    rng = Rng(42)
    assert [rng.random(), rng.random()] == [0.7739560485559633, 0.4388784397520523]
    assert [rng.integers(0, 2000) for _ in range(3)] == [866, 1717, 171]
    assert rng.integers(0, 2**40) == 103549089075
    assert rng.permutation(8) == [2, 7, 0, 3, 1, 5, 4, 6]
    assert rng.choice(100, 5, replace=False) == [44, 50, 82, 49, 12]


def test_seed_is_required():
    with pytest.raises(TypeError):
        Rng(None)
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(TypeError):
        Rng(1.5)


def test_integers_rejects_empty_range():
    with pytest.raises(ValueError):
        Rng(0).integers(5, 5)


def test_choice_without_replacement_only():
    with pytest.raises(NotImplementedError):
        Rng(0).choice(10, 3)
    with pytest.raises(ValueError):
        Rng(0).choice(3, 4, replace=False)


# --- cross-checks against numpy -------------------------------------------


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_seed_words_match_seed_sequence(np, seed):
    state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_words(seed) == tuple(int(word) for word in state)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_next64_matches_pcg64(np, seed):
    raw = np.random.default_rng(seed).bit_generator.random_raw(200)
    rng = Rng(seed)
    assert [rng._next64() for _ in range(200)] == [int(x) for x in raw]


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_random_and_integers_interleaved(np, seed):
    # random() skips the buffered high half that 32-bit bounded draws
    # leave behind; interleaving pins that it neither reads nor clears it.
    ref, rng = np.random.default_rng(seed), Rng(seed)
    for high in BOUNDS:
        for _ in range(40):
            assert rng.integers(0, high) == int(ref.integers(0, high))
            assert rng.random() == ref.random()
            assert rng.integers(-3, high) == int(ref.integers(-3, high))
    assert rng.integers(0, 10) == int(ref.integers(0, 10))


@pytest.mark.parametrize("n", [0, 1, 2, 12, 24, 5000])
def test_permutation(np, n):
    ref, rng = np.random.default_rng(n), Rng(n)
    for _ in range(3):
        assert rng.permutation(n) == [int(x) for x in ref.permutation(n)]
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "n,size",
    [(66, 64), (190, 64), (276, 64), (1000, 64), (64, 64), (10, 0),
     (20000, 500), (10001, 201), (20000, 400)],
)
def test_choice_without_replacement(np, n, size):
    # n > 10000 and size > n // 50 takes numpy's tail-shuffle branch;
    # (20000, 400) sits on the boundary and stays with Floyd's algorithm.
    ref, rng = np.random.default_rng(n + size), Rng(n + size)
    for _ in range(3):
        expected = [int(x) for x in ref.choice(n, size, replace=False)]
        assert rng.choice(n, size, replace=False) == expected
    assert rng.random() == ref.random()


def test_random_streams_match_numpy_streams(np):
    streams = RandomStreams(seed=7)
    for name in ("latency", "h7.noise", "host3.noise"):
        ss = np.random.SeedSequence([7, zlib.crc32(name.encode("utf-8"))])
        ref = np.random.default_rng(ss)
        got = streams.stream(name)
        assert [got.integers(0, 6001) for _ in range(300)] == [
            int(x) for x in ref.integers(0, 6001, size=300)
        ]
