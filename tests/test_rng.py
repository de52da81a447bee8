"""Stream keys. ``rng`` derives every Philox key itself, a chunk's keys in one
vectorized pass, and must give numpy's ``SeedSequence`` keys bit for bit; the
one generator a chunk re-keys per stream must draw what fresh generators
draw. Key entries must be non-negative integers, so distinct seeds never
share a stream."""

import numpy as np
import pytest

from fclt_lab.errors import ParameterError
from fclt_lab.innovations import InnovationDist
from fclt_lab.processes import IidSpec, simulate, simulate_batch
from fclt_lab.rng import seed_key, stream_generator

BIG = [2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, 2**64, 2**96 + 3]


def _numpy_key(key):
    return np.random.SeedSequence(key[0], spawn_key=key[1:]).generate_state(2, np.uint64)


def _numpy_generator(key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key[0], spawn_key=key[1:])))


def _key(generator):
    return generator.bit_generator.state["state"]["key"]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1, *BIG[1:]])
def test_single_stream_keys_equal_seed_sequence(seed):
    # an int seed with no stream: no spawn key, so no padding of the run entropy
    assert np.array_equal(_key(stream_generator(seed)), _numpy_key((seed,)))
    for length in range(7):  # spawn keys of length 0-6, entries of one to four words
        key = (seed,) + tuple(BIG[(seed + i) % len(BIG)] if i % 2 else i for i in range(length))
        assert np.array_equal(_key(stream_generator(key)), _numpy_key(key)), key


@pytest.mark.parametrize("head", [(0,), (7,), (2**32,), (2**64 + 1,), (7, 3), (5, 2**40, 0, 1, 2, 3)])
def test_chunk_keys_equal_seed_sequence(head):
    each = [0, 5, *BIG, 3, 2**32 - 1]  # word counts 1 to 4, interleaved
    keys = [_key(g).copy() for g in stream_generator(head, each=each)]
    assert np.array_equal(keys, [_numpy_key(head + (i,)) for i in each])
    assert np.array_equal(keys[:2], [_key(g).copy() for g in stream_generator(*head, each=range(0, 10, 5))])


@pytest.mark.parametrize(
    "dist",
    [InnovationDist(), InnovationDist("student_t", dof=5.0), InnovationDist("rademacher"), InnovationDist("uniform")],
    ids=lambda d: d.kind,
)
def test_rekeyed_draws_equal_fresh_generators(dist):
    # odd sizes leave a partly used Philox buffer and a spare 32-bit word behind
    each = [3, 2**32, 0, 11]
    rekeyed = [(dist.sample(g, 7), g.integers(1000, size=5)) for g in stream_generator(9, 2, each=each)]
    for (draws, picks), i in zip(rekeyed, each, strict=True):
        for fresh in (stream_generator(9, 2, i), _numpy_generator((9, 2, i))):
            assert np.array_equal(draws, dist.sample(fresh, 7))
            assert np.array_equal(picks, fresh.integers(1000, size=5))


def test_batch_rows_equal_single_paths():
    spec, reps = IidSpec(InnovationDist("student_t", dof=6.0)), range(2**32 - 1, 2**32 + 2)
    for row, rep in zip(simulate_batch(spec, 9, None, (4, 1), reps), reps, strict=True):
        assert np.array_equal(row, simulate(spec, 9, seed=(4, 1, rep)).values)


@pytest.mark.parametrize(
    "call, entry",
    [
        (lambda: seed_key((1.5, 2)), "1.5"),
        (lambda: seed_key([True, 3]), "True"),
        (lambda: seed_key(float("nan")), "nan"),
        (lambda: seed_key(4.0), "4.0"),  # a scalar seed is an integer; integral floats pass only in sequences
        (lambda: seed_key(True), "True"),
        (lambda: simulate(IidSpec(), 4, seed=4.0), "4.0"),
        (lambda: seed_key("7"), "'7'"),
        (lambda: stream_generator(3, 2.7), "2.7"),
        (lambda: stream_generator(3, each=[0, 1.5]), "1.5"),
        (lambda: simulate(IidSpec(), 4, seed=(1, 2.5)), "2.5"),
        (lambda: stream_generator(-1), "-1"),
        (lambda: stream_generator(3, -2), "-2"),
        (lambda: stream_generator((3, -2), 0), "-2"),
        (lambda: stream_generator(3, each=range(-1, 2)), "-1"),  # refused at the call, before any draw
        (lambda: simulate_batch(IidSpec(), 4, None, 3, range(-2, 2)), "-2"),
    ],
)
def test_bad_key_entries_are_refused_by_name(call, entry):
    with pytest.raises(ParameterError, match=f"got {entry}$"):
        call()


def test_integral_entries_name_their_integer():
    # an integral float in a seed sequence or a stream index names that integer's stream
    assert seed_key((1.0, np.int64(2)), np.uint64(3)) == (1, 2, 3)
    assert seed_key(np.int64(4)) == (4,)
    assert np.array_equal(_key(stream_generator((np.float64(4.0),), 2.0)), _numpy_key((4, 2)))
    with pytest.raises(ParameterError, match="must not be empty"):
        seed_key(())
