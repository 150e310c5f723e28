"""The chunk fill against its oracle: a fresh `rng.philox` per stream."""

import numpy as np
import pytest

from heavylab import measures, rng

SEED = 2024


def _oracle_uniforms(seed, s, shape):
    return rng.philox(seed, s).random(shape)


def _oracle_exponentials(seed, s, count):
    return -np.log1p(-rng.philox(seed, s).random(count))


def _oracle_laplaces(seed, s, count):
    u = rng.philox(seed, s).random((2, count))
    return np.where(u[1] < 0.5, -1.0, 1.0) * -np.log1p(-u[0])


ORACLES = [
    (rng.uniforms, _oracle_uniforms),
    (rng.exponentials, _oracle_exponentials),
    (rng.laplaces, _oracle_laplaces),
]
IDS = ["uniforms", "exponentials", "laplaces"]


def _assert_rows(draw, oracle, seed, streams, count):
    rows = draw(seed, streams, count)
    assert rows.shape == (len(streams), count)
    for row, s in zip(rows, streams):
        assert np.array_equal(row, oracle(seed, s, count))


@pytest.mark.parametrize(("draw", "oracle"), ORACLES, ids=IDS)
@pytest.mark.parametrize("streams", [range(0, 40, 2), range(1, 41, 2), range(30, 0, -3)])
def test_fill_strided_ranges(draw, oracle, streams):
    _assert_rows(draw, oracle, SEED, streams, 257)


@pytest.mark.parametrize(("draw", "oracle"), ORACLES, ids=IDS)
def test_fill_resets_buffer_between_odd_rows(draw, oracle):
    # Philox hands out 64-bit words four at a time; an odd row leaves words
    # buffered, which the next stream must not see
    for count in (1, 3, 5, 7):
        _assert_rows(draw, oracle, SEED, range(5, 11), count)


@pytest.mark.parametrize(("draw", "oracle"), ORACLES, ids=IDS)
@pytest.mark.parametrize("count", [0, 1])
def test_fill_counts_zero_and_one(draw, oracle, count):
    _assert_rows(draw, oracle, SEED, range(4), count)
    assert np.array_equal(draw(SEED, 3, count), oracle(SEED, 3, count))
    assert draw(SEED, range(0), count).shape == (0, count)


@pytest.mark.parametrize(("draw", "oracle"), ORACLES, ids=IDS)
def test_fill_wide_seed_and_stream(draw, oracle):
    seed = 2**63 + 12345
    _assert_rows(draw, oracle, seed, range(2**32, 2**32 + 4), 9)
    _assert_rows(draw, oracle, seed, range(2**40, 2**40 + 9, 3), 9)
    assert np.array_equal(draw(seed, 2**33 + 1, 9), oracle(seed, 2**33 + 1, 9))


@pytest.mark.parametrize("draw", [rng.uniforms, rng.exponentials, rng.laplaces], ids=IDS)
def test_fill_rejects_negative_streams(draw):
    for streams in (range(-1, 3), range(3, -2, -1), -1):
        with pytest.raises(ValueError):
            draw(SEED, streams, 4)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
def test_sample_rows_match_oracle_formulas(alpha):
    streams = range(3, 17, 2)
    count = 1001
    if alpha == 1.0:  # phi is the identity: the draws themselves, psi(-0.0) = +0.0
        transport, odd = (lambda x: x), (lambda x: x + 0.0)
    else:
        tmap = measures.rearrangement_map(alpha)
        transport, odd = tmap, tmap.odd
    one = measures.sample(measures.mu(alpha), count, SEED, streams)
    two = measures.sample(measures.nu(alpha), count, SEED, streams)
    for k, s in enumerate(streams):
        assert np.array_equal(one[k], transport(_oracle_exponentials(SEED, s, count)))
        assert np.array_equal(two[k], odd(_oracle_laplaces(SEED, s, count)))


@pytest.mark.parametrize("stream", [5, range(3, 9)], ids=["stream", "range"])
def test_sample_at_alpha_one_is_the_exact_draw(stream, monkeypatch):
    count = 4097
    tmap = measures.RearrangementMap(1.0)
    for law, draw, transport in (
        (measures.mu(1.0), rng.exponentials, tmap),
        (measures.nu(1.0), rng.laplaces, tmap.odd),
    ):
        got = measures.sample(law, count, SEED, stream)
        raw = draw(SEED, stream, count)
        assert np.array_equal(got, raw)
        # the table the draws skip gives the same law to its interpolation error
        mapped = transport(raw.reshape(-1)).reshape(raw.shape)
        np.testing.assert_allclose(got, mapped, rtol=1e-13, atol=0.0)
    # a Laplace draw of -0.0 (u = 0 with a minus sign) comes back as +0.0
    shape = (len(stream), count) if isinstance(stream, range) else (count,)
    monkeypatch.setattr(rng, "laplaces", lambda seed, stream, count: np.full(shape, -0.0))
    zeros = measures.sample(measures.nu(1.0), count, SEED, stream)
    assert zeros.shape == shape
    assert np.all(zeros == 0.0) and not np.signbit(zeros).any()
