"""Unit tests for the Reed-Solomon codec."""

import itertools

import numpy as np
import pytest

from repro.codes import RSCode
from repro.gf import gf4, gf16


def _random_data(k, blen, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (k, blen)).astype(np.uint8)


def test_encode_shape():
    code = RSCode(6, 3)
    stripe = code.encode(_random_data(6, 64))
    assert stripe.parity.shape == (3, 64)


def test_encode_wrong_shape_raises():
    with pytest.raises(ValueError):
        RSCode(4, 2).encode(np.zeros((3, 16), np.uint8))


def test_bad_params():
    with pytest.raises(ValueError):
        RSCode(0, 2)
    with pytest.raises(ValueError):
        RSCode(4, 0)
    with pytest.raises(ValueError):
        RSCode(200, 100)  # k+m > 256
    with pytest.raises(ValueError):
        RSCode(4, 2, matrix="bogus")


def test_generator_is_shared_and_read_only():
    a, b = RSCode(8, 4), RSCode(8, 4)
    assert a.generator is b.generator
    assert np.shares_memory(a.parity_rows, b.generator)
    assert not a.generator.flags.writeable
    assert not a.parity_rows.flags.writeable
    with pytest.raises(ValueError):
        a.generator[0, 0] = 1
    # A different geometry, matrix kind or field gets its own matrix.
    assert RSCode(8, 3).generator is not a.generator
    assert RSCode(8, 4, matrix="cauchy").generator is not a.generator
    assert RSCode(8, 4, field=gf16).generator is not a.generator


def test_shared_generator_survives_decode():
    code = RSCode(4, 2)
    before = code.generator.copy()
    data = _random_data(4, 32)
    stripe = code.encode(data)
    survivors = stripe.erase([0, 4])
    recovered = code.decode(survivors, erased=[0, 4])
    assert np.array_equal(recovered[0], data[0])
    assert np.array_equal(RSCode(4, 2).generator, before)


def test_systematic():
    """Data blocks are not transformed (identity top of generator)."""
    code = RSCode(5, 2)
    data = _random_data(5, 32)
    stripe = code.encode(data)
    assert stripe.data is data or np.array_equal(stripe.data, data)


@pytest.mark.parametrize("matrix", ["vandermonde", "cauchy"])
@pytest.mark.parametrize("k,m", [(2, 1), (4, 2), (12, 4), (28, 4)])
def test_decode_all_data_erasure_patterns(k, m, matrix):
    code = RSCode(k, m, matrix=matrix)
    data = _random_data(k, 16, seed=k * m)
    stripe = code.encode(data)
    rng = np.random.default_rng(7)
    # Erase m random blocks (several patterns) and recover.
    for _ in range(6):
        erased = sorted(rng.choice(k + m, size=m, replace=False).tolist())
        survivors = stripe.erase(erased)
        out = code.decode(survivors, erased)
        all_blocks = stripe.blocks()
        for e in erased:
            assert np.array_equal(out[e], all_blocks[e]), (erased, e)


def test_decode_exhaustive_small_code():
    code = RSCode(3, 2)
    data = _random_data(3, 8, seed=42)
    stripe = code.encode(data)
    all_blocks = stripe.blocks()
    for r in (1, 2):
        for erased in itertools.combinations(range(5), r):
            out = code.decode(stripe.erase(erased), list(erased))
            for e in erased:
                assert np.array_equal(out[e], all_blocks[e])


def test_decode_too_many_erasures():
    code = RSCode(4, 2)
    stripe = code.encode(_random_data(4, 8))
    with pytest.raises(ValueError, match="cannot repair"):
        code.decode(stripe.erase([0, 1, 2]), [0, 1, 2])


def test_decode_insufficient_survivors():
    code = RSCode(4, 2)
    stripe = code.encode(_random_data(4, 8))
    survivors = stripe.erase([0, 1])
    survivors.pop(2)
    with pytest.raises(ValueError, match="at least k"):
        code.decode(survivors, [0, 1])


def test_decode_with_parity_survivor_subset():
    """Decoder must work when it is handed more than k survivors."""
    code = RSCode(4, 3)
    data = _random_data(4, 8, seed=9)
    stripe = code.encode(data)
    out = code.decode(stripe.erase([1]), [1])
    assert np.array_equal(out[1], data[1])


def test_update_parity_matches_reencode():
    code = RSCode(6, 3)
    data = _random_data(6, 32, seed=1)
    stripe = code.encode(data)
    new_block = _random_data(1, 32, seed=2)[0]
    updated = code.update_parity(stripe.parity, 2, data[2], new_block)
    data2 = data.copy()
    data2[2] = new_block
    assert np.array_equal(updated, code.encode(data2).parity)


def test_update_parity_bad_index():
    code = RSCode(4, 2)
    with pytest.raises(IndexError):
        code.update_parity(np.zeros((2, 8), np.uint8), 4,
                           np.zeros(8, np.uint8), np.zeros(8, np.uint8))


def test_other_fields():
    for field, k, m in [(gf4, 3, 2), (gf16, 12, 4)]:
        code = RSCode(k, m, field=field)
        rng = np.random.default_rng(3)
        data = rng.integers(0, field.order, (k, 16)).astype(field.dtype)
        stripe = code.encode(data)
        erased = list(range(m))
        out = code.decode(stripe.erase(erased), erased)
        for e in erased:
            assert np.array_equal(out[e], data[e])


def test_gf4_parameter_bound():
    with pytest.raises(ValueError):
        RSCode(14, 4, field=gf4)  # 18 > 16


def test_decode_matrix_rows_for_parity_erasure():
    code = RSCode(4, 2)
    data = _random_data(4, 8, seed=5)
    stripe = code.encode(data)
    out = code.decode(stripe.erase([4]), [4])
    assert np.array_equal(out[4], stripe.parity[0])
