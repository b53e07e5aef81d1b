import numpy as np
import pytest

from adaptik.util import stream_rng


# The first raw PCG64 outputs of each stream, recorded once; every number
# of the paper is drawn from these streams, so they must never change.
@pytest.mark.parametrize("coords, raw", [
    ((0,), [11749869230777074271, 4976686463289251617, 755828109848996024]),
    ((7, 2000, 3),
     [10985507553857406318, 17203715298624073281, 9777775416499099286]),
    ((1001, 262144, 19),
     [1940778940723612674, 17705472134516268007, 2862219296427738175]),
    ((2**64 + 5, -1, 2**70),
     [12789967251614426089, 6901595321915601019, 8202398204808347365]),
    ((0xFFFFFFFFFFFFFFFF, 2**63),
     [10459541892030091893, 16509838563745647613, 10137082680490222307])])
def test_stream_is_frozen(coords, raw):
    assert stream_rng(*coords).bit_generator.random_raw(3).tolist() == raw


def test_coordinates_are_masked_to_64_bits():
    a = stream_rng(2**64 + 5, -1, 2**70).standard_normal(8)
    b = stream_rng(5, 2**64 - 1, 0).standard_normal(8)
    assert np.array_equal(a, b)
