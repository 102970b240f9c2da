import pytest

from maxdom.prng import SplitMix64


def test_reference_vectors_seed_zero():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_reference_vector_large_seed():
    g = SplitMix64(1234567)
    assert g.next_u64() == 6457827717110365317


def test_streams_are_deterministic():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_bounded_draws():
    g = SplitMix64(5)
    vals = [g.below(7) for _ in range(200)]
    assert all(0 <= v < 7 for v in vals)
    vals = [g.randint(-3, 3) for _ in range(200)]
    assert all(-3 <= v <= 3 for v in vals)
    assert min(vals) == -3 and max(vals) == 3


def test_bad_bounds_raise():
    g = SplitMix64(5)
    with pytest.raises(ValueError):
        g.below(0)
    with pytest.raises(ValueError):
        g.randint(2, 1)


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10000])
def test_draws_are_the_scalar_stream(seed, count):
    a, b = SplitMix64(seed), SplitMix64(seed)
    d = a.draws(count)
    assert d.typecode == "Q" and d.tolist() == [b.next_u64() for _ in range(count)]
    assert a.next_u64() == b.next_u64()  # the state moved on by count steps


def test_draws_and_scalar_calls_continue_one_stream():
    g, ref = SplitMix64(42), SplitMix64(42)
    got = []
    for count in (3, 4096, 0, 1, 5000):
        got += g.draws(count)
        got.append(g.next_u64())
    assert got == [ref.next_u64() for _ in range(len(got))]
