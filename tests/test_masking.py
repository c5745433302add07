"""Core masked-chain arithmetic: frozen examples, properties, domain errors."""

import random

import pytest

from privagg.masking import chain_add, collusion_recover, mask_initial, unmask


def direct_chain(values, r, m):
    """Independent oracle: run the chain by plain integer arithmetic."""
    running = (r + values[0]) % m
    for x in values[1:]:
        running = (running + x) % m
    return running


def test_mask_initial_examples():
    assert mask_initial(0, 0, 16) == 0
    assert mask_initial(5, 13, 16) == 2
    assert mask_initial(3, 11, 32) == 14


def test_chain_add_examples():
    assert chain_add(14, 9, 32) == 23
    assert chain_add(23, 14, 32) == 5


def test_full_chain_matches_direct_summation():
    # oracle: (11 + 3 + 9 + 14) mod 32 = 5
    r1 = mask_initial(3, 11, 32)
    r2 = chain_add(r1, 9, 32)
    r3 = chain_add(r2, 14, 32)
    assert r3 == 5
    assert r3 == direct_chain((3, 9, 14), 11, 32)


def test_unmask_examples():
    assert unmask(5, 11, 32) == 26  # oracle: 3 + 9 + 14
    assert unmask(7, 7, 100) == 0
    assert unmask(0, 1, 16) == 15


def test_collusion_recover_examples():
    assert collusion_recover(23, 14, 32) == 9  # x_2 of the chain above
    assert collusion_recover(14, 14, 32) == 0
    assert collusion_recover(2, 30, 32) == 4


def test_round_trip_random_instances():
    rng = random.Random(20240817)
    for _ in range(300):
        m = rng.choice([2, 17, 2**16, 2**32, 2**62])
        n = rng.randint(1, 20)
        # keep the true sum below the modulus
        values = [rng.randrange(max(1, m // n)) for _ in range(n)]
        r = rng.randrange(m)
        running = mask_initial(values[0], r, m)
        for x in values[1:]:
            running = chain_add(running, x, m)
        assert unmask(running, r, m) == sum(values)


def test_masking_uniform_over_masks():
    # with r uniform on [0, m), each output of mask_initial occurs exactly once
    m = 17
    for x in range(m):
        outputs = sorted(mask_initial(x, r, m) for r in range(m))
        assert outputs == list(range(m))


def test_chain_values_uniform_for_every_input_pair():
    # the second chain value is equally uniform in r, whatever the inputs
    m = 17
    for x1 in range(m):
        for x2 in range(m):
            outputs = sorted(
                chain_add(mask_initial(x1, r, m), x2, m) for r in range(m)
            )
            assert outputs == list(range(m))


def test_collusion_identity_exhaustive_small_modulus():
    m = 11
    for p in range(m):
        for x in range(m):
            assert collusion_recover(chain_add(p, x, m), p, m) == x


def test_large_modulus_no_overflow():
    m = 2**62
    big = m - 1
    assert mask_initial(big, big, m) == (2 * big) % m
    assert unmask(0, big, m) == 1
    assert collusion_recover(0, big, m) == 1


@pytest.mark.parametrize(
    "func, args",
    [
        (mask_initial, (16, 0, 16)),
        (mask_initial, (0, 16, 16)),
        (mask_initial, (-1, 0, 16)),
        (chain_add, (32, 0, 32)),
        (chain_add, (0, -3, 32)),
        (unmask, (32, 0, 32)),
        (unmask, (0, 99, 32)),
        (collusion_recover, (32, 0, 32)),
        (collusion_recover, (0, 32, 32)),
    ],
)
def test_out_of_range_inputs_rejected(func, args):
    with pytest.raises(ValueError):
        func(*args)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        mask_initial(0, 0, 1)
