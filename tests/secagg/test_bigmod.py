"""Bit-identity of the pseudo-Mersenne limb substrate against ``pow(b, e, p)``.

Every claim the cross-group SecAgg plane makes rests on these: the limb
kernels must agree with CPython's big-int ``pow`` on *every* input, not
statistically, so edge exponents (the forced-high-bit minimum secret,
the maximal 120-bit secret, exponent one and zero) and edge bases
(0, 1, p-1, non-canonical >= p) are pinned alongside random draws, and
the multiply kernel is driven from inputs at its documented loose bound.
"""

import random

import numpy as np
import pytest

from repro.secagg.bigmod import (
    _BLOCK_COLUMNS,
    MODULUS,
    FixedBaseTable,
    _from_limbs,
    _from_limbs_bytes,
    _mul_,
    _Scratch,
    powmod_batch,
)
from repro.secagg.field import SECRET_BITS

#: Edge exponents the DH layer can actually produce: the smallest secret
#: the forced-high-bit draw permits, the largest 120-bit value, and the
#: degenerate one/zero cases.
EDGE_EXPONENTS = [0, 1, 1 << (SECRET_BITS - 8), (1 << SECRET_BITS) - 1]


def test_powmod_batch_matches_builtin_pow():
    rnd = random.Random(1234)
    bases = [rnd.randrange(MODULUS) for _ in range(64)]
    exponents = [rnd.randrange(1 << SECRET_BITS) for _ in range(64)]
    assert powmod_batch(bases, exponents) == [
        pow(b, e, MODULUS) for b, e in zip(bases, exponents)
    ]


def test_powmod_batch_edge_exponents():
    rnd = random.Random(99)
    for e in EDGE_EXPONENTS:
        bases = [rnd.randrange(MODULUS) for _ in range(5)] + [2]
        assert powmod_batch(bases, [e] * len(bases)) == [
            pow(b, e, MODULUS) for b in bases
        ]


def test_powmod_batch_edge_bases():
    # Non-canonical bases (>= p) must reduce first, exactly as pow does.
    bases = [0, 1, MODULUS - 1, MODULUS, MODULUS + 7]
    exponents = [3, (1 << SECRET_BITS) - 1, 2, 5, 1]
    assert powmod_batch(bases, exponents) == [
        pow(b, e, MODULUS) for b, e in zip(bases, exponents)
    ]


def test_powmod_batch_empty_and_validation():
    assert powmod_batch([], []) == []
    with pytest.raises(ValueError):
        powmod_batch([2], [1, 2])
    with pytest.raises(ValueError):
        powmod_batch([2], [-1])


def test_fixed_base_table_matches_pow():
    rnd = random.Random(7)
    table = FixedBaseTable(2)
    # Products of two secrets reach 240-247 bits — the widest exponents
    # the pairwise-agreement path feeds the table.
    exponents = (
        [rnd.randrange(1 << SECRET_BITS) for _ in range(20)]
        + [rnd.randrange(1 << 247) for _ in range(20)]
        + EDGE_EXPONENTS
        + [(1 << 247) - 1, 1 << 240]
    )
    assert table.pow_batch(exponents) == [
        pow(2, e, MODULUS) for e in exponents
    ]


def test_fixed_base_table_grows_lazily():
    table = FixedBaseTable(3)
    small = [5, (1 << SECRET_BITS) - 1]
    assert table.pow_batch(small) == [pow(3, e, MODULUS) for e in small]
    # A wider exponent arriving later must extend the table, not wrap.
    wide = [(1 << 247) - 1]
    assert table.pow_batch(wide) == [pow(3, e, MODULUS) for e in wide]


def test_pow_batch_bytes_is_canonical_little_endian():
    rnd = random.Random(31)
    table = FixedBaseTable(2)
    exponents = [rnd.randrange(1 << 247) for _ in range(32)] + EDGE_EXPONENTS
    assert table.pow_batch_bytes(exponents) == [
        pow(2, e, MODULUS).to_bytes(32, "little") for e in exponents
    ]


def test_fixed_base_table_empty_and_validation():
    table = FixedBaseTable(2)
    assert table.pow_batch([]) == []
    assert table.pow_batch_bytes([]) == []
    with pytest.raises(ValueError):
        table.pow_batch([-1])


#: Every limb stays below this between multiplies (the kernel's contract).
LOOSE_BOUND = 1 << 30


def _limb_values(limbs: np.ndarray) -> list[int]:
    """The (unreduced) integers a ``(9, N)`` limb array spells."""
    return [
        sum(int(limbs[k, col]) << (29 * k) for k in range(limbs.shape[0]))
        for col in range(limbs.shape[1])
    ]


def test_mul_chain_from_loose_bound_inputs():
    # Every limb of both operands at 2^30 - 1 maximizes every column sum;
    # mixed with random loose limbs and chained through squarings and
    # aliased multiplies, each step must stay inside the loose bound and
    # agree with Python ints.
    gen = np.random.default_rng(5)
    n = 6
    top = np.full((9, n), LOOSE_BOUND - 1, dtype=np.uint64)
    loose = gen.integers(0, LOOSE_BOUND, size=(9, n), dtype=np.uint64)
    factor = top.copy()
    factor[:, n // 2:] = loose[:, n // 2:]
    acc = top.copy()
    acc[:, 1] = loose[:, 1]
    expected = [v % MODULUS for v in _limb_values(acc)]
    factor_values = _limb_values(factor)
    scratch = _Scratch(n)
    for step in range(120):
        if step % 3 == 2:
            _mul_(acc, acc, acc, scratch)
            expected = [e * e % MODULUS for e in expected]
        else:
            _mul_(acc, acc, factor, scratch)
            expected = [
                e * f % MODULUS for e, f in zip(expected, factor_values)
            ]
        assert acc.max() < LOOSE_BOUND, step
        assert _from_limbs(acc) == expected, step
    assert _from_limbs_bytes(acc) == [e.to_bytes(32, "little") for e in expected]


def test_canonical_bytes_of_loose_limbs_near_the_modulus():
    # Loose spellings of p - 1, p, p + 1 and the loose maximum must all
    # canonicalize exactly like % p.
    values = [MODULUS - 1, MODULUS, MODULUS + 1, 2 * MODULUS + 5, 0]
    limbs = np.array(
        [[(v >> (29 * k)) & ((1 << 29) - 1) for v in values] for k in range(9)],
        dtype=np.uint64,
    )
    limbs = np.concatenate(
        [limbs, np.full((9, 1), LOOSE_BOUND - 1, dtype=np.uint64)], axis=1
    )
    spelled = _limb_values(limbs)
    assert _from_limbs_bytes(limbs) == [
        (v % MODULUS).to_bytes(32, "little") for v in spelled
    ]
    assert _from_limbs(limbs) == [v % MODULUS for v in spelled]


def test_fixed_base_table_positions_hold_plain_residues():
    table = FixedBaseTable(2)
    table.pow_batch([(1 << 247) - 1])      # builds all 18 positions
    w = table.window_bits
    assert len(table._tables) == -(-247 // w)
    for i, position in enumerate(table._tables):
        assert position.shape == (9, 1 << w)
        assert position.max() < LOOSE_BOUND
        sampled = list(range(0, 1 << w, 1024)) + [(1 << w) - 1]
        got = _limb_values(position[:, sampled])
        for j, value in zip(sampled, got):
            assert value % MODULUS == pow(2, j << (w * i), MODULUS), (i, j)


@pytest.mark.parametrize("n", [1, 20, 190])
def test_pow_batch_bytes_at_group_batch_sizes(n):
    rnd = random.Random(n)
    table = FixedBaseTable(2)
    secrets = [rnd.getrandbits(SECRET_BITS) for _ in range(2 * n)]
    for exponents in (secrets[:n], [a * b for a, b in zip(secrets, secrets[n:])]):
        assert table.pow_batch_bytes(exponents) == [
            pow(2, e, MODULUS).to_bytes(32, "little") for e in exponents
        ]


def test_batches_wider_than_one_column_block():
    rnd = random.Random(11)
    n = _BLOCK_COLUMNS + 3
    exponents = [rnd.randrange(1 << 247) for _ in range(n)]
    assert FixedBaseTable(2).pow_batch_bytes(exponents) == [
        pow(2, e, MODULUS).to_bytes(32, "little") for e in exponents
    ]
    bases = [rnd.randrange(MODULUS) for _ in range(n)]
    short = [rnd.randrange(1 << 16) for _ in range(n)]
    assert powmod_batch(bases, short) == [
        pow(b, e, MODULUS) for b, e in zip(bases, short)
    ]
