"""Batched modular exponentiation over the 255-bit DH prime ``2^255 - 19``.

The protocol's remaining scalar hot spot is ``pow(base, exponent,
DH_PRIME)`` — one CPython big-int exponentiation per keypair, per
pairwise agreement, and per dropout-recovery re-derivation.  This module
replaces those per-element calls with *stacked* fixed-window
exponentiation on numpy limb arrays, the same deferred-carry limb
technique :mod:`repro.secagg.field` uses for GF(2^127 − 1):

* elements are held as nine 29-bit limbs (261 bits) in uint64 lanes,
  *transposed* ``(9, N)`` so every limb row is contiguous across the
  batch;
* the modulus is pseudo-Mersenne: ``2^255 ≡ 19``, so
  ``2^261 ≡ 2^6 · 19 = 1216 (mod p)`` and one multiply is a limb
  convolution plus a fold of the high half by that small constant — no
  Montgomery domain and no REDC, twelve numpy ops per multiply (see
  :func:`_mul_`);
* limbs stay *loose* between multiplies — each below ``2^30``, spelling
  a value that is congruent to the residue but not reduced.  Only the
  ``_from_limbs*`` boundary canonicalizes, once per batch;
* :func:`powmod_batch` runs a fixed 4-bit window ladder over the whole
  batch at once (per-element window digits are gathered from a shared
  table), and :class:`FixedBaseTable` removes the squarings entirely for
  a *known* base — ``g^x`` becomes one table gather + one multiply per
  14-bit window, with the per-window tables built once (in limb space,
  through the same kernel) and cached.

Overflow bounds of one multiply, every lane uint64, every input limb
below 2^30:

1. products of two limbs are below 2^60 and a column sums at most nine
   of them: below 9 · 2^60 < 2^63.2;
2. one parallel carry pass (each row keeps its low 29 bits and hands
   the rest, below 9 · 2^31, to the next row) leaves 18 rows below
   37 · 2^29 — row 17 holds the carry out of column 16;
3. folding rows 9–17 onto rows 0–8 times 1216 leaves rows below
   1217 · 37 · 2^29 < 2^44.5;
4. one wrap-around carry pass (row 8's carry, below 2^15.5, re-enters
   row 0 times 1216) leaves rows 1–8 below 2^29 + 2^15.5 and row 0
   below 2^29 + 2^25.7 — under the loose bound 2^30 again, so every
   output is a valid input.

Every result is canonicalized at the boundary, so outputs are
bit-identical to CPython's ``pow(base, exponent, MODULUS)`` by
construction — the batched DH plane (:mod:`repro.secagg.dh`) relies on
that for cross-plane byte-equivalence, and ``tests/secagg/test_bigmod.py``
asserts it on random, adversarial-edge, and loose-bound inputs.

Column blocks: kernels run on at most :data:`_BLOCK_COLUMNS` columns at a
time (the ladder is column-independent), so scratch memory stays bounded
whatever the batch width.

Limb discipline: uint64 limb arrays never round-trip through Python ints
inside a kernel — object-dtype escapes are confined to the ``_to_*`` /
``_from_*`` boundary helpers (machine-checked by repro-lint's
``inplace-op-discipline`` bigmod clause).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: 2^255 - 19 — the curve25519 prime, used as a plain DH modulus.
MODULUS: int = (1 << 255) - 19

_LIMB_BITS = 29
_NUM_LIMBS = 9                        # 9 x 29 = 261 bits >= 255
_LIMB_MASK = (1 << _LIMB_BITS) - 1
#: Rows of one product: 17 column sums plus the carry out of the top one.
_ROWS = 2 * _NUM_LIMBS
#: 2^261 mod p = 2^6 · 19.
_FOLD = (1 << (_LIMB_BITS * _NUM_LIMBS)) % MODULUS
#: Bits of limb 8 below 2^255 (8 x 29 = 232, 255 - 232 = 23).
_TOP_BITS = 255 - _LIMB_BITS * (_NUM_LIMBS - 1)

_MASK64 = np.uint64(_LIMB_MASK)
_SHIFT64 = np.uint64(_LIMB_BITS)
_FOLD64 = np.uint64(_FOLD)
_TOP_SHIFT64 = np.uint64(_TOP_BITS)
_TOP_MASK64 = np.uint64((1 << _TOP_BITS) - 1)
_NINETEEN64 = np.uint64(19)

#: Window width of the generic (per-element base) ladder.
_POW_WINDOW_BITS = 4
#: Window width of the fixed-base tables (larger: the table is cached).
_FIXED_WINDOW_BITS = 14
#: Widest column block one kernel call works on.
_BLOCK_COLUMNS = 1024


def _to_limbs(values: list[int]) -> np.ndarray:
    """Pack residues into a transposed ``(9, N)`` uint64 limb array."""
    col = np.array([v % MODULUS for v in values], dtype=object)
    out = np.empty((_NUM_LIMBS, len(values)), dtype=np.uint64)
    for k in range(_NUM_LIMBS):
        out[k] = (col >> (k * _LIMB_BITS)) & _LIMB_MASK
    return out


def _from_limbs(limbs: np.ndarray) -> list[int]:
    """Unpack a loose ``(9, N)`` limb array into canonical ints."""
    vals = limbs.astype(object)
    combined = vals[0]
    for k in range(1, _NUM_LIMBS):
        combined = combined + (vals[k] << (k * _LIMB_BITS))
    return [int(v % MODULUS) for v in combined.tolist()]


#: Word ``k`` of a canonical value is ``(c_k >> _WORD_LO) | (c_k+1 <<
#: _WORD_HI)`` over its 58-bit limb pairs ``c`` (limb 8 closes the list).
_WORD_LO = np.array([[0], [6], [12], [18]], dtype=np.uint64)
_WORD_HI = np.array([[58], [52], [46], [40]], dtype=np.uint64)


def _from_limbs_bytes(limbs: np.ndarray) -> list[bytes]:
    """Canonical 32-byte little-endian encodings of a loose limb array.

    The packed bytes equal ``int.to_bytes(v % p, 32, "little")`` exactly;
    key derivation hashes them without materializing Python ints.
    """
    n = limbs.shape[1]
    canonical = _canonical(limbs)
    # Strict 29-bit limbs pair up into 58-bit chunks at bits 0, 58, 116
    # and 174; limb 8 sits at bit 232.  Shifts past bit 63 drop out.
    pairs = canonical[0:8:2] | (canonical[1:8:2] << _SHIFT64)
    above = np.concatenate([pairs[1:], canonical[8:]])
    words = (pairs >> _WORD_LO) | (above << _WORD_HI)
    blob = words.T.astype("<u8").tobytes()
    return [blob[32 * i: 32 * i + 32] for i in range(n)]


def _to_digits(
    exponents: list[int], window_bits: int, num_windows: int
) -> np.ndarray:
    """Little-endian fixed-width window digits, shape ``(W, N)`` int64.

    Exponents are serialized once (``to_bytes``) and reinterpreted as
    uint64 words, so every window of every exponent is extracted by one
    gather, two shifts and a mask on machine integers instead of big-int
    arithmetic on an object array.
    """
    n = len(exponents)
    # One spare zero word, so a window's upper neighbour always exists.
    num_words = -(-(num_windows * window_bits) // 64) + 1
    blob = b"".join(e.to_bytes(8 * num_words, "little") for e in exponents)
    words = np.frombuffer(blob, dtype="<u8").reshape(n, num_words)
    word_index, shift = np.divmod(
        np.arange(num_windows) * window_bits, 64
    )
    shift = shift.astype(np.uint64)
    low = words[:, word_index] >> shift
    # Two-step shift: a single shift by 64 is undefined for uint64.
    high = (words[:, word_index + 1] << np.uint64(1)) << (np.uint64(63) - shift)
    digits = (low | high) & np.uint64((1 << window_bits) - 1)
    return np.ascontiguousarray(digits.T, dtype=np.int64)


#: The residue 1 as a ``(9, 1)`` column, broadcastable over ``(9, N)``.
_ONE_LIMBS = _to_limbs([1])


class _Scratch:
    """Work buffers of one multiply over ``n`` columns.

    ``skew`` is a ``(9, 18, N)`` buffer whose plane ``i`` receives
    ``a[i] · b`` at rows ``i .. i+8`` through the strided ``diag`` view,
    so one broadcast multiply plus one sum over the planes is the whole
    limb convolution; rows a plane never receives stay zero.  Allocating
    the buffers once per column block keeps the ladder allocation-free.
    """

    def __init__(self, n: int):
        self.skew = np.zeros((_NUM_LIMBS, _ROWS, n), dtype=np.uint64)
        s_plane, s_row, s_col = self.skew.strides
        self.diag = as_strided(
            self.skew,
            shape=(_NUM_LIMBS, _NUM_LIMBS, n),
            strides=(s_plane + s_row, s_row, s_col),
        )
        self.cols = np.empty((_ROWS, n), dtype=np.uint64)
        self.carry = np.empty((_ROWS, n), dtype=np.uint64)
        # Fixed views, sliced once here rather than on every multiply.
        self.cols_up = self.cols[1:]
        self.carry_down = self.carry[:-1]
        self.cols_low = self.cols[:_NUM_LIMBS]
        self.cols_high = self.cols[_NUM_LIMBS:]
        self.wrap = self.carry[:_NUM_LIMBS]
        self.wrap_down = self.carry[:_NUM_LIMBS - 1]
        self.wrap_top = self.carry[_NUM_LIMBS - 1]


def _mul_(
    out: np.ndarray, a: np.ndarray, b: np.ndarray, scratch: _Scratch
) -> None:
    """``out <- a · b (mod p)`` on loose ``(9, N)`` limb arrays.

    Inputs and output have every limb below 2^30 (the module docstring
    walks through the overflow bounds).  ``b`` may also be a ``(9, 1)``
    column broadcast over the batch.  ``out`` may alias ``a`` and/or
    ``b`` — it is only written after both are fully read.
    """
    cols, carry, wrap = scratch.cols, scratch.carry, scratch.wrap
    np.multiply(a[:, None, :], b[None, :, :], out=scratch.diag)
    np.add.reduce(scratch.skew, axis=0, out=cols)
    np.right_shift(cols, _SHIFT64, out=carry)
    cols &= _MASK64
    scratch.cols_up += scratch.carry_down
    # 2^261 ≡ 1216: rows 9-17 fold onto rows 0-8.
    np.multiply(scratch.cols_high, _FOLD64, out=wrap)
    np.add(scratch.cols_low, wrap, out=out)
    np.right_shift(out, _SHIFT64, out=wrap)
    out &= _MASK64
    out[1:] += scratch.wrap_down
    top = scratch.wrap_top
    np.multiply(top, _FOLD64, out=top)
    out[0] += top


def _carry_chain_(limbs: np.ndarray, carry: np.ndarray) -> None:
    """Sequential carries through limbs 0-7; limb 8 absorbs the rest."""
    for k in range(_NUM_LIMBS - 1):
        np.right_shift(limbs[k], _SHIFT64, out=carry)
        limbs[k] &= _MASK64
        limbs[k + 1] += carry


def _canonical(limbs: np.ndarray) -> np.ndarray:
    """Strict 29-bit limbs of the canonical residues of loose limbs.

    Limb 8's bits at and above 2^255 fold back in times 19 (``2^255 ≡
    19``), which leaves a value ``v`` below ``2^255 + 2^234 < 2p``.
    ``v >= p`` iff ``v + 19`` reaches bit 255, and then ``v - p`` *is*
    ``v + 19`` with that bit cleared — so ``v`` and ``v + 19`` ride one
    carry chain side by side and a select finishes the batch.
    """
    n = limbs.shape[1]
    v = limbs.astype(np.uint64)
    top = v[-1] >> _TOP_SHIFT64
    v[-1] &= _TOP_MASK64
    v[0] += top * _NINETEEN64
    both = np.concatenate([v, v], axis=1)
    both[0, n:] += _NINETEEN64
    _carry_chain_(both, np.empty(2 * n, dtype=np.uint64))
    plus = both[:, n:]
    wraps = (plus[-1] >> _TOP_SHIFT64).astype(bool)
    plus[-1] &= _TOP_MASK64
    return np.where(wraps, plus, both[:, :n])


def _column_blocks(n: int):
    """``(lo, hi)`` bounds of consecutive column blocks covering ``n``."""
    for lo in range(0, n, _BLOCK_COLUMNS):
        yield lo, min(lo + _BLOCK_COLUMNS, n)


def _validate(bases_or_none: list[int] | None, exponents: list[int]) -> None:
    if bases_or_none is not None and len(bases_or_none) != len(exponents):
        raise ValueError(
            f"got {len(bases_or_none)} bases for {len(exponents)} exponents"
        )
    for e in exponents:
        if e < 0:
            raise ValueError("negative exponents are not supported")


def _ladder(base: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Fixed-window ladder for one column block: loose ``base^e`` limbs."""
    m = base.shape[1]
    scratch = _Scratch(m)
    # table[j] = base^j, j = 0 .. 2^w - 1.
    table = np.empty((1 << _POW_WINDOW_BITS, _NUM_LIMBS, m), dtype=np.uint64)
    table[0] = _ONE_LIMBS
    table[1] = base
    for j in range(2, 1 << _POW_WINDOW_BITS):
        _mul_(table[j], table[j - 1], base, scratch)

    def gather(w: int) -> np.ndarray:
        idx = digits[w][None, None, :]
        return np.take_along_axis(table, idx, axis=0)[0]

    num_windows = digits.shape[0]
    acc = gather(num_windows - 1).copy()
    for w in range(num_windows - 2, -1, -1):
        for _ in range(_POW_WINDOW_BITS):
            _mul_(acc, acc, acc, scratch)
        _mul_(acc, acc, gather(w), scratch)
    return acc


def powmod_batch(bases: list[int], exponents: list[int]) -> list[int]:
    """``[pow(b, e, MODULUS) for b, e in zip(bases, exponents)]``, stacked.

    Fixed 4-bit-window ladder over the whole batch: per-element window
    digits index a shared ``base^j`` table, so every element walks the
    same ladder (elements with shorter exponents multiply by the
    identity in their leading windows).  Bit-identical to CPython ``pow``
    by construction — results are canonical residues.
    """
    _validate(bases, exponents)
    n = len(bases)
    if n == 0:
        return []
    max_bits = max(e.bit_length() for e in exponents)
    if max_bits == 0:
        return [1] * n
    num_windows = -(-max_bits // _POW_WINDOW_BITS)
    digits = _to_digits(exponents, _POW_WINDOW_BITS, num_windows)
    base = _to_limbs(bases)
    acc = np.empty((_NUM_LIMBS, n), dtype=np.uint64)
    for lo, hi in _column_blocks(n):
        acc[:, lo:hi] = _ladder(base[:, lo:hi], digits[:, lo:hi])
    return _from_limbs(acc)


class FixedBaseTable:
    """Precomputed window tables for a *fixed* base — ``g^x`` sans squarings.

    Position ``i`` caches ``base^(j · 2^(w·i)) mod p`` for every ``w``-bit
    digit ``j`` (``w`` = 14 by default) as loose limbs, stored transposed
    ``(9, 2^w)`` so a batch exponentiation is one ``np.take`` gather and
    one multiply per window — no per-call table build and no squaring
    ladder.  Positions are built lazily by block doubling in limb space
    (entries ``[B, 2B)`` are entries ``[0, B)`` times ``step^B``, through
    the same kernel) and cached for the life of the process;
    :mod:`repro.secagg.dh` keeps one instance for the group generator,
    shared by keypair generation, pair agreement, and dropout-recovery
    verification on the vectorized planes.
    """

    def __init__(self, base: int, window_bits: int = _FIXED_WINDOW_BITS):
        if not 1 <= window_bits <= 16:
            raise ValueError(f"window_bits must be in [1, 16], got {window_bits}")
        self.base = base % MODULUS
        self.window_bits = window_bits
        self._tables: list[np.ndarray] = []   # position i -> (9, 2^w) limbs

    def _ensure_positions(self, num_windows: int) -> None:
        size = 1 << self.window_bits
        while len(self._tables) < num_windows:
            step = pow(
                self.base, 1 << (self.window_bits * len(self._tables)), MODULUS
            )
            table = np.empty((_NUM_LIMBS, size), dtype=np.uint64)
            table[:, :1] = _ONE_LIMBS
            width = 1
            while width < size:
                factor = _to_limbs([pow(step, width, MODULUS)])
                scratch = _Scratch(min(width, _BLOCK_COLUMNS))
                for lo, hi in _column_blocks(width):
                    _mul_(
                        table[:, width + lo: width + hi],
                        table[:, lo:hi],
                        factor,
                        scratch,
                    )
                width *= 2
            # Loose limbs are below 2^30, so uint32 storage is exact and
            # halves the cache; the kernel widens gathers as it multiplies.
            self._tables.append(table.astype(np.uint32))

    def _pow_limbs(self, exponents: list[int]) -> np.ndarray | None:
        """The shared ladder: loose ``(9, N)`` result limbs.

        Returns None for an all-zero exponent batch (callers answer 1).
        """
        _validate(None, exponents)
        n = len(exponents)
        max_bits = max(e.bit_length() for e in exponents) if n else 0
        if max_bits == 0:
            return None
        num_windows = -(-max_bits // self.window_bits)
        self._ensure_positions(num_windows)
        digits = _to_digits(exponents, self.window_bits, num_windows)
        acc = np.empty((_NUM_LIMBS, n), dtype=np.uint64)
        for lo, hi in _column_blocks(n):
            block = acc[:, lo:hi]
            scratch = _Scratch(hi - lo)
            block[...] = np.take(self._tables[0], digits[0, lo:hi], axis=1)
            for w in range(1, num_windows):
                gathered = np.take(self._tables[w], digits[w, lo:hi], axis=1)
                _mul_(block, block, gathered, scratch)
        return acc

    def pow_batch(self, exponents: list[int]) -> list[int]:
        """``[pow(self.base, e, MODULUS) for e in exponents]``, stacked."""
        acc = self._pow_limbs(exponents)
        if acc is None:
            return [1] * len(exponents)
        return _from_limbs(acc)

    def pow_batch_bytes(self, exponents: list[int]) -> list[bytes]:
        """Like :meth:`pow_batch`, but each result arrives as its canonical
        32-byte little-endian encoding — ``pow(base, e, p).to_bytes(32,
        "little")`` without the limb → Python-int → bytes round-trip.
        Key derivation (:mod:`repro.secagg.dh`) hashes these directly.
        """
        acc = self._pow_limbs(exponents)
        if acc is None:
            return [(1).to_bytes(32, "little")] * len(exponents)
        return _from_limbs_bytes(acc)
