"""Packed-word primitives shared by the error models and the device model.

The original injection path expanded every tensor into a per-bit boolean
array (a 32x memory blowup for FP32), drew one uniform per bit, and folded
the resulting boolean flip mask back into words.  This module provides the
building blocks of the packed replacement, which never materializes per-bit
booleans and — crucially — is *bit-exact* with the boolean path for a fixed
RNG seed:

* the per-cell "weakness" uniforms are deterministic counter-based hashes, so
  the set of bits with a non-zero flip probability (the *candidates*) can be
  found with pure integer compares, chunk by chunk (:func:`hash_keys`,
  :func:`uniform_threshold`);
* the legacy path consumed exactly one ``rng.random()`` draw per stored bit.
  :func:`sample_flip_positions` reproduces the uniforms at the candidate
  positions only.  For ``PCG64`` — the default generator — it computes them
  in closed form: PCG64's state after ``n`` steps is the affine jump
  ``M**n * s + inc * (M**n - 1) / (M - 1)`` (mod ``2**128``), so the draws at
  all candidate offsets are evaluated at once with 128-bit arithmetic on
  uint64 limbs (:func:`pcg64_uniforms_at`), and the stream is then moved past
  the whole tensor with one ``advance``.  Dense candidate sets (more than
  one candidate in :data:`SPARSE_DENSITY_CUTOFF` bits) and every other
  generator draw the uniforms densely in chunks instead;
* :func:`skip_stream` moves a stream past ``n`` draws: with ``advance`` for
  ``PCG64``/``PCG64DXSM`` (one state step per double), by drawing and
  discarding for everything else — ``Philox.advance`` counts 256-bit counter
  blocks, not doubles, and ``MT19937``/``SFC64`` have no ``advance``;
* flips are applied as sparse XORs straight into the packed words
  (:func:`xor_mask_from_positions`).

Either way the drawn flips, and the generator's final state, are exactly
those of ``rng.random(total_bits)``.  Everything here is layout-agnostic:
callers hand in flat bit indices and get back flat flip positions.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Tuple

import numpy as np

#: bits processed per chunk while scanning for weak cells or drawing
#: uniforms densely.  A multiple of every supported word width
#: (4/8/16/32/64) so chunk edges never split a word, and small enough that
#: each uint64 temporary (512 KB) stays cache-resident.  Kept module-level so
#: tests can shrink it to exercise chunk seams.
CHUNK_BITS = 1 << 16

#: the closed-form PCG64 draws are used while candidates are at most one in
#: this many bits; denser candidate sets are cheaper to draw densely (the
#: closed form costs ~0.12 us per candidate, a dense draw ~3-5 ns per bit).
SPARSE_DENSITY_CUTOFF = 32

#: candidates evaluated per closed-form batch; bounds the limb temporaries.
JUMP_BATCH = 1 << 14

_MANTISSA_SCALE = float(1 << 53)

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: a step count is split into base-``2**_JUMP_DIGIT_BITS`` digits, each
#: looked up in the jump table of its level (four 8 KB limb arrays).
_JUMP_DIGIT_BITS = 10


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 mix function: uint64 -> well-mixed uint64."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_keys(indices: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """53-bit integer hash keys underlying :func:`_hash_uniform`.

    ``_hash_uniform`` maps these keys to floats via ``k / 2**53 + 1e-16``;
    comparing keys against :func:`uniform_threshold` reproduces the float
    comparison exactly without ever leaving the integer domain.  The mixing
    is value-identical to :func:`_splitmix64` but runs in-place on two
    buffers — this scan dominates the packed hot path.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    z = indices ^ np.uint64(seed * 0x9E3779B1 + stream * 0x85EBCA77)
    z += np.uint64(0x9E3779B97F4A7C15)
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    return z


def _hash_uniform(indices: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """Deterministic per-index uniforms in (0, 1), independent across streams."""
    # 53-bit mantissa keeps the uniform well away from exactly 0 or 1.
    return hash_keys(indices, seed, stream).astype(np.float64) / _MANTISSA_SCALE + 1e-16


def uniform_threshold(fraction: float) -> int:
    """Smallest key ``k`` whose hashed uniform is >= ``fraction``.

    A hashed cell is "weak" iff ``_hash_uniform < fraction``, i.e. iff its
    :func:`hash_keys` value is strictly below this threshold.  The search
    evaluates the same float expression ``_hash_uniform`` uses, so the
    integer compare is exact — including the additive 1e-16 and any rounding
    at the top of the range.
    """
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) / _MANTISSA_SCALE + 1e-16 >= fraction:
            hi = mid
        else:
            lo = mid + 1
    return lo


def iter_bit_chunks(num_bits: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` chunk bounds covering ``[0, num_bits)``."""
    for start in range(0, num_bits, CHUNK_BITS):
        yield start, min(start + CHUNK_BITS, num_bits)


def scan_weak_positions(num_bits: int, start_bit: int,
                        weak_in_chunk: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Flat positions in ``[0, num_bits)`` whose cells are weak.

    ``weak_in_chunk`` maps a chunk of *absolute* bit indices (tensor-relative
    index plus ``start_bit``, the hash domain every error model keys on) to a
    boolean weakness mask.  The chunked scan bounds peak memory regardless of
    tensor size.
    """
    chunks = []
    for start, stop in iter_bit_chunks(num_bits):
        absolute = np.arange(start, stop, dtype=np.uint64) + np.uint64(start_bit)
        weak = np.nonzero(weak_in_chunk(absolute))[0]
        if weak.size:
            chunks.append(weak.astype(np.int64) + start)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def make_bit_gather(words: np.ndarray, bits_per_word: int) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``bit_at(positions) -> bool array`` over packed ``words``.

    Flat bit position ``i`` maps to bit ``i % bits_per_word`` (LSB-first) of
    ``words[i // bits_per_word]`` — the same convention the boolean expansion
    used.
    """
    words = np.asarray(words, dtype=np.uint64)

    def bit_at(positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        shifts = (positions % bits_per_word).astype(np.uint64)
        return ((words[positions // bits_per_word] >> shifts) & np.uint64(1)).astype(bool)

    return bit_at


def xor_mask_from_positions(flip_positions: np.ndarray, num_words: int,
                            bits_per_word: int) -> np.ndarray:
    """Fold flat flip positions into a per-word uint64 XOR mask."""
    xor = np.zeros(num_words, dtype=np.uint64)
    flip_positions = np.asarray(flip_positions, dtype=np.int64)
    if flip_positions.size:
        shifts = (flip_positions % bits_per_word).astype(np.uint64)
        np.bitwise_xor.at(xor, flip_positions // bits_per_word, np.uint64(1) << shifts)
    return xor


def _advance(bit_generator: np.random.BitGenerator, num_draws: int) -> None:
    """``bit_generator.advance(num_draws)``, keeping a buffered 32-bit draw.

    ``advance`` drops the half of a 64-bit output that a 32-bit integer draw
    left buffered, while ``random()`` never touches it; restoring the
    buffer keeps the final state identical to ``rng.random(num_draws)``.
    """
    state = bit_generator.state
    bit_generator.advance(num_draws)
    if state["has_uint32"]:
        advanced = bit_generator.state
        advanced["has_uint32"] = state["has_uint32"]
        advanced["uinteger"] = state["uinteger"]
        bit_generator.state = advanced


def skip_stream(rng: np.random.Generator, num_draws: int) -> None:
    """Consume ``num_draws`` uniform draws without keeping them.

    Uses ``BitGenerator.advance`` for ``PCG64``/``PCG64DXSM`` (one state step
    per double) and draws-and-discards in chunks for every other generator
    (``Philox.advance`` counts counter blocks, not doubles) — either way the
    stream ends where ``rng.random(num_draws)`` would have left it.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        _advance(bit_generator, num_draws)
        return
    for _ in _dense_draws(rng, num_draws):
        pass


def _dense_draws(rng: np.random.Generator, num_draws: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, uniforms)`` chunks of ``rng.random(num_draws)``.

    One chunk-sized buffer is refilled in place, so no chunk allocates; each
    yielded view is valid only until the next one.
    """
    buffer = np.empty(min(CHUNK_BITS, num_draws), dtype=np.float64)
    for start, stop in iter_bit_chunks(num_draws):
        yield start, rng.random(out=buffer[:stop - start])


def _mul64(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products of uint64 operands, as (hi, lo) limbs."""
    low32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    a0, a1 = a & low32, a >> shift
    b0, b1 = b & low32, b >> shift
    cross_ab, cross_ba = a0 * b1, a1 * b0
    middle = ((a0 * b0) >> shift) + (cross_ab & low32) + (cross_ba & low32)
    hi = a1 * b1 + (cross_ab >> shift) + (cross_ba >> shift) + (middle >> shift)
    return hi, a * b


def _mul128(a_hi, a_lo, b_hi, b_lo) -> Tuple[np.ndarray, np.ndarray]:
    """Products mod ``2**128`` of (hi, lo) uint64 limb pairs."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> Tuple[np.ndarray, np.ndarray]:
    """Sums mod ``2**128`` of (hi, lo) uint64 limb pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _limbs(value: int) -> Tuple[np.uint64, np.uint64]:
    """Split a 128-bit int into (hi, lo) uint64 limbs."""
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


@functools.lru_cache(maxsize=None)
def _jump_table(level: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Limbs ``(A_hi, A_lo, C_hi, C_lo)`` of PCG64's ``d * 2**(10 level)``-step jumps.

    Entry ``d < 2**10`` maps a state ``s`` to ``A_d * s + C_d * inc`` with
    ``A_d = M**m`` and ``C_d = sum(M**i for i < m)``, ``m = d * 2**(10
    level)``.  The table is filled by doubling — entries ``[m, 2m)`` are
    entries ``[0, m)`` followed by the jump of ``m`` units — so it never
    holds more than its four limb arrays.
    """
    # (a, c): the jump of one table unit, 2**(10 level) single steps.
    a, c = _PCG64_MULTIPLIER, 1
    for _ in range(_JUMP_DIGIT_BITS * level):
        a, c = a * a & _MASK128, (a * c + c) & _MASK128
    size = 1 << _JUMP_DIGIT_BITS
    a_hi, a_lo = np.zeros(size, np.uint64), np.zeros(size, np.uint64)
    c_hi, c_lo = np.zeros(size, np.uint64), np.zeros(size, np.uint64)
    a_lo[0] = 1
    m = 1
    while m < size:
        step_a, step_c = _limbs(a), _limbs(c)
        a_hi[m:2 * m], a_lo[m:2 * m] = _mul128(a_hi[:m], a_lo[:m], *step_a)
        c_hi[m:2 * m], c_lo[m:2 * m] = _add128(
            *_mul128(c_hi[:m], c_lo[:m], *step_a), *step_c)
        a, c = a * a & _MASK128, (a * c + c) & _MASK128
        m *= 2
    return a_hi, a_lo, c_hi, c_lo


def pcg64_uniforms_at(state: int, inc: int, positions: np.ndarray) -> np.ndarray:
    """The doubles a ``PCG64`` stream at ``(state, inc)`` draws at ``positions``.

    Entry ``k`` equals ``rng.random(n)[positions[k]]`` for any ``n`` past the
    position, where ``rng`` wraps a ``PCG64`` whose ``state["state"]`` is
    ``(state, inc)``.  Draw ``p`` outputs the state after ``p + 1`` steps;
    each base-``2**10`` digit of that step count applies one tabled jump,
    then PCG64's XSL-RR output and numpy's ``(out >> 11) * 2**-53``
    double conversion finish the draw.  Nothing is drawn from a generator.
    """
    steps = np.asarray(positions, dtype=np.uint64) + np.uint64(1)
    if steps.size == 0:
        return np.empty(0, dtype=np.float64)
    hi = np.full(steps.size, np.uint64(state >> 64))
    lo = np.full(steps.size, np.uint64(state & _MASK64))
    inc_limbs = _limbs(inc)
    digit_mask = np.uint64((1 << _JUMP_DIGIT_BITS) - 1)
    levels = -(-int(steps.max()).bit_length() // _JUMP_DIGIT_BITS)
    for level in range(levels):
        digit = (steps >> np.uint64(_JUMP_DIGIT_BITS * level)) & digit_mask
        a_hi, a_lo, c_hi, c_lo = _jump_table(level)
        hi, lo = _add128(*_mul128(a_hi[digit], a_lo[digit], hi, lo),
                         *_mul128(c_hi[digit], c_lo[digit], *inc_limbs))
    mixed = hi ^ lo
    rotation = hi >> np.uint64(58)
    out = (mixed >> rotation) | (mixed << ((np.uint64(64) - rotation) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) / _MANTISSA_SCALE


def sample_flip_positions(rng: np.random.Generator, total_bits: int,
                          positions: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Which candidate bits flip on this access — stream-exact vs. the dense path.

    ``positions`` are the sorted flat indices with a non-zero flip
    probability and ``probabilities`` their per-access failure probabilities.
    The legacy path computed ``rng.random(total_bits) < probabilities``;
    this draws the identical uniforms at the candidate positions only
    (closed-form for a ``PCG64`` generator with sparse candidates, densely
    in chunks otherwise) and leaves the generator in exactly the state a
    full ``rng.random(total_bits)`` would have.
    """
    positions = np.asarray(positions, dtype=np.int64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    keep = probabilities > 0.0
    if not keep.all():
        positions, probabilities = positions[keep], probabilities[keep]
    if positions.size == 0:
        skip_stream(rng, total_bits)
        return positions

    bit_generator = rng.bit_generator
    if (isinstance(bit_generator, np.random.PCG64)
            and positions.size * SPARSE_DENSITY_CUTOFF <= total_bits):
        pcg_state = bit_generator.state["state"]
        flips = np.empty(positions.size, dtype=bool)
        for lo in range(0, positions.size, JUMP_BATCH):
            batch = slice(lo, lo + JUMP_BATCH)
            uniforms = pcg64_uniforms_at(pcg_state["state"], pcg_state["inc"],
                                         positions[batch])
            flips[batch] = uniforms < probabilities[batch]
        _advance(bit_generator, total_bits)
        return positions[flips]

    flips = []
    lo = 0
    for start, uniforms in _dense_draws(rng, total_bits):
        hi = int(np.searchsorted(positions, start + uniforms.size))
        if hi > lo:
            chunk_positions = positions[lo:hi]
            chosen = uniforms[chunk_positions - start] < probabilities[lo:hi]
            if chosen.any():
                flips.append(chunk_positions[chosen])
            lo = hi
    if not flips:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(flips)
