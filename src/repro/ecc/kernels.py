"""Table-driven codec kernels for the simulation hot loop.

Every simulated access used to walk per-bit Python loops: Hamming
assembly/extraction iterated all ~576 codeword positions, pin-symbol
extraction looped 64 pins x 8 beats, Reed-Solomon ran symbol-at-a-time
multiplications, and the line MAC made eight sequential SPECK calls with a
Python function call per cipher round. Paper-scale campaigns (the fig6 /
fig10 Monte-Carlo populations, the Section VII security sweeps, Row-Hammer
``read_all`` consumption scans) are therefore codec-bound.

This module holds the precomputed table/mask kernels that replace those
loops:

- :class:`HammingKernel` — run-based scatter/gather between the data word
  and the positional Hamming codeword (the data positions between
  consecutive check positions are contiguous, so the permutation is O(r)
  shift/mask operations instead of O(n) bit tests), plus per-check-bit
  coverage masks folded with ``(codeword & mask).bit_count() & 1``.
- :class:`RSKernel` — log-domain lookup tables for Reed-Solomon: per
  generator-coefficient multiplication tables for the encode LFSR and
  per-(syndrome, position) product tables so syndrome evaluation is pure
  table indexing.
- :func:`extract_pin_symbols_fast` / :func:`pin_symbols_to_int_fast` — the
  64x8 beat transpose as a numpy ``unpackbits``/``packbits`` round trip.
- :func:`speck_encrypt_lanes8` / :class:`SpeckBatchKernel` — the whole-line
  MAC computes all eight tweaked SPECK blocks inside one round loop (no
  per-word or per-round Python call), and batches arbitrarily many lines
  through vectorized numpy ``uint32`` rounds.

Every kernel is bit-exact with the reference implementation it replaces;
the references remain in their home modules as the oracle and are selected
with ``REPRO_KERNELS=reference``, the ``kernels`` row of
:mod:`repro.switches` (see ``docs/performance.md``). The
equivalence suite (``tests/test_kernel_equivalence.py``) and the
golden-parity corpus pin the equivalence.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.switches import KERNELS


def use_fast() -> bool:
    """True when the table-driven kernels are active (``REPRO_KERNELS``).

    Codecs bind their kernel at construction, so an existing instance
    keeps the mode it was built under (that property is what lets the
    equivalence tests hold a fast and a reference codec side by side).
    """
    return KERNELS.value == "fast"


# -- Hamming kernels -------------------------------------------------------------


class HammingKernel:
    """Precomputed scatter/gather + syndrome masks for one Hamming layout.

    The classic positional layout (positions 1..n, check bits at powers of
    two) leaves the data positions in contiguous runs between consecutive
    check positions, so data<->codeword permutation is a handful of
    shift/mask operations. The syndrome is the XOR of the (1-based)
    positions of all set codeword bits, i.e. bit ``i`` of the syndrome is
    the parity of the codeword masked by "every position with bit ``i``
    set" — one big-int AND plus ``bit_count`` per check bit.
    """

    def __init__(
        self,
        k: int,
        n: int,
        data_positions: Tuple[int, ...],
        check_positions: Tuple[int, ...],
    ):
        self.k = k
        self.n = n
        self.r = len(check_positions)
        #: (data_shift, codeword_shift, run_mask) per contiguous run.
        self._runs: List[Tuple[int, int, int]] = []
        run_start_pos = run_start_index = None
        previous = None
        for data_index, pos in enumerate(data_positions):
            if run_start_pos is None:
                run_start_pos, run_start_index = pos, data_index
            elif pos != previous + 1:
                width = previous - run_start_pos + 1
                self._runs.append(
                    (run_start_index, run_start_pos - 1, (1 << width) - 1)
                )
                run_start_pos, run_start_index = pos, data_index
            previous = pos
        if run_start_pos is not None:
            width = previous - run_start_pos + 1
            self._runs.append((run_start_index, run_start_pos - 1, (1 << width) - 1))
        #: Single-bit codeword masks of the check positions, LSB-first.
        self._check_bits: Tuple[int, ...] = tuple(
            1 << (pos - 1) for pos in check_positions
        )
        #: Coverage masks over codeword bits: mask ``i`` selects every
        #: position whose (1-based) index has bit ``i`` set — check
        #: positions included, exactly the XOR-of-positions syndrome.
        self._coverage: Tuple[int, ...] = tuple(
            sum(1 << (pos - 1) for pos in range(1, n + 1) if (pos >> i) & 1)
            for i in range(self.r)
        )
        #: For word-sized codes, encoding is GF(2)-linear in the data, so
        #: the full codeword (data scattered + check bits) is the XOR of
        #: one 256-entry table lookup per data byte.
        self._enc_bytes: Optional[List[List[int]]] = None
        if k <= 64:
            tables = []
            for byte_index in range((k + 7) // 8):
                table = []
                for value in range(256):
                    codeword = self.scatter_data(value << (8 * byte_index))
                    for cov, bit in zip(self._coverage, self._check_bits):
                        if (codeword & cov).bit_count() & 1:
                            codeword |= bit
                    table.append(codeword)
                tables.append(table)
            self._enc_bytes = tables

    # -- permutations -----------------------------------------------------------

    def scatter_data(self, data: int) -> int:
        """Place ``k`` data bits at their codeword positions (checks zero)."""
        codeword = 0
        for data_shift, cw_shift, mask in self._runs:
            codeword |= ((data >> data_shift) & mask) << cw_shift
        return codeword

    def gather_data(self, codeword: int) -> int:
        """Inverse of :meth:`scatter_data` (check bits ignored)."""
        data = 0
        for data_shift, cw_shift, mask in self._runs:
            data |= ((codeword >> cw_shift) & mask) << data_shift
        return data

    def scatter_checks(self, checks: int) -> int:
        """Place ``r`` packed check bits at their codeword positions."""
        codeword = 0
        for i, bit in enumerate(self._check_bits):
            if (checks >> i) & 1:
                codeword |= bit
        return codeword

    def gather_checks(self, codeword: int) -> int:
        """Pack the check positions of a codeword into ``r`` low bits."""
        checks = 0
        for i, bit in enumerate(self._check_bits):
            if codeword & bit:
                checks |= 1 << i
        return checks

    # -- encode/syndrome --------------------------------------------------------

    def encode(self, data: int) -> int:
        """Full codeword: scattered data plus computed check bits.

        With the data scattered and check positions still zero, check bit
        ``i`` is the parity of coverage mask ``i`` over the data bits —
        adding it afterwards makes the full-codeword syndrome zero.
        """
        if self._enc_bytes is not None:
            codeword = 0
            for table in self._enc_bytes:
                codeword ^= table[data & 0xFF]
                data >>= 8
            return codeword
        codeword = self.scatter_data(data)
        for cov, bit in zip(self._coverage, self._check_bits):
            if (codeword & cov).bit_count() & 1:
                codeword |= bit
        return codeword

    def syndrome(self, codeword: int) -> int:
        """XOR of the 1-based positions of all set codeword bits."""
        syndrome = 0
        for i, cov in enumerate(self._coverage):
            if (codeword & cov).bit_count() & 1:
                syndrome |= 1 << i
        return syndrome


@lru_cache(maxsize=None)
def hamming_kernel(
    k: int,
    n: int,
    data_positions: Tuple[int, ...],
    check_positions: Tuple[int, ...],
) -> HammingKernel:
    """Shared (immutable) kernel for one Hamming layout."""
    return HammingKernel(k, n, data_positions, check_positions)


# -- Reed-Solomon kernels --------------------------------------------------------


class RSKernel:
    """Packed-lane lookup tables for one systematic RS(n, k) instance.

    Both the check symbols and the syndromes are GF(2)-linear in the
    received symbols, and all symbols fit in 8 bits (m <= 8), so the
    ``n - k`` output symbols are packed into 8-bit lanes of one Python
    integer: entry ``[i][s]`` holds the packed contribution of symbol
    value ``s`` at codeword position ``i``, and a whole encode/syndrome
    evaluation is one table lookup + XOR per nonzero symbol.
    """

    def __init__(self, field, n: int, k: int, fcr: int, generator: Sequence[int]):
        if field.m > 8:
            raise ValueError("RSKernel packs symbols into 8-bit lanes (m <= 8)")
        self.n = n
        self.k = k
        self.n_checks = n - k
        size = field.size

        # Unit check vectors: checks(e_i) via the reference LFSR, once per
        # data position; lookup rows follow by scaling.
        def lfsr_checks(data: Sequence[int]) -> List[int]:
            remainder = [0] * self.n_checks
            for symbol in data:
                feedback = symbol ^ remainder[-1]
                remainder = [0] + remainder[:-1]
                if feedback:
                    for d in range(self.n_checks):
                        if generator[d]:
                            remainder[d] ^= field.mul(feedback, generator[d])
            return list(reversed(remainder))

        def pack(symbols: Sequence[int]) -> int:
            packed = 0
            for j, symbol in enumerate(symbols):
                packed |= symbol << (8 * j)
            return packed

        self._enc: List[List[int]] = []
        for i in range(k):
            unit = [0] * k
            unit[i] = 1
            u = lfsr_checks(unit)
            row = [pack([field.mul(s, c) for c in u]) for s in range(size)]
            self._enc.append(row)

        self._synd: List[List[int]] = []
        for i in range(n):
            coeffs = [
                field.pow(field.alpha_pow(fcr + j), n - 1 - i)
                for j in range(self.n_checks)
            ]
            row = [pack([field.mul(s, c) for c in coeffs]) for s in range(size)]
            self._synd.append(row)

    def encode_checks(self, data: Sequence[int]) -> List[int]:
        """The ``2t`` check symbols of a data word."""
        acc = 0
        enc = self._enc
        for i, symbol in enumerate(data):
            if symbol:
                acc ^= enc[i][symbol]
        return [(acc >> (8 * j)) & 0xFF for j in range(self.n_checks)]

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """All ``2t`` syndromes (zero symbols contribute nothing)."""
        acc = 0
        synd = self._synd
        for i, symbol in enumerate(received):
            if symbol:
                acc ^= synd[i][symbol]
        return [(acc >> (8 * j)) & 0xFF for j in range(self.n_checks)]


_RS_KERNELS: Dict[Tuple[int, int, int, int], RSKernel] = {}


def rs_kernel(field, n: int, k: int, fcr: int, generator: Sequence[int]) -> RSKernel:
    """Shared kernel per (field, n, k, fcr); tables are built once."""
    key = (id(field), n, k, fcr)
    kernel = _RS_KERNELS.get(key)
    if kernel is None:
        kernel = RSKernel(field, n, k, fcr, generator)
        _RS_KERNELS[key] = kernel
    return kernel


# -- beat-transpose (pin symbol) kernels -----------------------------------------


def supports_pin_transpose(n_pins: int, n_beats: int) -> bool:
    """The numpy transpose covers the byte-aligned burst-8 layouts."""
    return n_beats == 8 and n_pins % 8 == 0


def extract_pin_symbols_fast(line: int, n_pins: int, n_beats: int) -> List[int]:
    """Per-pin symbols of a line via a numpy bit-matrix transpose."""
    raw = np.frombuffer(
        line.to_bytes(n_pins * n_beats // 8, "little"), dtype=np.uint8
    )
    bits = np.unpackbits(raw, bitorder="little").reshape(n_beats, n_pins)
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return packed[:, 0].tolist()


def pin_symbols_to_int_fast(symbols: Sequence[int], n_beats: int) -> int:
    """Inverse transpose: per-pin symbols back to a line integer."""
    arr = np.array([s & 0xFF for s in symbols], dtype=np.uint8)
    bits = np.unpackbits(arr[:, None], axis=1, bitorder="little")[:, :n_beats]
    flat = np.packbits(bits.T.reshape(-1), bitorder="little")
    return int.from_bytes(flat.tobytes(), "little")


def chipkill_pair_symbols(line: int) -> List[List[int]]:
    """All four beat-pairs' 16 data-chip symbols of a 512-bit line.

    ``result[pair][chip]`` packs chip ``chip``'s nibble from beat
    ``2*pair`` (low) and beat ``2*pair + 1`` (high) — the 8-bit RS symbol
    of the Chipkill codec — extracted for the whole line in one numpy
    nibble transpose.
    """
    raw = np.frombuffer(line.to_bytes(64, "little"), dtype=np.uint8)
    nibbles = np.empty(128, dtype=np.uint8)
    nibbles[0::2] = raw & 0x0F
    nibbles[1::2] = raw >> 4
    beats = nibbles.reshape(8, 16)
    symbols = beats[0::2] | (beats[1::2] << 4)
    return symbols.tolist()


# -- SPECK-64/128 kernels --------------------------------------------------------

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1


def speck_encrypt_block(round_keys: Sequence[int], block: int) -> int:
    """One SPECK-64/128 block with the round loop inlined (no calls)."""
    y = block & _M32
    x = (block >> 32) & _M32
    for k in round_keys:
        x = (((((x >> 8) | (x << 24)) & _M32) + y) & _M32) ^ k
        y = (((y << 3) | (y >> 29)) & _M32) ^ x
    return (x << 32) | y


#: One 32-bit lane per 64-bit slot of a big integer: 8 lanes never touch.
_LANES8_MASK = sum(0xFFFFFFFF << (64 * i) for i in range(8))
_LANES8_REP = sum(1 << (64 * i) for i in range(8))


def pack_round_keys8(round_keys: Sequence[int]) -> List[int]:
    """Replicate each round key across the 8 lanes of the SIMD kernel."""
    return [k * _LANES8_REP for k in round_keys]


def speck_encrypt_lanes8(
    packed_keys: Sequence[int], blocks: Sequence[int]
) -> List[int]:
    """Eight SPECK-64/128 blocks through one big-integer SIMD round loop.

    The whole-line MAC kernel: the eight 32-bit x (resp. y) words live in
    the 64-bit slots of one Python integer, so each ARX round is ~8 big-int
    operations for all lanes together. The slot padding makes it sound:
    rotations only smear bits into the high half of a slot (masked off),
    and per-lane sums peak at 33 bits so adds never carry across slots.
    ``packed_keys`` comes from :func:`pack_round_keys8`.
    """
    x = y = 0
    for i, block in enumerate(blocks):
        y |= (block & _M32) << (64 * i)
        x |= ((block >> 32) & _M32) << (64 * i)
    lanes = _LANES8_MASK
    for k in packed_keys:
        x = (((((x >> 8) | (x << 24)) & lanes) + y) & lanes) ^ k
        y = (((y << 3) | (y >> 29)) & lanes) ^ x
    return [
        ((((x >> (64 * i)) & _M32) << 32) | ((y >> (64 * i)) & _M32))
        for i in range(8)
    ]


class SpeckBatchKernel:
    """Vectorized SPECK-64/128 over numpy ``uint32`` lanes.

    Unsigned numpy arithmetic wraps mod 2^32, which is exactly the ARX
    round — so a batch of N blocks runs all 27 rounds as a handful of
    whole-array operations each.
    """

    def __init__(self, round_keys: Sequence[int]):
        self._round_keys = [np.uint32(k) for k in round_keys]

    def encrypt(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt a ``uint64`` array of blocks, elementwise."""
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        y = (blocks & np.uint64(_M32)).astype(np.uint32)
        x = (blocks >> np.uint64(32)).astype(np.uint32)
        for k in self._round_keys:
            x = (((x >> np.uint32(8)) | (x << np.uint32(24))) + y) ^ k
            y = ((y << np.uint32(3)) | (y >> np.uint32(29))) ^ x
        return (x.astype(np.uint64) << np.uint64(32)) | y.astype(np.uint64)
