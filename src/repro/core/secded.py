"""SafeGuard on x8 SECDED ECC DIMMs (Section IV).

SafeGuard reorganizes the 64 ECC bits that conventional DIMMs spend on
eight independent (72,64) SECDED codewords into line-granularity
metadata:

- Figure 3b layout (``column_parity=False``): 10-bit ECC-1 over the
  512-bit data and its MAC, plus a 54-bit MAC.
- Figure 5 layout (``column_parity=True``, the default): 10-bit ECC-1,
  8-bit pin-column parity, 46-bit MAC — adding tolerance of single-column
  (pin) failures via iterative, MAC-verified reconstruction.

Read path with column parity (Section IV-C):

1. check the MAC of the raw data — the fault-free fast path (one MAC
   check, the design's only recurring latency);
2. on mismatch, attempt ECC-1 correction and re-check the MAC;
3. on mismatch, iterate the 64 pin-column candidates: reconstruct each
   from the column parity and accept the first reconstruction whose MAC
   verifies (remembering the pin to short-circuit future recoveries, and
   skipping the initial check entirely once the same pin has repaired
   several consecutive reads). All 64 are MACed in one batch; only the
   checks up to the first match are billed;
4. otherwise signal a Detected Unrecoverable Error (DUE).

Without column parity the path is the Figure 3b one: ECC-1 first, then an
unconditional MAC verification.

The controller is a composition on the :mod:`repro.core.pipeline` base:
the metadata and ECC-1 payload are declarative :class:`FieldLayout`\\ s,
the MAC is a :class:`MacStage`, and the Section IV-C column memory is a
:class:`ColumnHistory`.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.pipeline import (
    AccessContext,
    ColumnHistory,
    FieldLayout,
    MacStage,
    MemoryController,
)
from repro.core.types import ReadResult, ReadStatus
from repro.ecc.hamming import DecodeStatus
from repro.ecc.parity import N_DATA_PINS, column_parity, recover_pin, spread_beats
from repro.ecc.secded import LineECC1
from repro.utils.bits import LINE_BITS

_ECC1_BITS = 10
_COLUMN_PARITY_BITS = 8


class SafeGuardSECDED(MemoryController):
    """SafeGuard memory controller for x8 SECDED modules."""

    def _setup(self) -> None:
        self.mac_bits = self.config.secded_mac_bits()
        parity_bits = _COLUMN_PARITY_BITS if self.config.column_parity else 0
        #: ECC-chip metadata: ECC-1 check bits, column parity, MAC.
        self.meta_layout = FieldLayout(
            ("ecc1", _ECC1_BITS), ("parity", parity_bits), ("mac", self.mac_bits)
        )
        if self.meta_layout.total_bits > 64:
            raise ValueError(
                f"metadata ({self.meta_layout.total_bits} bits) exceeds the "
                "64-bit ECC budget"
            )
        #: The ECC-1 codeword payload: data plus the protected metadata.
        self.payload_layout = FieldLayout(
            ("data", LINE_BITS), ("parity", parity_bits), ("mac", self.mac_bits)
        )
        self._ecc1 = LineECC1(self.payload_layout.total_bits)
        self.mac = MacStage(self.config.key, self.mac_bits, self.events)
        self.columns = ColumnHistory(N_DATA_PINS, self.config.column_eager_after)

    # -- write path -------------------------------------------------------------

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        mac = self.mac.compute(data, address)
        parity = column_parity(line) if self.config.column_parity else 0
        ecc1 = self._ecc1.encode(
            self.payload_layout.pack(data=line, parity=parity, mac=mac)
        )
        return line, self.meta_layout.pack(ecc1=ecc1, parity=parity, mac=mac)

    # -- read path --------------------------------------------------------------

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        fields = self.meta_layout.unpack(meta)
        if self.config.column_parity:
            return self._read_with_column_parity(ctx, address, raw, fields)
        return self._read_figure3b(ctx, address, raw, fields)

    def _clean_read(self, ctx, address, stored):
        # Eager column recovery reconstructs even fault-free lines, with
        # different accounting — let the full path handle it.
        if self.config.column_parity and self.columns.eager_ready:
            return None
        # A pristine line decodes clean and the MAC matches by
        # construction; bill the one MAC check the fast path performs.
        self.mac.assume_match(ctx)
        if self.config.column_parity:
            self.columns.note_clean()
        return self._result(ctx, stored.data, ReadStatus.CLEAN)

    # Figure 3b: ECC-1 first, then unconditional MAC verification.
    def _read_figure3b(
        self, ctx: AccessContext, address: int, raw: int, fields: dict
    ) -> ReadResult:
        decode = self._ecc1.correct(
            self.payload_layout.pack(data=raw, mac=fields["mac"]), fields["ecc1"]
        )
        payload = self.payload_layout.unpack(decode.data)
        if self.mac.matches(ctx, payload["data"], address, payload["mac"]):
            if decode.status is DecodeStatus.CORRECTED:
                return self._result(
                    ctx, payload["data"], ReadStatus.CORRECTED_BIT, decode.corrected_bit
                )
            return self._result(ctx, payload["data"], ReadStatus.CLEAN)
        return self._due(ctx, raw)

    # Figure 5: MAC -> ECC-1 -> iterative column recovery.
    def _read_with_column_parity(
        self, ctx: AccessContext, address: int, raw: int, fields: dict
    ) -> ReadResult:
        parity, mac = fields["parity"], fields["mac"]

        # Eager column recovery: a permanent pin failure makes the first
        # MAC check useless; reconstruct first and check once.
        if self.columns.eager_ready:
            pin = self.columns.last
            self._iterate(ctx, pin)
            repaired = recover_pin(raw, pin, parity)
            if self.mac.matches(ctx, repaired, address, mac):
                if repaired == raw:
                    # The pin healed (transient fault): stop paying the
                    # eager reconstruction on every read.
                    self.columns.note_clean()
                    return self._result(ctx, raw, ReadStatus.CLEAN)
                self.columns.note_hit(pin)
                return self._result(ctx, repaired, ReadStatus.CORRECTED_COLUMN, pin)
            # The remembered pin no longer explains the fault; fall through
            # to the full path.
            self.columns.note_clean()

        # Step 1: fast-path MAC check on the raw data.
        if self.mac.matches(ctx, raw, address, mac):
            self.columns.note_clean()
            return self._result(ctx, raw, ReadStatus.CLEAN)

        # Step 2: ECC-1 single-bit correction, then re-check.
        decode = self._ecc1.correct(
            self.payload_layout.pack(data=raw, parity=parity, mac=mac), fields["ecc1"]
        )
        payload = self.payload_layout.unpack(decode.data)
        if self.mac.matches(ctx, payload["data"], address, payload["mac"]):
            self.columns.note_clean()
            return self._result(
                ctx, payload["data"], ReadStatus.CORRECTED_BIT, decode.corrected_bit
            )

        # Step 3: iterative column recovery, trying the last known failing
        # pin first (Section IV-C). Every pin's reconstruction differs from
        # ``raw`` by the same syndrome spread over that pin's beats, so
        # all candidates come from one syndrome and are MACed in one batch.
        pins = self.columns.candidates()
        delta = spread_beats(parity ^ column_parity(raw), 1)
        repaired = [raw ^ (delta << pin) for pin in pins]
        found = self._first_verified(
            ctx, address, pins, repaired, [mac] * len(pins)
        )
        if found is None:
            return self._due(ctx, raw)
        pin = pins[found]
        self.columns.note_hit(pin)
        return self._result(ctx, repaired[found], ReadStatus.CORRECTED_COLUMN, pin)

    # -- introspection shims (pre-pipeline attribute names) ----------------------

    @property
    def _last_column(self):
        return self.columns.last

    @property
    def _consecutive_column_hits(self) -> int:
        return self.columns.streak

    # -- fault-injection conveniences (used by tests and experiments) -------------

    def inject_pin_failure(self, address: int, pin: int, symbol_error: int) -> None:
        """Corrupt one data pin's 8-bit symbol (column-fault pattern, Fig. 4)."""
        if not 0 <= pin < N_DATA_PINS:
            raise ValueError("pin must be in [0, 64)")
        self.backend.inject_data_bits(address, spread_beats(symbol_error, 1) << pin)
