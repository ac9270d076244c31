"""Byte-oriented range coder with carry counting, at one fixed total of 2^16.

The coding state is a 32-bit `low`/`range` pair. A symbol is an interval
[lo, hi) of TOTAL, a raw bit b the half [b*2^15, (b+1)*2^15). Encoding narrows
the interval to [low + (range >> 16)*lo, ...) of width (range >> 16)*(hi - lo),
then renormalizes by emitting the top byte whenever range drops below 2^24.
Carries are handled LZMA-style: one byte is cached and a run of 0xFF bytes is
counted so a late carry can ripple through them; the very first emitted byte
is always zero and the flush appends five more renormalizations, so framing
overhead is six bytes. The decoder mirrors the arithmetic exactly: it discards
the leading zero byte, primes a 32-bit code word, and reads zero bytes past
the end of the stream during its final renormalizations. The encoder rejects
an interval outside 0 <= lo < hi <= TOTAL, the decoder (off its common path)
one that leaves no range. This layout (32-bit state, 2^16 total, 2^24
renormalization threshold, leading zero, five-byte flush) is the
cross-implementation contract for every bitstream this package writes.
"""

from __future__ import annotations

from .errors import InvalidInputError

_TOTAL_BITS = 16
TOTAL = 1 << _TOTAL_BITS
_HALF = TOTAL >> 1
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()
        self._finished = False

    def _shift_low(self):
        if (self.low & _MASK32) < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            filler = 0x00 if carry else 0xFF
            for _ in range(self.cache_size - 1):
                self.out.append(filler)
            self.cache = (self.low >> 24) & 0xFF
            self.cache_size = 0
        self.cache_size += 1
        self.low = (self.low << 8) & _MASK32

    def encode(self, lo: int, hi: int):
        if self._finished:
            raise InvalidInputError("encoder already finished")
        if not 0 <= lo < hi <= TOTAL:
            raise InvalidInputError("invalid frequency interval")
        r = self.range >> _TOTAL_BITS
        low = self.low + r * lo
        rng = r * (hi - lo)
        # _shift_low per renormalization, inlined on locals. low < 2^33 here,
        # so (low & _MASK32) < 0xFF000000 reads low < 0xFF000000.
        while rng < _TOP:
            rng <<= 8
            if low < 0xFF000000 or low > _MASK32:
                carry = low >> 32
                self.out.append((self.cache + carry) & 0xFF)
                if self.cache_size > 1:
                    self.out += (b"\x00" if carry else b"\xff") * (self.cache_size - 1)
                self.cache = (low >> 24) & 0xFF
                self.cache_size = 1
            else:
                self.cache_size += 1
            low = (low << 8) & _MASK32
        self.low = low
        self.range = rng

    def encode_raw(self, value: int, num_bits: int):
        """num_bits of value, most significant first, one coin flip each."""
        for i in reversed(range(num_bits)):
            bit = (value >> i) & 1
            self.encode(bit * _HALF, (bit + 1) * _HALF)

    def finish(self) -> bytes:
        if not self._finished:
            for _ in range(5):
                self._shift_low()
            self._finished = True
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.range = _MASK32
        # Past the encoder's leading zero byte, a 32-bit code word. Here and
        # in decode_update, bytes past the end of the stream read as zero.
        code = 0
        for pos in range(1, 5):
            code = (code << 8) | (data[pos] if pos < len(data) else 0)
        self.code = code
        self.pos = 5

    def decode_freq(self) -> int:
        r = self._r = self.range >> _TOTAL_BITS
        v = self.code // r
        return v if v < TOTAL else TOTAL - 1

    def decode_update(self, lo: int, hi: int):
        r = self._r
        code = self.code - r * lo
        rng = r * (hi - lo)
        if rng < _TOP:
            if rng <= 0:
                raise InvalidInputError("invalid frequency interval")
            data = self.data
            pos = self.pos
            while rng < _TOP:
                code = ((code << 8) | (data[pos] if pos < len(data) else 0)) & _MASK32
                rng <<= 8
                pos += 1
            self.pos = pos
        self.code = code
        self.range = rng

    def decode_raw(self, num_bits: int) -> int:
        value = 0
        for _ in range(num_bits):
            bit = 1 if self.decode_freq() >= _HALF else 0
            self.decode_update(bit * _HALF, (bit + 1) * _HALF)
            value = (value << 1) | bit
        return value
