"""Binary extension fields GF(2^m) on plain Python integers.

Elements are ints in ``[0, 2^m)`` interpreted as polynomials over GF(2);
multiplication is carry-less (4-bit windowed) followed by reduction modulo
a fixed low-weight irreducible polynomial.  Sizes 8/16/32/64 cover the
paper's experiments (8-byte items ⇒ GF(2^64), the largest Minisketch
supports, per §7.2).
"""

from __future__ import annotations

# Low-weight irreducible polynomials (HAC Table 4.8 / Seroussi), including
# the leading x^m term.  Verified irreducible by tests/test_gf2.py.
IRREDUCIBLE_POLYS: dict[int, int] = {
    8: (1 << 8) | 0x1B,  # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | 0x2B,  # x^16 + x^5 + x^3 + x + 1
    32: (1 << 32) | 0x8D,  # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | 0x1B,  # x^64 + x^4 + x^3 + x + 1
}


# Bit-interleave table for fast polynomial squaring: _SPREAD8[b] has the
# bits of byte b spread to even positions.
_SPREAD8 = [0] * 256
for _b in range(256):
    _s = 0
    for _i in range(8):
        if (_b >> _i) & 1:
            _s |= 1 << (2 * _i)
    _SPREAD8[_b] = _s
del _b, _s, _i


def clmul(a: int, b: int) -> int:
    """Carry-less product of two non-negative integers (GF(2)[x] multiply)."""
    # 4-bit window: precompute the 16 sub-products of b.
    table = [0] * 16
    table[1] = b
    for i in range(2, 16, 2):
        table[i] = table[i >> 1] << 1
        table[i + 1] = table[i] ^ b
    result = 0
    shift = 0
    while a:
        result ^= table[a & 0xF] << shift
        a >>= 4
        shift += 4
    return result


def poly2_mod(value: int, modulus: int) -> int:
    """Reduce a GF(2)[x] polynomial (as int) modulo ``modulus``."""
    mod_deg = modulus.bit_length() - 1
    deg = value.bit_length() - 1
    while deg >= mod_deg:
        value ^= modulus << (deg - mod_deg)
        deg = value.bit_length() - 1
    return value


def poly2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2)[x] division."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    deg_b = b.bit_length() - 1
    quotient = 0
    while a.bit_length() - 1 >= deg_b and a:
        shift = (a.bit_length() - 1) - deg_b
        quotient |= 1 << shift
        a ^= b << shift
    return quotient, a


def poly2_gcd(a: int, b: int) -> int:
    """GCD of two GF(2)[x] polynomials (as ints)."""
    while b:
        a, b = b, poly2_divmod(a, b)[1]
    return a


class GF2m:
    """The field GF(2^m) with its arithmetic operations.

    >>> field = GF2m(16)
    >>> a = 0x1234
    >>> field.mul(a, field.inv(a))
    1
    """

    def __init__(self, m: int, modulus: int | None = None) -> None:
        if modulus is None:
            if m not in IRREDUCIBLE_POLYS:
                raise ValueError(
                    f"no built-in modulus for GF(2^{m}); supply one explicitly"
                )
            modulus = IRREDUCIBLE_POLYS[m]
        if modulus.bit_length() - 1 != m:
            raise ValueError("modulus degree does not match m")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self.mask = self.order - 1
        # Bit positions of the modulus tail (modulus minus x^m): since
        # x^m ≡ tail (mod f), a product's high half folds into the low half
        # with a handful of shifted XORs instead of bit-by-bit division.
        tail = modulus ^ (1 << m)
        self._tail_shifts = tuple(
            i for i in range(tail.bit_length()) if (tail >> i) & 1
        )

    def _reduce(self, value: int) -> int:
        """Reduce a (≤ 2m-bit) carry-less product modulo the field polynomial
        by folding the high half through x^m ≡ tail."""
        mask = self.mask
        shifts = self._tail_shifts
        hi = value >> self.m
        lo = value & mask
        while hi:
            folded = 0
            for s in shifts:
                folded ^= hi << s
            hi = folded >> self.m
            lo ^= folded & mask
        return lo

    # -- basic ops -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Addition = subtraction = XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return self._reduce(clmul(a, b))

    def mul_table(self, b: int) -> list[int]:
        """Precompute the 4-bit-window table for repeated products by ``b``.

        Polynomial inner loops multiply long coefficient vectors by one
        fixed factor; building the window table once per factor instead of
        once per product is a ~5x win at interpreter speed.
        """
        table = [0] * 16
        table[1] = b
        for i in range(2, 16, 2):
            table[i] = table[i >> 1] << 1
            table[i + 1] = table[i] ^ b
        return table

    def mul_with(self, a: int, table: list[int]) -> int:
        """Multiply ``a`` by the factor whose table was precomputed."""
        result = 0
        shift = 0
        while a:
            result ^= table[a & 0xF] << shift
            a >>= 4
            shift += 4
        return self._reduce(result)

    def sqr(self, a: int) -> int:
        """Field squaring (Frobenius); spread bits then reduce."""
        return self._reduce(self._spread(a))

    @staticmethod
    def _spread(a: int) -> int:
        """Interleave zero bits: squaring of a GF(2)[x] polynomial."""
        result = 0
        shift = 0
        while a:
            result |= _SPREAD8[a & 0xFF] << shift
            a >>= 8
            shift += 16
        return result

    def pow(self, a: int, e: int) -> int:
        """Exponentiation by squaring; ``0^0 = 1`` by convention."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.sqr(base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        # Invariants: t0*a ≡ r0, t1*a ≡ r1 (mod modulus).
        r0, r1 = self.modulus, a
        t0, t1 = 0, 1
        while r1 != 1:
            q, r = poly2_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 ^ poly2_mod(clmul(q, t1), self.modulus)
            if r1 == 0:
                raise ZeroDivisionError("element not invertible (bad modulus?)")
        return t1

    def div(self, a: int, b: int) -> int:
        """Field division a/b."""
        return self.mul(a, self.inv(b))

    # -- derived maps ----------------------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = Σ a^(2^i) ∈ {0, 1}."""
        acc = a
        power = a
        for _ in range(self.m - 1):
            power = self.sqr(power)
            acc ^= power
        return acc

    def sqrt(self, a: int) -> int:
        """Square root: the inverse Frobenius, a^(2^(m−1))."""
        result = a
        for _ in range(self.m - 1):
            result = self.sqr(result)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2m):
            return NotImplemented
        return self.m == other.m and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={self.modulus:#x})"
