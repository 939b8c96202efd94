package predictserver

// The float codec under wire.go: JSON number text to float64 and back, for
// the same bytes and the same bits strconv and encoding/json give.
//
//   - parseNumber is one pass over the literal that enforces the JSON number
//     grammar while it accumulates a decimal mantissa (at most 19 digits, so
//     it fits a uint64) and a decimal exponent, then converts by Clinger's
//     exact path (mantissa < 2^53, |exponent| ≤ 22: one float multiply or
//     divide of two exactly represented values) or by Eisel–Lemire (one or
//     two 64×64→128 multiplies against pow10Table). Both are correctly
//     rounded. What they decline — more than 19 significant digits,
//     Eisel–Lemire's half-way and sub-normal/out-of-range exits — goes to
//     strconv.ParseFloat, the one call left and the one encoding/json makes.
//   - appendFloat generates the shortest round-trip digits with Schubfach
//     (R. Giulietti, "The Schubfach way to render doubles": three
//     round-to-odd 64×128 multiplies against the same table) and lays them
//     out as encoding/json does: 'f' form, 'e' form below 1e-6 and from 1e21
//     with no leading exponent zero, "-0".
//
// strconv and encoding/json are the oracle of the differential tests and
// the fuzzer (wirefloat_test.go); there is no switch between old and new.
//
// None of the float arithmetic here is a multiply-add — Clinger's path is
// one operation, everything else is integer — so a compiler that fuses
// x*y+z (GOAMD64=v3, arm64) has nothing to fuse; CI's GOAMD64=v3 job runs
// the float tests to prove it.

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// decimal is a scanned number literal: ±man × 10^exp10, exact when digits,
// the count of significant digits accumulated into man, is at most 19. Past
// that man has wrapped and must not be used.
type decimal struct {
	man    uint64
	exp10  int
	digits int
	neg    bool
}

// maxExp10 clamps the exponent accumulator: anything beyond it is far outside
// pow10Table either way, and "1e99999999999999999999" must not wrap around.
const maxExp10 = 1 << 20

// scanNumber consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the
// JSON grammar strconv alone would not enforce ("01", "+1", ".5", "0x1p-2"
// and "1_0" all parse there), at the start of b. It reports the bytes
// consumed, which on a refusal is where the grammar broke. What follows the
// literal is the caller's next token, so "01" and "1.5x" fail there.
func scanNumber(b []byte) (d decimal, n int, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	if i == len(b) {
		return d, i, false
	}
	man := uint64(0)
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		d.digits = i - start
	default:
		return d, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if d.digits == 0 {
			// Zeros between the point and the first non-zero digit are
			// not significant: 0.000123 is 123e-6, three digits.
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		first := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == start {
			return d, i, false
		}
		d.digits += i - first
		d.exp10 = start - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < maxExp10 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return d, i, false
		}
		if expNeg {
			e = -e
		}
		d.exp10 += e
	}
	d.man = man
	return d, i, true
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float converts d when the fast paths can do so correctly rounded, and
// reports false when the literal is strconv's to convert.
func (d decimal) float() (float64, bool) {
	if d.digits > 19 {
		return 0, false
	}
	man, exp10 := d.man, d.exp10
	if man == 0 {
		if d.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: an exact integer times or over an exact power of ten is one
	// correctly rounded operation.
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if d.neg {
			f = -f
		}
		if exp10 < 0 {
			return f / exactPow10[-exp10], true
		}
		return f * exactPow10[exp10], true
	}
	return eiselLemire(man, exp10, d.neg)
}

// eiselLemire converts ±man × 10^exp10, man != 0, or declines. It follows
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose section
// names the comments use, and agrees with strconv's eiselLemire64 case for
// case: it declines exactly where that one does.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// Multiplication.
	hi, lo := bits.Mul64(man, pow[0])

	// Wider approximation: the low 9 bits could still change the rounding.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Shifting to 54 bits.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Half-way ambiguity.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: zero or wrapped is sub-normal, 0x7FF or more is
	// Inf/NaN; both are strconv's.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	out := exp2<<52 | mant&(1<<52-1)
	if neg {
		out |= 1 << 63
	}
	return math.Float64frombits(out), true
}

// parseNumber converts the JSON number at the start of b and reports its
// length. ok is false for a literal that breaks the grammar and for one
// strconv.ParseFloat refuses (out of range: "1e999"), which is
// encoding/json's error to report.
func parseNumber(b []byte) (f float64, n int, ok bool) {
	d, n, ok := scanNumber(b)
	if !ok {
		return 0, n, false
	}
	if f, ok := d.float(); ok {
		return f, n, true
	}
	// ParseFloat keeps no reference to its argument, so literals up to 32
	// bytes convert without allocating.
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	return f, n, err == nil
}

// roundToOdd returns the high 64 bits of the 192-bit product g × cp, with
// bit 0 set when the discarded middle word says the product was inexact.
func roundToOdd(gHi, gLo, cp uint64) uint64 {
	xHi, _ := bits.Mul64(gLo, cp)
	yHi, yLo := bits.Mul64(gHi, cp)
	mid, carry := bits.Add64(yLo, xHi, 0)
	yHi += carry
	if mid > 1 {
		yHi |= 1
	}
	return yHi
}

// shortest returns the shortest decimal d × 10^k that round-trips to the
// positive finite non-zero float64 whose bits are b, closest to it among the
// shortest. Names follow the Schubfach paper: c × 2^q is the value, g the
// ceiling of 10^-k scaled to 128 bits, vbl/vb/vbr four times the lower
// boundary, the value and the upper boundary in units of 10^k.
func shortest(b uint64) (d uint64, k int) {
	frac := b & (1<<52 - 1)
	e := int(b >> 52)
	c, q := frac, -1074
	if e != 0 {
		c, q = frac|1<<52, e-1075
	}
	// At a power of two the gap below is half the gap above.
	cbl := 4*c - 2
	if frac == 0 && e > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // floor(log10(3/4 × 2^q))
	} else {
		k = q * 1262611 >> 22 // floor(log10(2^q))
	}
	h := uint(q + (-k*1741647)>>19 + 1) // 1..4; the shift is floor(log2(10^-k))

	g := &pow10Table[-k-pow10Min]
	gHi, gLo := g[0], g[1]
	if uint(-k) > 55 { // not exact: the ceiling is one above the row
		var carry uint64
		gLo, carry = bits.Add64(gLo, 1, 0)
		gHi += carry
	}
	vbl := roundToOdd(gHi, gLo, cbl<<h)
	vb := roundToOdd(gHi, gLo, 4*c<<h)
	vbr := roundToOdd(gHi, gLo, (4*c+2)<<h)

	// Round-half-even takes a boundary only for an even significand.
	lower, upper := vbl+c&1, vbr-c&1

	s := vb >> 2
	if s >= 10 {
		// One digit fewer: at most one of sp and sp+1 (× 10^(k+1)) is inside.
		sp := s / 10
		under, over := lower <= 40*sp, 40*sp+40 <= upper
		if under != over {
			if over {
				sp++
			}
			return sp, k + 1
		}
	}
	under, over := lower <= 4*s, 4*s+4 <= upper
	if under != over {
		if over {
			s++
		}
		return s, k
	}
	// Both inside: the closer, ties to even.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// writeDigits fills buf with d's decimal digits, zero-padded on the left.
// Each pair costs a 32-bit divide by a constant; the 64-bit one is slower
// and one chain is serial, which is why putDecimal splits its digits in
// two independent halves.
func writeDigits(buf []byte, d uint32) {
	i := len(buf)
	for ; i >= 2; i -= 2 {
		p := d % 100 * 2
		d /= 100
		buf[i-2], buf[i-1] = digitPairs[p], digitPairs[p+1]
	}
	if i == 1 {
		buf[0] = byte('0' + d%10)
	}
}

// putDecimal writes the n digits of d < 10^17 into buf[:n]: the low eight
// and the rest each fit a uint32.
func putDecimal(buf []byte, d uint64, n int) {
	if n > 8 {
		writeDigits(buf[n-8:n], uint32(d%1e8))
		d /= 1e8
		n -= 8
	}
	writeDigits(buf[:n], uint32(d))
}

var pow10u64 = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // floor(len × log10(2)): the count or one under
	if d >= pow10u64[n] {
		n++
	}
	return n
}

// maxFloatLen bounds what appendFloat writes: a sign, 17 digits, and either
// "0." with five zeros, four zeros up to 1e21, or a point and "e-324".
const maxFloatLen = 32

// appendFloat appends the finite f as encoding/json's floatEncoder does:
// shortest round-trip digits, 'f' form except below 1e-6 or from 1e21 up,
// where the 'e' form has no leading exponent zero. Integer-valued floats
// below 2^53 take AppendInt, whose digits are the 'f' form's.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || b == 0) {
		return strconv.AppendInt(dst, i, 10)
	}
	at := len(dst)
	dst = slices.Grow(dst, maxFloatLen)[:at+maxFloatLen]
	buf := dst[at:]
	i := 0
	if b>>63 != 0 {
		buf[0] = '-'
		i = 1
		b &^= 1 << 63
	}
	if b == 0 {
		buf[i] = '0'
		return dst[:at+i+1]
	}
	d, k := shortest(b)
	// Schubfach drops at most the last of its 16 or 17 digits: 0.3 arrives
	// as 3 × 10^15 × 10^-16. Full-precision values almost never end in a
	// zero; d < 10 × 2^53 ends in at most 15 = 8+4+2+1.
	if d%10 == 0 {
		if d%1e8 == 0 {
			d, k = d/1e8, k+8
		}
		if d%1e4 == 0 {
			d, k = d/1e4, k+4
		}
		if d%100 == 0 {
			d, k = d/100, k+2
		}
		if d%10 == 0 {
			d, k = d/10, k+1
		}
	}
	n := decimalLen(d)
	point := n + k // digits before the decimal point
	switch {
	case point < -5 || point > 21: // 'e' form: d.ddde±x
		putDecimal(buf[i+1:], d, n)
		buf[i] = buf[i+1]
		i++
		if n > 1 {
			buf[i] = '.'
			i += n
		}
		buf[i] = 'e'
		x := point - 1
		if x < 0 {
			buf[i+1] = '-'
			x = -x
		} else {
			buf[i+1] = '+'
		}
		i += 2
		xn := decimalLen(uint64(x))
		writeDigits(buf[i:i+xn], uint32(x))
		i += xn
	case point <= 0: // 0.000ddd
		buf[i], buf[i+1] = '0', '.'
		i += 2
		for ; point < 0; point++ {
			buf[i] = '0'
			i++
		}
		putDecimal(buf[i:], d, n)
		i += n
	case point >= n: // ddd000
		putDecimal(buf[i:], d, n)
		for i += n; n < point; n++ {
			buf[i] = '0'
			i++
		}
	default: // dd.ddd: written one place right, then the head moves left
		putDecimal(buf[i+1:], d, n)
		copy(buf[i:], buf[i+1:i+1+point])
		buf[i+point] = '.'
		i += n + 1
	}
	return dst[:at+i]
}
