package predictserver

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// The oracles of the float codec are the two calls it replaced: json.Marshal
// for the bytes of a float64, and the JSON number grammar followed by
// strconv.ParseFloat — what wireParser.float was before — for the value of a
// literal.

// oraclePrint is json.Marshal's rendering of the finite f.
func oraclePrint(t testing.TB, f float64) []byte {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	return want
}

// oracleParse is the grammar pre-scan and strconv.ParseFloat call that
// parseNumber replaced, kept as it was.
func oracleParse(b []byte) (f float64, n int, ok bool) {
	i := 0
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, i, false
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}

// checkPrint holds appendFloat to json.Marshal's bytes for f, and parseNumber
// of those bytes to f's bits.
func checkPrint(t testing.TB, f float64) {
	t.Helper()
	want := oraclePrint(t, f)
	got := appendFloat(nil, f)
	if string(got) != string(want) {
		t.Fatalf("appendFloat(%b = %#016x) = %q, json.Marshal %q", f, math.Float64bits(f), got, want)
	}
	back, n, ok := parseNumber(got)
	if !ok || n != len(got) || !sameFloat(back, f) {
		t.Fatalf("parseNumber(%q) = %v (%#016x), %d, %v; want %#016x, %d, true",
			got, back, math.Float64bits(back), n, ok, math.Float64bits(f), len(got))
	}
}

// checkParse holds parseNumber to the oracle on any bytes: same value, same
// verdict, same end.
func checkParse(t testing.TB, lit []byte) {
	t.Helper()
	got, gotN, gotOK := parseNumber(lit)
	want, wantN, wantOK := oracleParse(lit)
	if gotOK != wantOK || gotN != wantN || gotOK && !sameFloat(got, want) {
		t.Fatalf("parseNumber(%q) = %v (%#016x), %d, %v; oracle %v (%#016x), %d, %v",
			lit, got, math.Float64bits(got), gotN, gotOK, want, math.Float64bits(want), wantN, wantOK)
	}
}

// hardFloats are the values shortest-digit printers and fast parsers have
// historically got wrong, and the corners of encoding/json's layout.
var hardFloats = []float64{
	0, math.Copysign(0, -1),
	5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 2.2250738585072009e-308,
	math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 123456789012345680000,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.999999999999999e-7, 1e-5,
	1e22, 1e23, 8.41e21, 9.5e-7, 1.5e300, 1.25e-100, 1e-9, 1e-10, 1e-100, 1e100,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 9007199254740993, 1 << 62, -(1 << 63), 1 << 63,
	4.35, 0.3, 0.1, 0.5, 2.5, 61.8, 1.5, 0.000001234, 100, 1e6, -2.5e-3, 299792458, 5e-7,
	9.5367431640625e-7,      // 2^-20: the gap below is half the gap above
	4.450147717014403e-308,  // 2^-1021
	1.7976931348623157e308,  // the last double
	8.98846567431158e307,    // 2^1023
	2.2250738585072011e-308, // the literal that hung PHP; rounds to the sub-normal
	6.9294956446009195e15, 17.000000000000004, 5.0e-324 * 3,
}

// TestWireFloatMatchesOracle: appendFloat prints json.Marshal's bytes and
// parseNumber reads them back to the same bits, over the hard cases and
// 2 M doubles from five generators.
func TestWireFloatMatchesOracle(t *testing.T) {
	for _, f := range hardFloats {
		checkPrint(t, f)
		checkPrint(t, -f)
	}
	// putDecimal at every digit count, with zeros at both ends of each
	// eight-digit half: its digits against strconv, then as doubles.
	for n := 1; n <= 17; n++ {
		ends := []int{0, n - 1, n - 8, n - 9, n - 16}
		for mask := 0; mask < 1<<len(ends); mask++ {
			digits := []byte("98765432198765432"[:n])
			for k, at := range ends {
				if mask&(1<<k) != 0 && at >= 0 {
					digits[at] = '0'
				}
			}
			d, err := strconv.ParseUint(string(digits), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, n)
			if putDecimal(buf, d, n); string(buf) != string(digits) {
				t.Fatalf("putDecimal(%d, %d) = %q", d, n, buf)
			}
			for _, exp := range []string{"", "e-3", "e-17", "e5"} {
				f, err := strconv.ParseFloat(string(digits)+exp, 64)
				if err != nil {
					t.Fatal(err)
				}
				checkPrint(t, f)
			}
		}
	}
	// Every exponent with the four lowest fractions: fraction 0 is where
	// the lower boundary is closer.
	for e := uint64(0); e < 0x7FF; e++ {
		for frac := uint64(0); frac < 4; frac++ {
			if e|frac != 0 {
				checkPrint(t, math.Float64frombits(e<<52|frac))
				checkPrint(t, math.Float64frombits(e<<52|(1<<52-1-frac)))
			}
		}
	}
	per := 400_000
	if testing.Short() {
		per = 40_000
	}
	g := rand.New(rand.NewSource(20))
	for i := 0; i < per; i++ {
		if f := math.Float64frombits(g.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkPrint(t, f)
		}
		checkPrint(t, g.Float64())
		checkPrint(t, g.NormFloat64()*100)
		// A 53-bit integer over a power of ten: Clinger's exact path both
		// ways, short literals, and integers past 2^53 times a power.
		checkPrint(t, float64(g.Int63n(1<<53))/exactPow10[g.Intn(23)])
		checkPrint(t, float64(g.Int63n(1<<53))*exactPow10[g.Intn(23)])
	}
}

// randomLiteral draws a number literal of 1–25 digits with an optional sign,
// fraction and exponent within ±350, and now and then breaks the grammar.
func randomLiteral(g *rand.Rand, buf []byte) []byte {
	buf = buf[:0]
	if g.Intn(3) == 0 {
		buf = append(buf, '-')
	}
	digit := func() byte {
		if g.Intn(4) == 0 { // runs of zeros and nines sit next to half-way points
			return "09"[g.Intn(2)]
		}
		return byte('0' + g.Intn(10))
	}
	n := 1 + g.Intn(25)
	point := -1
	if g.Intn(3) > 0 {
		point = 1 + g.Intn(n)
	}
	for i := 0; i < n; i++ {
		if i == point {
			buf = append(buf, '.')
		}
		c := digit()
		if i == 0 && c == '0' && point != 1 && g.Intn(8) > 0 {
			c = '1' // "01" breaks the grammar: keep most draws inside it
		}
		buf = append(buf, c)
	}
	if g.Intn(2) == 0 {
		buf = append(buf, "eE"[g.Intn(2)])
		if s := g.Intn(3); s < 2 {
			buf = append(buf, "+-"[s])
		}
		buf = strconv.AppendInt(buf, int64(g.Intn(351)), 10)
	}
	if g.Intn(50) == 0 {
		buf = append(buf, ",]}x e.-+_"[g.Intn(10)])
	}
	if g.Intn(200) == 0 && len(buf) > 1 {
		buf = buf[:g.Intn(len(buf))]
	}
	return buf
}

// TestWireParseMatchesOracle: over a million random literals (and the
// refusals the grammar owes), parseNumber gives the value, verdict and end
// index of the grammar check + strconv.ParseFloat it replaced.
func TestWireParseMatchesOracle(t *testing.T) {
	for _, lit := range []string{
		"", "-", "0", "-0", "-0.0", "0e5", "0E-5", "0.0e+0", "01", "1.", ".5", "+1", "1e", "1e+", "1e-", "0x1p-2", "1_0",
		"1.5x", "1,2", "-.5", "--1", "1.e5", "1e5.5", "00", "-01", "0.", "NaN", "Infinity", "-Inf", "inf", "nan", "1e5e5",
		"1e999", "-1e999", "1e400", "1e-400", "1e-999", "1e308", "1.8e308", "1.7976931348623159e308", "2e308",
		"1e99999999999999999999", "-1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999",
		"1e18446744073709551616", "1e-18446744073709551617", "1e4294967296", "1e-4294967296", "1e1048576", "1e1048577",
		"0.000000000000000000000000000000000000000000000000000000000000001", "0." + zeros(400) + "1",
		"1" + zeros(400), "1" + zeros(400) + "e-400", "0.0000", "0.0000e10", "-0.0000",
		"18446744073709551615", "18446744073709551616", "9999999999999999999", "99999999999999999999",
		"1.8446744073709551615", "0.18446744073709551616", "12345678901234567890123456789",
		"9007199254740993", "9007199254740992.5", "9007199254740993e0", "4503599627370496.5", "4503599627370497.5",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
		"2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308", "1e23", "8.41e21",
		"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126", "0.500000000000000166533453693773481063544750213623046875",
		"1.0000000000000000000", "1.00000000000000000000", "100000000000000000000e-20", "0.00000000000000000001e20",
		"5e-324", "3e-324", "2e-324", "1e-323", "6.9294956446009195e15", "1e22", "1e23", "1e37", "1e38", "123e35", "1e-22", "1e-23",
	} {
		checkParse(t, []byte(lit))
	}
	n := 1_200_000
	if testing.Short() {
		n = 120_000
	}
	g := rand.New(rand.NewSource(21))
	var buf []byte
	for i := 0; i < n; i++ {
		buf = randomLiteral(g, buf)
		checkParse(t, buf)
	}
}

func zeros(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return string(b)
}

// FuzzWireFloat holds both directions to their oracles on whatever the
// fuzzer writes: the bytes as a literal, and their first eight as a float64.
func FuzzWireFloat(f *testing.F) {
	for _, v := range hardFloats {
		f.Add(appendFloat(nil, v))
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	for _, lit := range []string{"01", "1.", ".5", "+1", "1e", "0x1p-2", "1_0", "-0.0", "0e5", "1e99999999999999999999", "0.000000000000000000001"} {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
		if len(data) >= 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) && !math.IsInf(v, 0) {
				checkPrint(t, v)
			}
		}
	})
}

// TestWireBodiesTakeFastPath: the fast path is the path. Over a scoring
// request, an ingest push, a placement storm and their replies holding
// full-precision doubles, as bench/e2e's sched_stable, stream_fresh4k and
// sched_place send them, every literal is converted by Clinger or
// Eisel–Lemire; none reaches strconv.
func TestWireBodiesTakeFastPath(t *testing.T) {
	fx := wireFixtures()
	// stream_fresh4k's arrival times, random-walk loads and noisy
	// temperatures, beside the fixtures' uniform draws.
	g := rand.New(rand.NewSource(22))
	util, temp := 0.2, 45.0
	for i := range fx.ingest.Readings {
		util += (g.Float64() - 0.5) * 0.06
		temp += 0.15*(40+60*util-temp) + g.NormFloat64()*0.3
		rd := &fx.ingest.Readings[i]
		rd.AtS, rd.TempC, rd.Util = (3+float64(i+1)/4096)*15, temp, util
	}
	for _, m := range []struct {
		name     string
		msg      WireMessage
		literals int
	}{
		{"stable request", &fx.stable, 128}, {"stable response", &fx.temps, 128},
		{"ingest request", &fx.ingest, 128}, {"ingest response", &fx.answer, 128},
		{"place request", &fx.place, 64}, {"place response", &fx.placed, 16},
	} {
		body := mustMarshal(t, m.msg)
		literals, inString := 0, false
		for i := 0; i < len(body); {
			switch c := body[i]; {
			case c == '"':
				inString = !inString
			case !inString && (c == '-' || '0' <= c && c <= '9'):
				d, n, ok := scanNumber(body[i:])
				if !ok {
					t.Fatalf("%s: literal at %d refused: %q", m.name, i, body[i:i+n])
				}
				if _, ok := d.float(); !ok {
					t.Errorf("%s: %q is left to strconv", m.name, body[i:i+n])
				}
				literals++
				i += n
				continue
			}
			i++
		}
		if literals < m.literals {
			t.Errorf("%s: scanned only %d literals", m.name, literals)
		}
	}
}

// TestPow10TableMatchesBig recomputes every row of the committed table:
// 10^q, or floor(2^2048 / 10^-q), shifted to 128 bits and truncated.
func TestPow10TableMatchesBig(t *testing.T) {
	if len(pow10Table) != 696 {
		t.Fatalf("pow10Table has %d rows, want 696 (1e%d … 1e%d)", len(pow10Table), pow10Min, pow10Max)
	}
	ten, mask := big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	for q := pow10Min; q <= pow10Max; q++ {
		x := new(big.Int)
		if q >= 0 {
			x.Exp(ten, big.NewInt(int64(q)), nil)
		} else {
			x.Lsh(big.NewInt(1), 2048)
			x.Quo(x, new(big.Int).Exp(ten, big.NewInt(int64(-q)), nil))
		}
		// The binary exponent the codec implies for the row.
		if got, want := x.BitLen(), 217706*q>>16+1; q >= 0 && got != want {
			t.Errorf("1e%d has %d bits, the row's implied exponent says %d", q, got, want)
		}
		if n := x.BitLen(); n > 128 {
			x.Rsh(x, uint(n-128))
		} else {
			x.Lsh(x, uint(128-n))
		}
		hi, lo := new(big.Int).Rsh(x, 64).Uint64(), new(big.Int).And(x, mask).Uint64()
		if got := pow10Table[q-pow10Min]; got != [2]uint64{hi, lo} {
			t.Errorf("row 1e%d is {%#016X, %#016X}; the correct row is\n\t{0x%016X, 0x%016X}, // 1e%d", q, got[0], got[1], hi, lo, q)
		}
		// Schubfach adds one to every row but 1e0…1e55; that must be the
		// ceiling, so exactly those rows are exact.
		exact := q >= 0 && new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(q)), nil).BitLen() <= 128
		if exact != (0 <= q && q <= 55) {
			t.Errorf("1e%d: exact in 128 bits is %v", q, exact)
		}
	}
}

// floatMix is the value mix BenchmarkWireFloat prints and parses: loads in
// [0,1), temperatures, unit-scale noise and 0–1000-scaled features, all
// full-precision doubles.
func floatMix() []float64 {
	g := rand.New(rand.NewSource(23))
	fs := make([]float64, 1024)
	for i := range fs {
		switch i % 4 {
		case 0:
			fs[i] = g.Float64()
		case 1:
			fs[i] = 40 + 40*g.Float64()
		case 2:
			fs[i] = g.NormFloat64()
		default:
			fs[i] = 1000 * g.Float64()
		}
	}
	return fs
}

var (
	benchFloat float64
	benchBytes []byte
)

// BenchmarkWireFloat is the rung under the Wire benchmarks: one number
// printed or parsed, the codec beside the strconv calls it replaced (for
// parse, with the grammar pre-scan they needed). ns/op is per number.
func BenchmarkWireFloat(b *testing.B) {
	fs := floatMix()
	lits := make([][]byte, len(fs))
	for i, f := range fs {
		lits[i] = append(appendFloat(nil, f), ',')
	}
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		name string
		run  func(i int)
	}{
		{"print/typed", func(i int) { benchBytes = appendFloat(buf, fs[i%len(fs)]) }},
		{"print/strconv", func(i int) { benchBytes = strconv.AppendFloat(buf, fs[i%len(fs)], 'f', -1, 64) }},
		{"parse/typed", func(i int) { benchFloat, _, _ = parseNumber(lits[i%len(lits)]) }},
		{"parse/strconv", func(i int) { benchFloat, _, _ = oracleParse(lits[i%len(lits)]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run(i)
			}
		})
	}
}

// TestWireIntegerMatchesOracle: wireParser.integer accumulates in its scan
// what it used to hand to strconv.ParseInt — same value, same refusals (over
// 18 bytes, sign included), same cursor.
func TestWireIntegerMatchesOracle(t *testing.T) {
	// The scan and conversion integer() replaced, kept as they were.
	oracle := func(b []byte) (v, n int, ok bool) {
		i := 0
		if i < len(b) && b[i] == '-' {
			i++
		}
		if i < len(b) && b[i] == '0' {
			i++
		} else {
			start := i
			for i < len(b) && '0' <= b[i] && b[i] <= '9' {
				i++
			}
			if i == start {
				return 0, i, false
			}
		}
		if i > 18 {
			return 0, i, false
		}
		n64, err := strconv.ParseInt(string(b[:i]), 10, 64)
		return int(n64), i, err == nil
	}
	check := func(lit []byte) {
		t.Helper()
		p := wireParser{b: lit}
		got, ok := p.integer()
		want, wantN, wantOK := oracle(lit)
		if ok != wantOK || ok && (got != want || p.i != wantN) {
			t.Fatalf("integer(%q) = %d, %v at %d; oracle %d, %v at %d", lit, got, ok, p.i, want, wantOK, wantN)
		}
	}
	for _, lit := range []string{"", "-", "0", "-0", "01", "-01", "7", "-7", "1.5", "1e3", "12x", "+1", "x", "-x",
		"999999999999999999", "-99999999999999999", "-999999999999999999", "1000000000000000000", "1e999"} {
		check([]byte(lit))
	}
	g := rand.New(rand.NewSource(24))
	var buf []byte
	for i := 0; i < 200_000; i++ {
		buf = randomLiteral(g, buf)
		check(buf)
	}
}
