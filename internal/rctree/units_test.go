package rctree

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"100", 100},
		{"1.5", 1.5},
		{"-2.5", -2.5},
		{"1e-12", 1e-12},
		{"1E-12", 1e-12},
		{"2.5e3", 2500},
		{"1f", 1e-15},
		{"10fF", 10e-15},
		{"1p", 1e-12},
		{"3.3pF", 3.3e-12},
		{"1n", 1e-9},
		{"2ns", 2e-9},
		{"1u", 1e-6},
		{"1m", 1e-3},
		{"1k", 1e3},
		{"4.7kohm", 4.7e3},
		{"1meg", 1e6},
		{"2MEG", 2e6},
		{"1x", 1e6},
		{"1g", 1e9},
		{"1t", 1e12},
		{"1a", 1e-18},
		{" 5p ", 5e-12},
		{"1e", 1}, // dangling exponent letter treated as (unknown) suffix
	}
	for _, tc := range cases {
		got, err := ParseValue(tc.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", tc.in, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-9*math.Abs(tc.want)+1e-30 {
			t.Errorf("ParseValue(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "p", "--3", ".", "k12"} {
		if v, err := ParseValue(in); err == nil {
			t.Errorf("ParseValue(%q) = %v, want error", in, v)
		}
	}
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0, "s", "0s"},
		{1.2e-9, "s", "1.2ns"},
		{5.5e-10, "s", "550ps"},
		{1e-12, "F", "1pF"},
		{81.25, "ohm", "81.25ohm"},
		{4700, "ohm", "4.7kohm"},
		{1e6, "Hz", "1MHz"},
		{-2e-9, "s", "-2ns"},
		{1e-15, "F", "1fF"},
		{3e-18, "F", "3aF"},
		{2e-21, "F", "0.002aF"},
	}
	for _, tc := range cases {
		if got := FormatSI(tc.v, tc.unit); got != tc.want {
			t.Errorf("FormatSI(%v,%q) = %q, want %q", tc.v, tc.unit, got, tc.want)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatOhms(100); got != "100ohm" {
		t.Errorf("FormatOhms = %q", got)
	}
	if got := FormatFarads(2e-12); got != "2pF" {
		t.Errorf("FormatFarads = %q", got)
	}
	if got := FormatSeconds(1.5e-9); got != "1.5ns" {
		t.Errorf("FormatSeconds = %q", got)
	}
}

// Property: formatting then parsing round-trips to within the 4-digit
// formatting precision for positive magnitudes in the circuit range.
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(mant uint16, exp uint8) bool {
		m := 0.1 + float64(mant%9000)/1000.0 // 0.1 .. 9.1
		// Stay below 1e6: the display prefix "M" (mega) deliberately
		// differs from SPICE's parse convention ("meg"), so the
		// round-trip property only holds up through "k".
		e := int(exp%19) - 15 // 1e-15 .. 1e3
		v := m * math.Pow(10, float64(e))
		s := FormatSI(v, "")
		got, err := ParseValue(s)
		if err != nil {
			t.Logf("parse %q: %v", s, err)
			return false
		}
		return math.Abs(got-v) <= 2e-3*v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzParseValue checks ParseValue against the previous parser, kept
// verbatim in reference_test.go: the same error text for every rejected
// token and the same float64 bits for every accepted one. The seeds sit
// on the edges of the exact conversion path (15 and 16 significant
// digits, exponents ±22 and ±23, 2^53±1) and of the grammar. They run
// in the normal test suite; `go test -fuzz=FuzzParseValue` explores
// further.
func FuzzParseValue(f *testing.F) {
	seeds := []string{
		// 15 and 16 significant digits.
		"123456789012345", "1234567890123456", "999999999999999", "9999999999999999",
		"0.000123456789012345", "1.234567890123456e-5", "12345.6789012345",
		// Exponents ±22 and ±23, plain and with a long mantissa.
		"1e22", "1e-22", "1e23", "1e-23", "4.5e22", "9.87654321e-23",
		"123456789012345e22", "123456789012345e-22", "1.5e-21", "0.001e-20", "100e21",
		// 2^53 and its neighbours.
		"9007199254740991", "9007199254740992", "9007199254740993",
		// Leading and trailing zeros, and signed zeros.
		"000123", "0.000", "1.2300000", "100000000000000000000", "0.0000000000000000000000001",
		"-0", "-0.0e5", "+0", "0e-30", "-0e400",
		// Subnormals, the largest float and overflow.
		"4.9e-324", "2.2250738585072011e-308", "1e-320", "1e-400",
		"1.7976931348623157e308", "1e309", "-1e309",
		// Every suffix, in both cases.
		"1t", "1T", "1g", "1G", "1k", "1K", "1m", "1M", "1u", "1U", "1n", "1N",
		"1p", "1P", "1f", "1F", "1a", "1A", "1meg", "1MEG", "1Meg", "1me", "1x", "1X",
		"1mil", "1MIL", "10pF", "4.7kohm", "2.5E-3k",
		// A suffix that starts with e.
		"1ek", "2.5e", "3e-", "4Ex", "5e+k",
		// Malformed numbers.
		"1e", "1e+", ".5", "5.", "1.2.3", "+-1", "0x10", "1_0", "", " ", "abc", "-", ".",
		"e5", "1e5e3", "1-2", "--3", "k12", "1E309",
		// White space and non-ASCII runes, some of which case-map to
		// ASCII letters.
		" 5p ", "\t1k\n", "1\u212a", "\u00a05", "5\u0085", "1\u0130", "\xff1", "1\xff", "1M\u212a",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := referenceParseValue(s)
		got, err := ParseValue(s)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseValue(%q): error %v, reference %v", s, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseValue(%q) = %v (%#x), reference %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
