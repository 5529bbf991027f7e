package rctree

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Engineering-notation helpers shared by the String method, the netlist
// reader/writer, and report formatting in the CLIs.

type siPrefix struct {
	scale  float64
	symbol string
}

var siPrefixes = []siPrefix{
	{1e12, "T"},
	{1e9, "G"},
	{1e6, "M"},
	{1e3, "k"},
	{1, ""},
	{1e-3, "m"},
	{1e-6, "u"},
	{1e-9, "n"},
	{1e-12, "p"},
	{1e-15, "f"},
	{1e-18, "a"},
}

// FormatSI renders v with an SI prefix and the given unit symbol, for
// example FormatSI(1.2e-9, "s") == "1.2ns".
func FormatSI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%v%s", v, unit)
	}
	av := math.Abs(v)
	for _, p := range siPrefixes {
		if av >= p.scale {
			return trimFloat(v/p.scale) + p.symbol + unit
		}
	}
	p := siPrefixes[len(siPrefixes)-1]
	return trimFloat(v/p.scale) + p.symbol + unit
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// FormatOhms renders a resistance, e.g. "81.25" ohms -> "81.25ohm".
func FormatOhms(r float64) string { return FormatSI(r, "ohm") }

// FormatFarads renders a capacitance, e.g. 1e-12 -> "1pF".
func FormatFarads(c float64) string { return FormatSI(c, "F") }

// FormatSeconds renders a time, e.g. 5.5e-10 -> "550ps".
func FormatSeconds(t float64) string { return FormatSI(t, "s") }

// ParseValue parses a SPICE-style number with an optional engineering
// suffix: f, p, n, u, m, k, meg (or x), g, t — case-insensitive. Any
// trailing unit letters after the suffix are ignored (so "10pF", "10p"
// and "10e-12" all parse to 1e-11), matching common SPICE practice.
//
// The number is the longest prefix of digits, signs, points and
// exponents (an e followed by a digit, or by a sign and a digit), and
// its value is the one strconv.ParseFloat gives that prefix, bit for
// bit. A prefix with at most 15 significant digits and a decimal
// exponent in [-22, 22] is converted in the same pass that scans it (see
// exactPrefix); any other goes to strconv.ParseFloat.
func ParseValue(s string) (float64, error) {
	// An ASCII token is read as it is, folding case only where a letter
	// matters: the exponent marker and the suffix. A non-ASCII token is
	// lower-cased by Unicode rules first, since some runes lower-case to
	// ASCII letters (U+212A, the Kelvin sign, to k).
	t := strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			t = strings.TrimSpace(strings.ToLower(s))
			break
		}
	}
	if t == "" {
		return 0, fmt.Errorf("rctree: empty numeric value")
	}
	base, end, ok := exactPrefix(t)
	if !ok {
		if end == 0 {
			end = numericPrefix(t)
		}
		if end < 0 {
			return 0, fmt.Errorf("rctree: %q is not a number", s)
		}
		// The prefix's one letter is its exponent marker. ParseFloat
		// takes either case, but its error quotes the prefix as given.
		num := t[:end]
		if strings.IndexByte(num, 'E') >= 0 {
			num = strings.ToLower(num)
		}
		var err error
		if base, err = strconv.ParseFloat(num, 64); err != nil {
			return 0, fmt.Errorf("rctree: parse %q: %w", s, err)
		}
	}
	return base * suffixScale(t[end:]), nil
}

// numericPrefix returns the length of the longest prefix of the token
// t made of digits, signs, points and exponent letters (an e or E after
// a digit and before an exponent), or -1 if that prefix holds no digit.
func numericPrefix(t string) int {
	end := 0
	seenDigit := false
scan:
	for ; end < len(t); end++ {
		switch c := t[end]; {
		case '0' <= c && c <= '9':
			seenDigit = true
		case c == '+' || c == '-' || c == '.':
		case lower(c) == 'e' && seenDigit && isExpStart(t[end+1:]):
		default:
			break scan
		}
	}
	if !seenDigit {
		return -1
	}
	return end
}

// suffixScale returns the multiplier an engineering suffix stands for,
// in any case: meg or x, t, g, k, m, u, n, p, f, a. Unknown letters
// (e.g. a bare unit like "ohm") are ignored, as in SPICE.
func suffixScale(suffix string) float64 {
	if suffix == "" {
		return 1
	}
	switch lower(suffix[0]) {
	case 'm':
		if len(suffix) >= 3 && lower(suffix[1]) == 'e' && lower(suffix[2]) == 'g' {
			return 1e6
		}
		return 1e-3
	case 'x':
		return 1e6
	case 't':
		return 1e12
	case 'g':
		return 1e9
	case 'k':
		return 1e3
	case 'u':
		return 1e-6
	case 'n':
		return 1e-9
	case 'p':
		return 1e-12
	case 'f':
		return 1e-15
	case 'a':
		return 1e-18
	}
	return 1
}

// lower returns c with A-Z folded to a-z. Only A-Z and a-z fold to a
// letter; every other byte maps to a byte that is not one.
func lower(c byte) byte { return c | 0x20 }

// exactPow10 holds the powers of ten a float64 represents exactly
// (5^22 < 2^53).
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactPrefix converts the numeric prefix of the token t (see
// numericPrefix) when it reads [+-]digits[.digits][e[+-]digits]
// with at most 15 significant digits and a decimal exponent e in
// [-22, 22], and returns its value and length. Such a prefix is m·10^e
// for an integer m < 10^15; both m and 10^|e| are exact float64 values,
// so one IEEE multiply or divide gives the float64 nearest m·10^e,
// rounded half to even. That is the value strconv.ParseFloat returns,
// and it takes this same path (float64(m), the sign, then one operation
// by the same power) for these inputs. ok is false for every other
// prefix. n is then the prefix's length if it reads as above with more
// digits or a wider exponent, and 0 if it reads otherwise.
func exactPrefix(t string) (f float64, n int, ok bool) {
	i := 0
	neg := false
	if i < len(t) && (t[i] == '+' || t[i] == '-') {
		neg = t[i] == '-'
		i++
	}
	var mant uint64
	sig, exp, exact := 0, 0, true
	start := i
	for ; i < len(t) && '0' <= t[i] && t[i] <= '9'; i++ {
		mant, sig, exact = addDigit(mant, sig, exact, t[i])
	}
	digits := i - start
	if i < len(t) && t[i] == '.' {
		i++
		start = i
		for ; i < len(t) && '0' <= t[i] && t[i] <= '9'; i++ {
			mant, sig, exact = addDigit(mant, sig, exact, t[i])
		}
		digits += i - start
		exp = start - i
	}
	if digits == 0 {
		return 0, 0, false
	}
	if i < len(t) && lower(t[i]) == 'e' && isExpStart(t[i+1:]) {
		i++
		esign := 1
		if t[i] == '+' || t[i] == '-' {
			if t[i] == '-' {
				esign = -1
			}
			i++
		}
		e := 0
		for ; i < len(t) && '0' <= t[i] && t[i] <= '9'; i++ {
			if e < 1000 {
				e = e*10 + int(t[i]-'0')
			}
		}
		exp += esign * e
	}
	if i < len(t) {
		// The numeric prefix goes on past the number ("1.2.3", "1e5e3"):
		// strconv.ParseFloat decides.
		if c := t[i]; c == '.' || c == '+' || c == '-' || lower(c) == 'e' && isExpStart(t[i+1:]) {
			return 0, 0, false
		}
	}
	if !exact || exp < -22 || exp > 22 {
		return 0, i, false
	}
	f = float64(mant)
	if neg {
		f = -f
	}
	if exp >= 0 {
		return f * exactPow10[exp], i, true
	}
	return f / exactPow10[-exp], i, true
}

// addDigit appends the decimal digit c to the mantissa m of sig
// significant digits. A leading zero adds nothing, and a digit past the
// fifteenth leaves m as it is and clears exact.
func addDigit(m uint64, sig int, exact bool, c byte) (uint64, int, bool) {
	d := uint64(c - '0')
	switch {
	case m|d == 0:
		return m, sig, exact
	case sig == 15:
		return m, sig, false
	}
	return m*10 + d, sig + 1, exact
}

// isExpStart reports whether rest begins like the tail of a float
// exponent: a digit or a sign followed by a digit.
func isExpStart(rest string) bool {
	if rest == "" {
		return false
	}
	if rest[0] >= '0' && rest[0] <= '9' {
		return true
	}
	if (rest[0] == '+' || rest[0] == '-') && len(rest) > 1 && rest[1] >= '0' && rest[1] <= '9' {
		return true
	}
	return false
}
