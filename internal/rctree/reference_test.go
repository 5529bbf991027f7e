package rctree

// ParseValue as it stood before the byte-scanning rewrite, kept
// verbatim (renamed referenceParseValue, its helper refIsExpStart) as
// the oracle FuzzParseValue checks ParseValue against.

import (
	"fmt"
	"strconv"
	"strings"
)

// referenceParseValue parses a SPICE-style number with an optional engineering
// suffix: f, p, n, u, m, k, meg (or x), g, t — case-insensitive. Any
// trailing unit letters after the suffix are ignored (so "10pF", "10p"
// and "10e-12" all parse to 1e-11), matching common SPICE practice.
func referenceParseValue(s string) (float64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("rctree: empty numeric value")
	}
	// Longest numeric prefix.
	end := 0
	seenDigit := false
	for end < len(s) {
		ch := s[end]
		switch {
		case ch >= '0' && ch <= '9':
			seenDigit = true
			end++
		case ch == '+' || ch == '-' || ch == '.':
			end++
		case ch == 'e' && seenDigit && end+1 < len(s) && refIsExpStart(s[end+1:]):
			end++
		default:
			goto done
		}
	}
done:
	if !seenDigit {
		return 0, fmt.Errorf("rctree: %q is not a number", orig)
	}
	base, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("rctree: parse %q: %w", orig, err)
	}
	suffix := s[end:]
	scale := 1.0
	switch {
	case suffix == "":
	case strings.HasPrefix(suffix, "meg") || strings.HasPrefix(suffix, "x"):
		scale = 1e6
	case suffix[0] == 't':
		scale = 1e12
	case suffix[0] == 'g':
		scale = 1e9
	case suffix[0] == 'k':
		scale = 1e3
	case suffix[0] == 'm':
		scale = 1e-3
	case suffix[0] == 'u':
		scale = 1e-6
	case suffix[0] == 'n':
		scale = 1e-9
	case suffix[0] == 'p':
		scale = 1e-12
	case suffix[0] == 'f':
		scale = 1e-15
	case suffix[0] == 'a':
		scale = 1e-18
	default:
		// Unknown letters (e.g. a bare unit like "ohm") are ignored,
		// as in SPICE.
	}
	return base * scale, nil
}

// refIsExpStart reports whether rest begins like the tail of a float
// exponent: a digit or a sign followed by a digit.
func refIsExpStart(rest string) bool {
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
