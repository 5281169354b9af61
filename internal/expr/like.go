package expr

import (
	"strings"
	"unicode/utf8"
)

// MatchLike reports whether s matches the SQL LIKE pattern. '%' matches
// any run of characters (including empty), '_' matches exactly one
// character, and a backslash escapes the next pattern character. When
// fold is true, matching is case-insensitive (ILIKE).
func MatchLike(s, pattern string, fold bool) bool {
	if fold {
		s = strings.ToLower(s)
		pattern = strings.ToLower(pattern)
	}
	return likeMatch(s, pattern)
}

// likeMatch implements iterative wildcard matching with backtracking on
// the most recent '%'. Literal pattern bytes compare byte for byte,
// which for UTF-8 text is character for character; '_' consumes one
// UTF-8 rune of s, and '%' backtracks by whole runes, so a wildcard
// never splits a multi-byte character.
func likeMatch(s, p string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		if pi < len(p) {
			switch c := p[pi]; c {
			case '%':
				star, match = pi, si
				pi++
				continue
			case '_':
				si += runeLen(s, si)
				pi++
				continue
			case '\\':
				if pi+1 < len(p) && p[pi+1] == s[si] {
					si++
					pi += 2
					continue
				}
			default:
				if c == s[si] {
					si++
					pi++
					continue
				}
			}
		}
		if star >= 0 {
			// Backtrack: let the last '%' absorb one more rune.
			match += runeLen(s, match)
			si = match
			pi = star + 1
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// runeLen is the byte length of the rune starting at s[i] (1 for an
// invalid byte), for i < len(s).
func runeLen(s string, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s[i:])
	return n
}

// likeShape is a LIKE pattern's literal fast path.
type likeShape uint8

const (
	likeGeneral  likeShape = iota // anything else: MatchLike
	likeEqual                     // lit
	likePrefix                    // lit%
	likeSuffix                    // %lit
	likeContains                  // %lit%
)

// classifyLike reports which literal fast path pattern takes, and its
// literal. Only a valid UTF-8 literal free of '%', '_' and '\' qualifies:
// such a literal can only match at rune boundaries, so the byte-exact
// strings functions agree with likeMatch.
func classifyLike(pattern string) (likeShape, string) {
	lit, lead := strings.CutPrefix(pattern, "%")
	lit, trail := strings.CutSuffix(lit, "%")
	if strings.ContainsAny(lit, `%_\`) || !utf8.ValidString(lit) {
		return likeGeneral, ""
	}
	switch {
	case lead && trail:
		return likeContains, lit
	case lead:
		return likeSuffix, lit
	case trail:
		return likePrefix, lit
	default:
		return likeEqual, lit
	}
}
