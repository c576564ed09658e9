package textindex

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestTokenizerMatchesTokenize: over random strings of mixed-case words,
// apostrophes, digits, stopwords, punctuation and non-Latin text —
// including runes whose lowercase changes length (İ) or is ASCII (the
// Kelvin sign) — one reused Tokenizer yields exactly Tokenize's tokens,
// text after text, and all-ASCII text without an apostrophe costs it no
// allocation.
func TestTokenizerMatchesTokenize(t *testing.T) {
	parts := []string{
		"Introduction", "PROGRAMMING", "history", "Of", "the", "A", "x", "CS106", "2008", "42b",
		"student's", "O'Neil", "'quoted'", "rock'n'roll", "'", "''",
		"Ünïcödé", "ÉCOLE", "straße", "İstanbul", "ΣΟΦΙΑ", "ὀδυσσεύς", "ǅemal", "日本語", "ﬁne", "Kelvin", "Ωmega",
		" ", "  ", ",", ".", "-", ":", "!", "\t", "\n", "_", "/", "é", "Z", "9",
	}
	rng := rand.New(rand.NewSource(1))
	var tok Tokenizer
	for range 5000 {
		var b strings.Builder
		for range rng.Intn(12) {
			b.WriteString(parts[rng.Intn(len(parts))])
			if rng.Intn(3) > 0 {
				b.WriteByte(" ,.-'"[rng.Intn(5)])
			}
		}
		text := b.String()
		if got, want := tok.Tokens(text), Tokenize(text); !slices.Equal(got, want) {
			t.Fatalf("Tokens(%q) = %q, want Tokenize's %q", text, got, want)
		}
	}
	title := "Introduction to Programming: Methods of the 21st Century"
	tok.Tokens(title)
	if n := testing.AllocsPerRun(100, func() { tok.Tokens(title) }); n != 0 {
		t.Errorf("Tokens on ASCII text allocates %.0f times a call, want 0", n)
	}
}
