package api

import (
	"errors"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	c := Cursor{QueryHash: HashQuery("MATCH (a:AS) RETURN a.asn", nil), Version: 42, Offset: 1000}
	got, err := DecodeCursor(EncodeCursor(c))
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("roundtrip = %+v, want %+v", got, c)
	}
}

func TestDecodeCursorRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"not base64 !!!",
		EncodeCursor(Cursor{QueryHash: "", Version: 1, Offset: 0}), // empty hash
		"djE6YWJjOjE",     // too few fields
		"djI6YWJjOjE6MA",  // wrong prefix (v2)
		"djE6YWJjOi0xOjA", // negative version
		"djE6YWJjOjE6LTU", // negative offset
		"djE6YWJjOjE6eA",  // non-numeric offset
		EncodeCursor(Cursor{QueryHash: "abc", Version: 1, Offset: MaxCursorOffset + 1}), // forged huge offset
		"djE6YWJjOjE6OTIyMzM3MjAzNjg1NDc3NTgwNw",                                        // offset 2^63-1: would overflow pagination arithmetic
	} {
		if _, err := DecodeCursor(s); !errors.Is(err, ErrBadCursor) {
			t.Errorf("DecodeCursor(%q) err = %v, want ErrBadCursor", s, err)
		}
	}
}

func TestHashQueryBindsParams(t *testing.T) {
	q := "MATCH (a:AS {asn: $n}) RETURN a.name"
	h1 := HashQuery(q, map[string]any{"n": 1})
	h2 := HashQuery(q, map[string]any{"n": 2})
	h3 := HashQuery(q, map[string]any{"n": 1})
	if h1 == h2 {
		t.Error("different params hash equal")
	}
	if h1 != h3 {
		t.Error("equal params hash different")
	}
	if HashQuery(q, nil) == HashQuery(q+" ", nil) {
		t.Error("different query text hashes equal")
	}
}
