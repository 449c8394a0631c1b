package strategy_test

import (
	"reflect"
	"testing"

	"rff/internal/strategy"
)

// FuzzParseSpec: spec parsing and canonicalization never panic on
// arbitrary input; parsed specs round-trip through String, and
// Canonical is idempotent whenever it succeeds.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"rff", "rff:nofb", "pos", "pct", "pct:3", "pct:7", "random",
		"qlearn", "qlearn:alpha=0.3:eps=0.1", "period", "period:2",
		"genmc", "pct3", "PCT:3", " pos ", "rff,pos", "pct:", ":", "",
		"a:b=c:d", "pct:0", "pct:-1", "qlearn:alpha=x", "no-such-tool",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := strategy.ParseSpec(s)
		if err != nil {
			return
		}
		// Parse is a normalizer: its output re-parses to itself.
		sp2, err := strategy.ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("parsed spec %q does not re-parse: %v", sp.String(), err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("spec round trip changed: %+v vs %+v", sp, sp2)
		}
		c, err := strategy.Canonical(s)
		if err != nil {
			return // unknown strategy or bad arguments: a clean error, not a panic
		}
		c2, err := strategy.Canonical(c)
		if err != nil {
			t.Fatalf("canonical spec %q rejected by Canonical: %v", c, err)
		}
		if c2 != c {
			t.Fatalf("Canonical not idempotent: %q -> %q -> %q", s, c, c2)
		}
	})
}
