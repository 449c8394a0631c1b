package progen

import (
	"strconv"
	"strings"
)

// ParseName splits a generated program name into its grammar features,
// generator seed, and stream index. Core-grammar names look like
// "gen/s42/0007"; feature grammars carry the grammar segment, as in
// "gen/chan/s42/0007". ok is false for anything that is not a
// well-formed generated-program name.
func ParseName(name string) (feats Features, seed int64, index int, ok bool) {
	rest, found := strings.CutPrefix(name, "gen/")
	if !found {
		return 0, 0, 0, false
	}
	if !strings.HasPrefix(rest, "s") || !hasSeedPrefix(rest) {
		grammar, tail, found := strings.Cut(rest, "/")
		if !found {
			return 0, 0, 0, false
		}
		f, err := ParseGrammar(grammar)
		if err != nil || f == 0 {
			return 0, 0, 0, false
		}
		feats, rest = f, tail
	}
	seedStr, idxStr, found := strings.Cut(strings.TrimPrefix(rest, "s"), "/")
	if !strings.HasPrefix(rest, "s") || !found || seedStr == "" || idxStr == "" {
		return 0, 0, 0, false
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, 0, 0, false
	}
	index, err = strconv.Atoi(idxStr)
	if err != nil || index < 0 {
		return 0, 0, 0, false
	}
	return feats, seed, index, true
}

// hasSeedPrefix reports whether rest starts with a seed segment
// ("s<int>/..."), distinguishing "s42/0007" from a grammar named with a
// leading s (e.g. "sync/s1/0001").
func hasSeedPrefix(rest string) bool {
	seg, _, found := strings.Cut(rest, "/")
	if !found {
		return false
	}
	_, err := strconv.ParseInt(strings.TrimPrefix(seg, "s"), 10, 64)
	return strings.HasPrefix(seg, "s") && err == nil
}

// FromName regenerates a program from its name alone by replaying the
// generator stream — under the features the name's grammar segment
// encodes — up to the named index. This is what lets an artifact
// mentioning "gen/chan/s42/0007" be replayed months later with no
// corpus on disk: equal names imply equal programs, so the regenerated
// body is the one the artifact was recorded against.
func FromName(name string) (*Program, bool) {
	feats, seed, index, ok := ParseName(name)
	if !ok {
		return nil, false
	}
	g := NewGenerator(seed, feats)
	var p *Program
	for i := 0; i <= index; i++ {
		p = g.Next()
	}
	return p, true
}
