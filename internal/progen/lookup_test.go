package progen

import "testing"

func TestParseName(t *testing.T) {
	cases := []struct {
		name  string
		feats Features
		seed  int64
		index int
		ok    bool
	}{
		{"gen/s42/0007", 0, 42, 7, true},
		{"gen/s-3/0000", 0, -3, 0, true},
		{"gen/s1/12345", 0, 1, 12345, true},
		{"gen/chan/s42/0007", FeatChan | FeatWaitGroup, 42, 7, true},
		{"gen/sync/s7/0001", FeatCond | FeatRWMutex, 7, 1, true},
		{"gen/all/s1/0000", FeatChan | FeatWaitGroup | FeatCond | FeatRWMutex, 1, 0, true},
		{"gen/f5/s1/0000", FeatChan | FeatCond, 1, 0, true},
		{"CS/reorder_10", 0, 0, 0, false},
		{"gen/s42", 0, 0, 0, false},
		{"gen/s/0007", 0, 0, 0, false},
		{"gen/s42/", 0, 0, 0, false},
		{"gen/sx/0007", 0, 0, 0, false},
		{"gen/s42/-1", 0, 0, 0, false},
		{"gen/bogus/s42/0007", 0, 0, 0, false},
		{"gen/chan/42/0007", 0, 0, 0, false},
	}
	for _, c := range cases {
		feats, seed, index, ok := ParseName(c.name)
		if ok != c.ok || feats != c.feats || seed != c.seed || index != c.index {
			t.Errorf("ParseName(%q) = (%v, %d, %d, %v), want (%v, %d, %d, %v)",
				c.name, feats, seed, index, ok, c.feats, c.seed, c.index, c.ok)
		}
	}
}

func TestFromNameRoundTrip(t *testing.T) {
	for _, grammar := range Grammars() {
		feats, err := ParseGrammar(grammar)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(42, feats)
		for i := 0; i < 10; i++ {
			want := g.Next()
			got, ok := FromName(want.Name)
			if !ok {
				t.Fatalf("FromName(%q) failed", want.Name)
			}
			if got.Source() != want.Source() {
				t.Fatalf("FromName(%q) regenerated a different program:\n%s\nvs\n%s",
					want.Name, got.Source(), want.Source())
			}
		}
	}
	if _, ok := FromName("CS/account"); ok {
		t.Fatal("FromName accepted a non-generated name")
	}
}
