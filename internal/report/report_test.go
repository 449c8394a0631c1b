package report_test

import (
	"strings"
	"testing"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/report"
	"rff/internal/strategy"
)

func TestTableAlignment(t *testing.T) {
	out := report.Table([]string{"a", "long-header"}, [][]string{
		{"wide-cell", "1"},
		{"x", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	w := len(lines[0])
	for i, l := range lines {
		if len(strings.TrimRight(l, " ")) > w+2 {
			t.Fatalf("line %d wider than header: %q", i, l)
		}
	}
}

func TestCellFormats(t *testing.T) {
	if got := report.Cell(12.4, 3.2, 0, 20); got != "12 ± 3" {
		t.Fatalf("plain cell: %q", got)
	}
	if got := report.Cell(12.4, 3.2, 2, 20); got != "12 ± 3*" {
		t.Fatalf("partial-miss cell: %q", got)
	}
	if got := report.Cell(0, 0, 20, 20); got != "-" {
		t.Fatalf("all-miss cell: %q", got)
	}
}

func TestEndToEndRendering(t *testing.T) {
	tools, err := strategy.ResolveAll([]string{"rff", "pos"}, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	progs := []bench.Program{bench.MustGet("CS/account"), bench.MustGet("CS/lazy01")}
	m := campaign.RunMatrix(tools, progs, campaign.Config{Trials: 2, Budget: 200, BaseSeed: 5})

	tab := report.AppendixB(m)
	for _, want := range []string{"CS/account", "CS/lazy01", "RFF", "POS", "bugs found"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	fig4 := report.Fig4ASCII(m, m.Tools)
	if !strings.Contains(fig4, "legend") || !strings.Contains(fig4, "R=RFF") {
		t.Errorf("fig4 missing legend:\n%s", fig4)
	}
	csv := report.Fig4CSV(m, m.Tools)
	if !strings.HasPrefix(csv, "tool,schedules,cumulative_bugs\n") {
		t.Errorf("bad fig4 csv header: %q", csv[:40])
	}

	d := campaign.RFDistributionPOS(bench.MustGet("CS/lazy01"), 100, 1, 0)
	fig5 := report.Fig5ASCII(d, 10)
	if !strings.Contains(fig5, "POS") || !strings.Contains(fig5, "#") {
		t.Errorf("bad fig5:\n%s", fig5)
	}
	if !strings.Contains(report.Fig5CSV(d), "rank,frequency") {
		t.Error("bad fig5 csv")
	}
}
