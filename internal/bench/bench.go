// Package bench is the evaluation workload: Go ports of the SCTBench and
// ConVul benchmark programs the paper evaluates on (Section 5.1), written
// against the controlled execution engine in internal/exec. Each program
// preserves the thread structure, shared-variable access pattern, and bug
// of its C/pthread original, so schedules-to-first-bug is comparable in
// shape to the paper's Appendix B even though the substrate differs (see
// DESIGN.md, "Substitutions").
//
// Programs register themselves in a global registry; the campaign runner,
// CLI and benchmarks look them up by name.
//
// Every event call carries a static site from sites_gen.go, written by
// cmd/rffsite; rerun go generate after editing a program.
package bench

//go:generate go run ../../cmd/rffsite

import (
	"fmt"
	"sort"
	"strings"

	"rff/internal/exec"
)

// BugType classifies a program's planted bug, mirroring the paper's
// breakdown: 34 assertion violations, 4 deadlocks, 13 memory-safety
// issues across the 49 programs (numbers for the original suites).
type BugType uint8

const (
	// BugAssert marks an assertion-violation bug.
	BugAssert BugType = iota + 1
	// BugDeadlock marks a deadlock bug.
	BugDeadlock
	// BugMemory marks a concurrency memory-safety bug (UAF, double
	// free, null dereference) simulated via the memsim helpers.
	BugMemory
	// BugNone marks a program with no reachable bug known to any tool
	// (SafeStack in practice within realistic budgets).
	BugNone
)

// String names the bug type.
func (b BugType) String() string {
	switch b {
	case BugAssert:
		return "assert"
	case BugDeadlock:
		return "deadlock"
	case BugMemory:
		return "memory"
	case BugNone:
		return "none"
	}
	return "bug?"
}

// Program is one registered benchmark.
type Program struct {
	// Name is the registry key, matching the paper's naming
	// ("CS/reorder_10", "ConVul-CVE-Benchmarks/CVE-2016-9806", ...).
	Name string
	// Suite groups programs as in Appendix B (CS, Chess, ConVul, ...).
	Suite string
	// Bug is the planted bug class.
	Bug BugType
	// Threads is the number of threads the program spawns (excluding
	// main), for documentation and sanity checks.
	Threads int
	// Desc describes the bug scenario in a sentence.
	Desc string
	// Body is the program under test.
	Body exec.Program
}

var (
	registry = make(map[string]Program)
	ordered  []string
)

// register adds a program; duplicate names are programmer errors.
func register(p Program) {
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate program %q", p.Name))
	}
	if p.Body == nil {
		panic(fmt.Sprintf("bench: program %q has no body", p.Name))
	}
	registry[p.Name] = p
	ordered = append(ordered, p.Name)
}

// Get looks a program up by name.
func Get(name string) (Program, bool) {
	p, ok := registry[name]
	return p, ok
}

// MustGet looks a program up by name and panics when absent.
func MustGet(name string) Program {
	p, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("bench: unknown program %q", name))
	}
	return p
}

// Resolve looks a program up by exact name, falling back to a unique
// "/"-suffix match, so "reorder_10" names CS/reorder_10. The error names
// every candidate when the suffix is ambiguous.
func Resolve(name string) (Program, error) {
	if p, ok := registry[name]; ok {
		return p, nil
	}
	var matches []string
	for _, n := range Names() {
		if strings.HasSuffix(n, "/"+name) {
			matches = append(matches, n)
		}
	}
	switch len(matches) {
	case 0:
		return Program{}, fmt.Errorf("unknown program %q (see `rff list`)", name)
	case 1:
		return registry[matches[0]], nil
	}
	return Program{}, fmt.Errorf("program %q is ambiguous: %s", name, strings.Join(matches, ", "))
}

// All returns every registered program sorted by name.
func All() []Program {
	names := Names()
	out := make([]Program, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Names returns all program names, sorted.
func Names() []string {
	out := make([]string, len(ordered))
	copy(out, ordered)
	sort.Strings(out)
	return out
}

// Suites returns the distinct suite names, sorted.
func Suites() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, p := range registry {
		if _, dup := seen[p.Suite]; !dup {
			seen[p.Suite] = struct{}{}
			out = append(out, p.Suite)
		}
	}
	sort.Strings(out)
	return out
}

// BySuite returns the programs of one suite, sorted by name.
func BySuite(suite string) []Program {
	var out []Program
	for _, p := range All() {
		if p.Suite == suite {
			out = append(out, p)
		}
	}
	return out
}
