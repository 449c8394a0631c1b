package core

import (
	"encoding/json"
	"fmt"
	"os"

	"rff/internal/exec"
)

// AbstractEventJSON is the serialized form of an abstract event.
type AbstractEventJSON struct {
	Op  string `json:"op"`
	Var string `json:"var"`
	Loc string `json:"loc"`
}

// ConstraintJSON is the serialized form of one reads-from constraint.
type ConstraintJSON struct {
	Write   AbstractEventJSON `json:"write"`
	Read    AbstractEventJSON `json:"read"`
	Negated bool              `json:"negated,omitempty"`
}

// Artifact is the on-disk form of one failing schedule: everything needed
// to reproduce and triage the bug — the program name, the abstract
// schedule that was being driven, the failure, and the exact decision
// sequence for deterministic replay. This is the fuzzer's analogue of a
// crash file in AFL's output directory (Algorithm 1's S_fail).
type Artifact struct {
	Program     string           `json:"program"`
	Seed        int64            `json:"seed"`
	Execution   int              `json:"execution"`
	FailureKind string           `json:"failure_kind"`
	FailureMsg  string           `json:"failure_msg"`
	FailureLoc  string           `json:"failure_loc,omitempty"`
	Thread      int32            `json:"thread"`
	Schedule    []ConstraintJSON `json:"schedule"`
	Decisions   []int32          `json:"decisions"`
}

// opFromString inverts Op.String for the ops that appear in abstract
// events.
func opFromString(s string) (exec.Op, error) {
	for op := exec.Op(1); int(op) < exec.NumOps; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return exec.OpNone, fmt.Errorf("unknown op %q", s)
}

// NewArtifact converts a FailureRecord into its serializable form.
func NewArtifact(program string, fr FailureRecord) *Artifact {
	a := &Artifact{
		Program:     program,
		Seed:        fr.Seed,
		Execution:   fr.Execution,
		FailureKind: fr.Failure.Kind.String(),
		FailureMsg:  fr.Failure.Msg,
		FailureLoc:  fr.Failure.Loc,
		Thread:      int32(fr.Failure.Thread),
	}
	for _, c := range fr.Schedule.Constraints() {
		a.Schedule = append(a.Schedule, ConstraintJSON{
			Write:   AbstractEventJSON{Op: c.Write.Op.String(), Var: c.Write.Var, Loc: c.Write.Loc},
			Read:    AbstractEventJSON{Op: c.Read.Op.String(), Var: c.Read.Var, Loc: c.Read.Loc},
			Negated: c.Negated,
		})
	}
	for _, d := range fr.Decisions {
		a.Decisions = append(a.Decisions, int32(d))
	}
	return a
}

// Failure reconstructs the recorded failure. Its Kind is zero when the
// artifact names no known failure kind.
func (a *Artifact) Failure() *exec.Failure {
	f := &exec.Failure{Msg: a.FailureMsg, Thread: exec.ThreadID(a.Thread), Loc: a.FailureLoc}
	for k := exec.FailAssert; int(k) < exec.NumFailureKinds; k++ {
		if k.String() == a.FailureKind {
			f.Kind = k
			break
		}
	}
	return f
}

// AbstractSchedule reconstructs the constraint set.
func (a *Artifact) AbstractSchedule() (Schedule, error) {
	var cs []Constraint
	for _, c := range a.Schedule {
		wop, err := opFromString(c.Write.Op)
		if err != nil {
			return Schedule{}, err
		}
		rop, err := opFromString(c.Read.Op)
		if err != nil {
			return Schedule{}, err
		}
		cs = append(cs, Constraint{
			Write:   exec.AbstractEvent{Op: wop, Var: c.Write.Var, Loc: c.Write.Loc},
			Read:    exec.AbstractEvent{Op: rop, Var: c.Read.Var, Loc: c.Read.Loc},
			Negated: c.Negated,
		})
	}
	return NewSchedule(cs...), nil
}

// ThreadOrder reconstructs the replayable decision sequence.
func (a *Artifact) ThreadOrder() []exec.ThreadID {
	out := make([]exec.ThreadID, len(a.Decisions))
	for i, d := range a.Decisions {
		out[i] = exec.ThreadID(d)
	}
	return out
}

// Validate checks the structural invariants every replayable artifact
// satisfies: a program name, a failure kind, a non-empty decision
// sequence of valid thread IDs, and a parseable abstract schedule. It
// guards the replay path against truncated or hand-edited crash files.
func (a *Artifact) Validate() error {
	if a.Program == "" {
		return fmt.Errorf("missing program name")
	}
	if a.FailureKind == "" {
		return fmt.Errorf("missing failure kind")
	}
	if len(a.Decisions) == 0 {
		return fmt.Errorf("empty decision sequence — nothing to replay")
	}
	for i, d := range a.Decisions {
		if d < 1 {
			return fmt.Errorf("decision %d: invalid thread id %d", i, d)
		}
	}
	if _, err := a.AbstractSchedule(); err != nil {
		return fmt.Errorf("abstract schedule: %w", err)
	}
	return nil
}

// DecodeArtifact parses and validates artifact JSON. Malformed input —
// syntactically broken JSON, wrong field types, or a structurally
// invalid artifact — returns a descriptive error; it never panics.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("malformed artifact JSON: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("invalid artifact: %w", err)
	}
	return &a, nil
}

// EncodeArtifact renders the canonical artifact bytes: pretty-printed
// JSON with a trailing newline. Every producer (Save, the service's
// blob store, the triage corpus) encodes through here, so identical
// artifacts hash to identical content addresses everywhere.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes the artifact as pretty-printed JSON.
func (a *Artifact) Save(path string) error {
	data, err := EncodeArtifact(a)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadArtifact reads an artifact back, validating it on the way in.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", path, err)
	}
	return a, nil
}
