package main

import (
	"fmt"
	"reflect"
	"slices"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

// replayFailure re-executes a recorded failing schedule under
// sched.NewReplay. It returns nil when the replay follows the recorded
// decisions exactly and fails with the recorded kind, and otherwise says
// how it diverged.
func replayFailure(name string, prog exec.Program, maxSteps int, kind exec.FailureKind, decisions []exec.ThreadID) error {
	res := exec.Run(name, prog, exec.Config{Scheduler: sched.NewReplay(decisions), MaxSteps: maxSteps})
	switch {
	case res.Failure == nil:
		return fmt.Errorf("%s: replaying a failure (%s) ran clean", name, kind)
	case res.Failure.Kind != kind:
		return fmt.Errorf("%s: replaying a failure (%s) failed with %s", name, kind, res.Failure.Kind)
	case !slices.Equal(res.Trace.Decisions, decisions):
		return fmt.Errorf("%s: replaying a failure (%s) diverged from its %d recorded decisions", name, kind, len(decisions))
	}
	return nil
}

// replayReport replays every failure of a campaign report and returns
// the first that does not reproduce.
func replayReport(prog exec.Program, maxSteps int, rep *core.Report) error {
	for _, f := range rep.Failures {
		if err := replayFailure(rep.Program, prog, maxSteps, f.Failure.Kind, f.Decisions); err != nil {
			return fmt.Errorf("execution %d: %w", f.Execution, err)
		}
	}
	return nil
}

// diffReports names the first field in which two campaign reports
// differ, or returns "" when they are identical.
func diffReports(want, got *core.Report) string {
	switch {
	case want.Program != got.Program:
		return "program"
	case want.Executions != got.Executions:
		return fmt.Sprintf("executions %d != %d", got.Executions, want.Executions)
	case want.FirstBug != got.FirstBug:
		return fmt.Sprintf("first bug %d != %d", got.FirstBug, want.FirstBug)
	case want.CorpusSize != got.CorpusSize:
		return fmt.Sprintf("corpus size %d != %d", got.CorpusSize, want.CorpusSize)
	case want.UniquePairs != got.UniquePairs:
		return fmt.Sprintf("rf pairs %d != %d", got.UniquePairs, want.UniquePairs)
	case want.UniqueSigs != got.UniqueSigs:
		return fmt.Sprintf("rf signatures %d != %d", got.UniqueSigs, want.UniqueSigs)
	case !slices.Equal(want.SigFrequencies, got.SigFrequencies):
		return "signature frequencies"
	case len(want.Failures) != len(got.Failures):
		return fmt.Sprintf("failures %d != %d", len(got.Failures), len(want.Failures))
	case !reflect.DeepEqual(want.Failures, got.Failures):
		return "failure records"
	}
	return ""
}

// failureExecutions lists the 1-based execution indices of a report's
// failing schedules.
func failureExecutions(rep *core.Report) []int {
	xs := make([]int, len(rep.Failures))
	for i, f := range rep.Failures {
		xs[i] = f.Execution
	}
	return xs
}
