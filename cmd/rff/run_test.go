package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests.
const mainArgsEnv = "RFF_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"rff"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rff runs the command in a child process and returns its stdout,
// stderr and exit code.
func rff(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func TestRunRejectsBadFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"-budget", "0"},
		{"-trials", "0"},
		{"-shards", "-1"},
		{"-tools", "pos", "-out", dir},
		{"-tools", "rff,pos", "-v"},
		{"-tools", "rff:nofb", "-minimize"},
		{"-races", "-budget-policy", "ucb"},
		{"-v", "-trials", "3"},
		{"-v", "-trial-timeout", "1ns"},
		{"-races", "-shards", "2"},
		{"-budget-epochs", "3"},
	} {
		stdout, stderr, code := rff(t, append([]string{"run", "-prog", "CS/account"}, args...)...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "rff: ") {
			t.Errorf("rff run %v: exit %d, stdout %q, stderr %q; want exit 1 and one error line", args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected -out run created %s", dir)
	}
}

// A run that fails after its profile and event stream are open still
// stops the profile and closes the stream before exiting 1.
func TestRunFailureFlushesProfileAndEvents(t *testing.T) {
	dir := t.TempDir()
	events, profile := filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "c.pprof")
	_, stderr, code := rff(t, "run", "-prog", "CS/account", "-budget-policy", "ucb", "-shards", "2",
		"-events", events, "-cpuprofile", profile)
	if code != 1 || !strings.Contains(stderr, "sharded") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the sharded conflict", code, stderr)
	}
	for _, path := range []string{events, profile} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s left empty or missing (%v)", filepath.Base(path), err)
		}
	}
}

// A fixed budget is one uniform epoch: every tool, the deterministic
// GenMC included, runs the same schedules with or without the budget
// policy, which only adds its report.
func TestRunFixedBudgetIsOneUniformEpoch(t *testing.T) {
	args := []string{"run", "-prog", "CS/reorder_10", "-tools", "rff,pos,genmc", "-trials", "3", "-budget", "20"}
	fixed, _, code := rff(t, args...)
	if code != 0 {
		t.Fatalf("fixed run exited %d", code)
	}
	uniform, _, code := rff(t, append(args, "-budget-policy", "uniform", "-budget-epochs", "1")...)
	if code != 0 {
		t.Fatalf("uniform run exited %d", code)
	}
	report := strings.Index(uniform, "budget policy uniform:")
	if report < 0 {
		t.Fatalf("uniform run printed no budget report:\n%s", uniform)
	}
	if uniform[:report] != fixed {
		t.Errorf("fixed run\n%s\ndiffers from one uniform epoch\n%s", fixed, uniform[:report])
	}
	if !strings.Contains(fixed, "GenMC* found no bug in 60 schedules") {
		t.Errorf("GenMC did not get budget x trials schedules:\n%s", fixed)
	}
}
