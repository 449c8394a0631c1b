package core

// Scheduler exposes the campaign's proactive scheduler to the external
// test package, whose decision oracle reads the constraint outcomes of
// every execution.
func (f *Fuzzer) Scheduler() *Proactive { return f.sched }
