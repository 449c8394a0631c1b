package exec

// Carrier-pool probes for the external test package, whose leak property
// runs generated programs (progen imports exec, so that test cannot live
// in package exec).
var (
	IdleCarriers      = idleCarriers
	SettledGoroutines = settledGoroutines
)
