package exec

// Carrier-pool probes for the external test package, whose leak property
// runs generated programs (progen imports exec, so that test cannot live
// in package exec).
var (
	IdleCarriers      = idleCarriers
	SettledGoroutines = settledGoroutines
	SettledBaseline   = settledBaseline
)

// CheckEnabledSet turns the per-step cross-check of the engine's enabled
// set against a from-scratch scan on or off (see crossCheckEnabled).
func CheckEnabledSet(on bool) {
	checkEnabled = nil
	if on {
		checkEnabled = crossCheckEnabled
	}
}
