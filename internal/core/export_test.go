package core

// Test-only exports for the external core_test package, whose tests draw
// instances from internal/generator (which imports core).
var (
	SlotLowerBoundSplitOracle         = slotLowerBoundSplitOracle
	SlotLowerBoundNonPreemptiveOracle = slotLowerBoundNonPreemptiveOracle
)
