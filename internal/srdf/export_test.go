package srdf

// Test-only access for the external srdf_test package, whose tests need
// packages that import srdf.
var (
	MinPeriodBisect = minPeriodBisect
	FeasibleExact   = (*Graph).feasibleExact
)
