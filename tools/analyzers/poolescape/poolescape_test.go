package poolescape_test

import (
	"testing"

	"repro/tools/analyzers/analyzertest"
	"repro/tools/analyzers/poolescape"
)

func TestFlagging(t *testing.T) {
	analyzertest.Run(t, "testdata/flag", "fixture", poolescape.Analyzer)
}

// The owning packages themselves must be clean: route's NetRC flows
// only through //pool:boundary lifecycle functions (newNetRC,
// RecycleRC, the RC cache). The partition and place kernels hold no
// pool-scoped values and must stay clean.
func TestRouteExempt(t *testing.T) {
	analyzertest.Run(t, "../../../internal/route", "repro/internal/route", poolescape.Analyzer)
}

func TestPartitionExempt(t *testing.T) {
	analyzertest.Run(t, "../../../internal/partition", "repro/internal/partition", poolescape.Analyzer)
}

func TestPlaceExempt(t *testing.T) {
	analyzertest.Run(t, "../../../internal/place", "repro/internal/place", poolescape.Analyzer)
}

// sta holds NetRC slots in the incremental timer's epoch-managed rc
// table — the audited //poolescape:ignore sites.
func TestStaExempt(t *testing.T) {
	analyzertest.Run(t, "../../../internal/sta", "repro/internal/sta", poolescape.Analyzer)
}
