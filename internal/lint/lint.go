package lint

import (
	"repro/internal/lint/alias"
	"repro/internal/lint/bufown"
	"repro/internal/lint/det"
	"repro/internal/lint/driver"
	"repro/internal/lint/owner"
	"repro/internal/lint/quorum"
	"repro/internal/lint/taint"
	"repro/internal/lint/wire"
)

// Analyzers is the full bftlint suite, in the order findings are most
// useful to read: ownership first (the structural invariant), then the
// memory contracts, then determinism, then the protocol-shape analyzers
// (wire/digest coverage, quorum arithmetic, Byzantine-input taint).
var Analyzers = []*driver.Analyzer{
	owner.Analyzer,
	alias.Analyzer,
	bufown.Analyzer,
	det.RandAnalyzer,
	det.TimeAnalyzer,
	det.MapOrderAnalyzer,
	wire.Analyzer,
	quorum.Analyzer,
	taint.Analyzer,
}
