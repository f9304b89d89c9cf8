package core

// Query tracing. The paper explains its evaluation procedure through a
// worked example (Section 3.2, Figure 4): layers are retrieved from the
// outmost inwards, each layer's best records join a candidate set, and
// candidates that beat the current layer's maximum are returned first.
// TraceEvent exposes exactly those steps so tools (and the Figure 4
// walkthrough example) can narrate a query; tracing costs nothing when
// no tracer is attached.

// TraceKind labels a trace event.
type TraceKind int

const (
	// TraceLayerEvaluated fires after a layer's records are scored: ID
	// and Score are the layer maximum (the Corollary 1 bound), which may
	// be a tombstoned record; ID is 0 when shell tables skipped every
	// record of the layer, and Score then the first skipped bound.
	TraceLayerEvaluated TraceKind = iota
	// TraceCandidateKept fires when a record enters the candidate set.
	// Records scoring strictly below the layer's candidate floor never
	// enter it (they cannot reach the answer), so only records at or
	// above the floor are reported.
	TraceCandidateKept
	// TraceResultFromCandidates fires when a candidate from an outer
	// layer is finalized because it beats the current layer's maximum.
	TraceResultFromCandidates
	// TraceResultFromLayer fires when the current layer's maximum is
	// finalized.
	TraceResultFromLayer
	// TraceDrained fires when remaining candidates are finalized after
	// the last layer.
	TraceDrained
	// TraceLayersPruned fires when the bound-based pruning of the
	// columnar path ends the walk early: Layer is the first unvisited
	// layer, Score its (sound) score bound, and Evaluated the number of
	// layers skipped.
	TraceLayersPruned
	// TraceShellsPruned fires when spherical-shell evaluation skips part
	// of a layer: Layer is the layer, Score the bound of a skipped
	// bucket, and Evaluated the number of records left unscored.
	TraceShellsPruned
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceLayerEvaluated:
		return "layer-evaluated"
	case TraceCandidateKept:
		return "candidate-kept"
	case TraceResultFromCandidates:
		return "result-from-candidates"
	case TraceResultFromLayer:
		return "result-from-layer"
	case TraceDrained:
		return "drained"
	case TraceLayersPruned:
		return "layers-pruned"
	case TraceShellsPruned:
		return "shells-pruned"
	default:
		return "unknown"
	}
}

// TraceEvent is one step of query evaluation.
type TraceEvent struct {
	Kind TraceKind
	// Layer is the 0-based layer involved (−1 for TraceDrained).
	Layer int
	// ID and Score identify the record for record-level events; for
	// TraceLayerEvaluated, Score is the layer's maximum and ID the
	// record attaining it.
	ID    uint64
	Score float64
	// Evaluated is the number of records scored in the layer
	// (TraceLayerEvaluated only).
	Evaluated int
}

// Trace attaches fn to the searcher; every subsequent evaluation step
// invokes it synchronously. Returns the searcher for chaining.
func (s *Searcher) Trace(fn func(TraceEvent)) *Searcher {
	s.trace = fn
	return s
}

func (s *Searcher) emitTrace(ev TraceEvent) {
	if s.trace != nil {
		s.trace(ev)
	}
}
