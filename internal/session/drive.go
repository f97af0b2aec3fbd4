package session

import "qoschain/internal/core"

// Sample records the session state after one driven step.
type Sample struct {
	// Step is the 1-based virtual-time index.
	Step int
	// Path is the active chain.
	Path string
	// Satisfaction is the chain's current satisfaction.
	Satisfaction float64
	// Recomposed reports whether this step switched chains.
	Recomposed bool
	// Degraded reports whether the step's re-evaluation failed: the
	// chain broke, nothing replaced it, and the session kept its last
	// chain. Drive stops at such a step; the simulator records it and
	// carries on.
	Degraded bool
}

// Drive advances virtual time: each step it calls advance (the caller's
// fluctuation hook — an overlay.Trace step, a random walk, or anything
// else) and then re-evaluates the session, recording one Sample. It stops
// early with the error when the session loses every chain.
func (s *Session) Drive(advance func(), steps int) ([]Sample, error) {
	samples := make([]Sample, 0, steps)
	for i := 1; i <= steps; i++ {
		if advance != nil {
			advance()
		}
		s.NoteReevaluateReason(ReevalManual)
		changed, err := s.Reevaluate()
		if err != nil {
			return samples, err
		}
		samples = append(samples, Sample{
			Step:         i,
			Path:         core.PathString(s.current.Path),
			Satisfaction: s.current.Satisfaction,
			Recomposed:   changed,
		})
	}
	return samples, nil
}
