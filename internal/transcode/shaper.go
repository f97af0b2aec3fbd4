package transcode

import "qoschain/internal/media"

// Shaper is the sender-side rate adaptation: it decimates and re-sizes
// frames down to the negotiated QoS parameters without changing the
// format. The paper's model has every edge carry the stream at the
// parameters the optimizer chose for it; the shaper realizes that choice
// at the head of the chain so downstream links are never oversubscribed.
type Shaper struct {
	transcoder
}

// NewShaper builds a shaper emitting at the target parameters.
func NewShaper(target media.Params, model media.BitrateModel) *Shaper {
	return &Shaper{transcoder: newTranscoder(target, model)}
}

// Process decimates the stream to the target frame rate and re-sizes the
// payload to the target bitrate.
func (s *Shaper) Process(f Frame) []Frame {
	out := s.ProcessAppend(&f, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ProcessAppend shapes *f, appending any output to out and returning it
// — the allocation-free form the batched pipeline drives.
func (s *Shaper) ProcessAppend(f *Frame, out []Frame) []Frame {
	s.consumed++
	return s.emit(f, f.Format, out)
}
