package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// Set bundles all six profiles describing one adaptation request: who is
// receiving (user, context, device), what is being delivered (content),
// and through what (network, intermediaries). It is the full input to
// graph construction and chain selection.
type Set struct {
	User           User           `json:"user"`
	Content        Content        `json:"content"`
	Context        Context        `json:"context,omitempty"`
	Device         Device         `json:"device"`
	Network        Network        `json:"network"`
	Intermediaries []Intermediary `json:"intermediaries"`
}

// Validate validates every member profile and cross-profile consistency:
// intermediary hosts must be distinct.
func (s *Set) Validate() error {
	if err := s.ValidatePerUser(); err != nil {
		return err
	}
	if err := s.Network.Validate(); err != nil {
		return err
	}
	hosts := make(map[string]bool, len(s.Intermediaries))
	for i := range s.Intermediaries {
		in := &s.Intermediaries[i]
		if err := in.Validate(); err != nil {
			return err
		}
		if hosts[in.Host] {
			return fmt.Errorf("profile: duplicate intermediary host %q", in.Host)
		}
		hosts[in.Host] = true
	}
	return nil
}

// ValidatePerUser validates the per-user half of the set: the user,
// content, context and device profiles. The other half, the network and
// intermediary profiles, describes infrastructure that every user of a
// region shares.
func (s *Set) ValidatePerUser() error {
	if err := s.User.Validate(); err != nil {
		return err
	}
	if err := s.Content.Validate(); err != nil {
		return err
	}
	if err := s.Context.Validate(); err != nil {
		return err
	}
	return s.Device.Validate()
}

// Encode writes the set as indented JSON.
func (s *Set) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("profile: encoding set: %w", err)
	}
	return nil
}

// DecodeSet reads a JSON-encoded Set and validates it.
func DecodeSet(r io.Reader) (*Set, error) {
	var s Set
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("profile: decoding set: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
