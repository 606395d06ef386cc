package core

import "slices"

// Attachment pairs a backend key with the vendor-specific target its
// factory consumes.
type Attachment struct {
	Key    BackendKey
	Target any
}

// DeviceSet is an ordered collection of backend attachments — the
// device-generic inventory of "what is monitorable here" that a node or a
// binary assembles before asking a Registry to build the collectors.
// Attachment order is preserved; collectors are built in that order so
// output stays deterministic.
type DeviceSet struct {
	attachments []Attachment
}

// Attach appends one backend attachment.
func (s *DeviceSet) Attach(key BackendKey, target any) {
	s.attachments = append(s.attachments, Attachment{Key: key, Target: target})
}

// Len reports the number of attachments.
func (s *DeviceSet) Len() int { return len(s.attachments) }

// Attachments returns the attachments in attach order. The slice is shared;
// callers must not mutate it.
func (s *DeviceSet) Attachments() []Attachment { return s.attachments }

// ByPlatform returns the attachments for one platform, in attach order.
func (s *DeviceSet) ByPlatform(p Platform) []Attachment {
	var out []Attachment
	for _, a := range s.attachments {
		if a.Key.Platform == p {
			out = append(out, a)
		}
	}
	return out
}

// Collectors builds one collector per attachment via reg, in attach
// order. Keys, when given, select the attachments whose backend is one of
// them — the caller's way to take a subset of a node's access paths (say,
// the daemon path but not the in-band one) without knowing how the node
// was assembled; no keys means every attachment. The first factory error
// aborts the build.
func (s *DeviceSet) Collectors(reg *Registry, keys ...BackendKey) ([]Collector, error) {
	cols := make([]Collector, 0, len(s.attachments))
	for _, a := range s.attachments {
		if len(keys) > 0 && !slices.Contains(keys, a.Key) {
			continue
		}
		c, err := reg.Build(a.Key, a.Target)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return cols, nil
}
