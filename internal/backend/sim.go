package backend

import "repro/internal/mturk"

// Sim is the reference backend: the in-process simulated marketplace,
// unchanged. Every method forwards to the embedded marketplace, so the
// sim path is byte-for-byte the pre-extraction engine — virtual-clock
// determinism and verify fingerprints included.
type Sim struct {
	*mturk.Marketplace
}

// NewSim wraps a simulated marketplace as a Backend.
func NewSim(m *mturk.Marketplace) *Sim { return &Sim{Marketplace: m} }

// Name implements Backend.
func (s *Sim) Name() string { return "sim" }
