package symbolic

import "github.com/clarifynet/clarify/atoms"

// Universes exposes a space's atomic-predicate universes to the external
// tests.
func (s *RouteSpace) Universes() (path, comm *atoms.Universe) { return s.pathAtoms, s.commAtoms }
