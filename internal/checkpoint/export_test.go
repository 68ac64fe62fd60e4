package checkpoint

// Get returns the checkpoint with the given ID, or nil.
func (s *Store) Get(id string) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}
