package server

import "bohrium/internal/rewrite"

// SetSessionPipeline replaces session id's optimizer before its first
// batch, so tests can run rules the daemon's default pipeline leaves off
// (power expansion through scratch registers).
func (s *Server) SetSessionPipeline(id string, pl *rewrite.Pipeline) {
	s.reg.mu.Lock()
	sess := s.reg.sessions[id]
	s.reg.mu.Unlock()
	sess.lock()
	sess.pipeline = pl
	sess.unlock()
}
