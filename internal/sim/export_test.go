package sim

// RunSourcePeak is RunSource that also returns the deepest the event queue
// got during the run, for the queue-bound tests in package sim_test.
func RunSourcePeak(s *Simulator, src TraceSource) (*Result, int, error) {
	res, engine, err := s.run(src)
	if engine == nil {
		return res, 0, err
	}
	return res, engine.PeakPending(), err
}
