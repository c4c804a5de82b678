// Package bound exercises the boundcheck analyzer against the core stub:
// dropped results, blank-discarded errors, truncating division and
// sign-wrapping conversions are findings; checked errors and same-type
// comparisons are not.
package bound

import "core"

func dropped(s *core.System) {
	s.TauHat(0) // want `result of bound function TauHat dropped`
}

func droppedVerify(s *core.System) {
	s.VerifyThroughput() // want `result of bound function VerifyThroughput dropped`
}

func blanked(s *core.System) uint64 {
	tau, _ := s.TauHat(0) // want `error of bound function TauHat assigned to _`
	return tau
}

func deferred(s *core.System) {
	defer s.GammaHat(0) // want `bound function GammaHat deferred`
}

func checked(s *core.System) (uint64, error) {
	tau, err := s.TauHatCheckpointed(0, 4, 60)
	if err != nil {
		return 0, err
	}
	return tau, nil
}

func truncates(s *core.System, blocks uint64) (uint64, error) {
	gamma, err := s.GammaHat(0)
	if err != nil {
		return 0, err
	}
	per := gamma / blocks // want `truncating integer division`
	return per, nil
}

func wraps(s *core.System, measured int64) (bool, error) {
	tau, err := s.TauHat(0)
	if err != nil {
		return false, err
	}
	return uint64(measured) <= tau, nil // want `signed/unsigned conversion uint64`
}

func sameType(s *core.System, measured uint64) (bool, error) {
	tau, err := s.EpsilonHat(0)
	if err != nil {
		return false, err
	}
	return measured <= tau, nil // unsigned vs unsigned: fine
}

func unrelatedDivision(measured, n uint64) uint64 {
	return measured / n // no bound involved: fine
}
