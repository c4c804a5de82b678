// Package core stubs the bound-function surface of accelshare/internal/core
// for boundcheck fixtures: same method names on a System type, same
// (value, error) shape. The package-path suffix "core" is what the analyzer
// matches, so fixtures under a plain "core" import path bind to the same
// rule as the real module path.
package core

import "errors"

// System mirrors the real model type's bound surface.
type System struct {
	Blocks []int64
}

// ErrBlockUnknown mirrors the real sentinel for an unset block size.
var ErrBlockUnknown = errors.New("block size unknown")

// TauHat is the Eq. 2 single-block bound stub.
func (s *System) TauHat(i int) (uint64, error) {
	if i < 0 || i >= len(s.Blocks) || s.Blocks[i] <= 0 {
		return 0, ErrBlockUnknown
	}
	return uint64(s.Blocks[i]) * 10, nil
}

// TauHatCheckpointed is the τ̂s(K) stub.
func (s *System) TauHatCheckpointed(i int, k int64, saveCost uint64) (uint64, error) {
	tau, err := s.TauHat(i)
	if err != nil {
		return 0, err
	}
	return tau + saveCost, nil
}

// EpsilonHat is the Eq. 3 stub.
func (s *System) EpsilonHat(i int) (uint64, error) { return s.TauHat(i) }

// GammaHat is the Eq. 4 stub.
func (s *System) GammaHat(i int) (uint64, error) { return s.TauHat(i) }

// GuaranteedRate is the Eq. 5 stub.
func (s *System) GuaranteedRate(i int) (uint64, error) { return s.TauHat(i) }

// VerifyThroughput is the whole-system Eq. 5 check stub.
func (s *System) VerifyThroughput() error {
	if len(s.Blocks) == 0 {
		return ErrBlockUnknown
	}
	return nil
}

// half truncates a bound inside the defining package: core's own internals
// implement the bounds and are exempt from the arithmetic rules, so this
// carries no finding.
func (s *System) half(i int) (uint64, error) {
	tau, err := s.TauHat(i)
	if err != nil {
		return 0, err
	}
	return tau / 2, nil
}
