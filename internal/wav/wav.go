// Package wav writes 16-bit PCM RIFF/WAVE files — just enough for the PAL
// demonstrator to emit listenable stereo audio. Its tests read the files
// back with a decoder of their own. Stdlib only.
package wav

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Audio is 16-bit PCM content.
type Audio struct {
	Rate     int
	Channels int
	// Samples is interleaved frames: len = frames × Channels.
	Samples []int16
}

// Frames returns the frame count.
func (a *Audio) Frames() int {
	if a.Channels == 0 {
		return 0
	}
	return len(a.Samples) / a.Channels
}

// WriteStereo encodes two int32 channels (clipped to 16 bits) at the given
// rate.
func WriteStereo(w io.Writer, l, r []int32, rate int) error {
	n := len(l)
	if len(r) < n {
		n = len(r)
	}
	samples := make([]int16, 0, 2*n)
	for i := 0; i < n; i++ {
		samples = append(samples, Clip16(l[i]), Clip16(r[i]))
	}
	return Write(w, &Audio{Rate: rate, Channels: 2, Samples: samples})
}

// Write encodes the audio as a canonical 44-byte-header WAVE file.
func Write(w io.Writer, a *Audio) error {
	if a.Channels < 1 || a.Channels > 8 {
		return fmt.Errorf("wav: %d channels unsupported", a.Channels)
	}
	if a.Rate <= 0 {
		return fmt.Errorf("wav: rate %d invalid", a.Rate)
	}
	dataLen := uint32(len(a.Samples) * 2)
	blockAlign := uint16(a.Channels * 2)
	hdr := make([]byte, 0, 44)
	put := func(b ...byte) { hdr = append(hdr, b...) }
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		put(b[:]...)
	}
	put16 := func(v uint16) {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], v)
		put(b[:]...)
	}
	put([]byte("RIFF")...)
	put32(36 + dataLen)
	put([]byte("WAVE")...)
	put([]byte("fmt ")...)
	put32(16)
	put16(1) // PCM
	put16(uint16(a.Channels))
	put32(uint32(a.Rate))
	put32(uint32(a.Rate) * uint32(blockAlign))
	put16(blockAlign)
	put16(16)
	put([]byte("data")...)
	put32(dataLen)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 2*len(a.Samples))
	for i, s := range a.Samples {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(s))
	}
	_, err := w.Write(buf)
	return err
}

// Clip16 saturates a 32-bit sample to 16 bits.
func Clip16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}
