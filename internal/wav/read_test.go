package wav

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Read decodes a 16-bit PCM WAVE stream (canonical chunk layout; unknown
// chunks before "data" are skipped).
func Read(r io.Reader) (*Audio, error) {
	var riff [12]byte
	if _, err := io.ReadFull(r, riff[:]); err != nil {
		return nil, fmt.Errorf("wav: %w", err)
	}
	if string(riff[0:4]) != "RIFF" || string(riff[8:12]) != "WAVE" {
		return nil, fmt.Errorf("wav: not a RIFF/WAVE stream")
	}
	a := &Audio{}
	sawFmt := false
	for {
		var ch [8]byte
		if _, err := io.ReadFull(r, ch[:]); err != nil {
			return nil, fmt.Errorf("wav: truncated chunk header: %w", err)
		}
		id := string(ch[0:4])
		size := binary.LittleEndian.Uint32(ch[4:8])
		switch id {
		case "fmt ":
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, err
			}
			if len(body) < 16 {
				return nil, fmt.Errorf("wav: short fmt chunk")
			}
			if f := binary.LittleEndian.Uint16(body[0:2]); f != 1 {
				return nil, fmt.Errorf("wav: format %d unsupported (PCM only)", f)
			}
			a.Channels = int(binary.LittleEndian.Uint16(body[2:4]))
			a.Rate = int(binary.LittleEndian.Uint32(body[4:8]))
			if bits := binary.LittleEndian.Uint16(body[14:16]); bits != 16 {
				return nil, fmt.Errorf("wav: %d-bit samples unsupported", bits)
			}
			sawFmt = true
		case "data":
			if !sawFmt {
				return nil, fmt.Errorf("wav: data before fmt chunk")
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, err
			}
			a.Samples = make([]int16, size/2)
			for i := range a.Samples {
				a.Samples[i] = int16(binary.LittleEndian.Uint16(body[2*i:]))
			}
			return a, nil
		default:
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return nil, err
			}
		}
	}
}
