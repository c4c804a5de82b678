package wav

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := []int32{0, 100, -100, 32767, -32768, 40000, -40000}
	r := []int32{1, 2, 3, 4, 5, 6, 7}
	if err := WriteStereo(&buf, l, r, 44100); err != nil {
		t.Fatal(err)
	}
	a, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rate != 44100 || a.Channels != 2 || len(a.Samples) != 2*7 {
		t.Fatalf("meta = %+v", a)
	}
	want := []int16{0, 100, -100, 32767, -32768, 32767, -32768}
	for i, w := range want {
		if a.Samples[2*i] != w {
			t.Errorf("frame %d L = %d, want %d", i, a.Samples[2*i], w)
		}
		if a.Samples[2*i+1] != int16(r[i]) {
			t.Errorf("frame %d R = %d, want %d", i, a.Samples[2*i+1], r[i])
		}
	}
}

func TestWriteStereoTruncatesToShorter(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStereo(&buf, make([]int32, 10), make([]int32, 4), 8000); err != nil {
		t.Fatal(err)
	}
	a, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Channels != 2 || len(a.Samples) != 2*4 {
		t.Errorf("%d channels, %d samples, want 4 stereo frames", a.Channels, len(a.Samples))
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Audio{Rate: 0, Channels: 1}); err == nil {
		t.Error("zero rate accepted")
	}
	if err := Write(&buf, &Audio{Rate: 8000, Channels: 0}); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a wav file at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty accepted")
	}
}

func TestReadSkipsUnknownChunks(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStereo(&buf, []int32{1, 2}, []int32{3, 4}, 8000); err != nil {
		t.Fatal(err)
	}
	// Splice a LIST chunk between fmt and data.
	b := buf.Bytes()
	var out bytes.Buffer
	out.Write(b[:36]) // RIFF header + fmt chunk
	out.Write([]byte{'L', 'I', 'S', 'T', 4, 0, 0, 0, 'I', 'N', 'F', 'O'})
	out.Write(b[36:])
	// Fix the RIFF size (not strictly checked by our reader, but keep it
	// coherent).
	a, err := Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	if a.Channels != 2 || len(a.Samples) != 2*2 {
		t.Errorf("%d channels, %d samples, want 2 stereo frames", a.Channels, len(a.Samples))
	}
}

func TestClip16(t *testing.T) {
	f := func(v int32) bool {
		c := Clip16(v)
		if v > 32767 {
			return c == 32767
		}
		if v < -32768 {
			return c == -32768
		}
		return int32(c) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	a := &Audio{Rate: 16000, Channels: 1, Samples: []int16{1, -1, 1000, -1000}}
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Channels != 1 || len(got.Samples) != 4 {
		t.Fatalf("got %+v", got)
	}
	for i := range a.Samples {
		if got.Samples[i] != a.Samples[i] {
			t.Fatalf("sample %d: %d != %d", i, got.Samples[i], a.Samples[i])
		}
	}
}
