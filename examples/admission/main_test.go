package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden pins the example's report byte for byte: verdicts, transition
// costs against their bounds, the event log and the final platform state.
// After a reviewed behavioural change, regenerate it with
// go run ./examples/admission > examples/admission/testdata/admission.golden.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/admission.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/admission.golden:\n%s", got.Bytes())
	}
}
