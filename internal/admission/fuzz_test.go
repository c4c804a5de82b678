package admission

// Fuzz harness for the admission campaign script parser: arbitrary input
// must produce an error or a well-formed op list — never a panic. Run
// continuously with `go test -fuzz=FuzzParseScript ./internal/admission/`;
// CI runs a short smoke budget on every push.

import (
	"strings"
	"testing"
)

func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment only\n",
		"3000 add s5 rate=1/300\n",
		"3000 add s5 rate=1/300 reconfig=50 decim=2 incap=64 outcap=32 inputs=128\n",
		"9000 remove s2\n",
		"15000 readmit s2\n",
		"1 add a rate=5\n2 remove a\n3 readmit a\n",
		"# campaign\n3000 add s5 rate=1/300\n9000 remove s4 # trailing comment\n",
		// Malformed: each must error, not panic.
		"x add s5 rate=1/300\n",
		"5 add\n",
		"5 add s5\n",
		"5 add s5 rate=1/0\n",
		"5 add s5 rate=-1/300\n",
		"5 add s5 rate=1/300 decim=0\n",
		"5 add s5 rate=1/300 bogus=7\n",
		"5 add s5 rate=1/300 period=300\n", // the rate is the source period
		"5 add s5 rate=1/9223372036854775808\n",
		"5 frobnicate s5\n",
		"5 remove\n",
		"9 remove a\n3 remove b\n", // decreasing times
		"5 add s5 rate=\n",
		"\x00\x01\x02",
		strings.Repeat("7 remove s1\n", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := ParseScript(text)
		if err != nil {
			if ops != nil {
				t.Fatal("non-nil ops returned alongside an error")
			}
			return
		}
		last := int64(-1)
		for _, op := range ops {
			if int64(op.At) < last {
				t.Fatalf("op times decrease: %d after %d", op.At, last)
			}
			last = int64(op.At)
			if op.Name == "" {
				t.Fatalf("unnamed op survived parsing: %+v", op)
			}
			if op.Kind == OpAdd && (op.Rate == nil || op.Rate.Sign() <= 0) {
				t.Fatalf("add without a positive rate survived parsing: %+v", op)
			}
			if op.Kind == OpAdd && (!op.Rate.Num().IsInt64() || !op.Rate.Denom().IsInt64()) {
				t.Fatalf("add whose rate is no source period survived parsing: %+v", op)
			}
		}
	})
}
