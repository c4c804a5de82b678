package trace

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"accelshare/internal/dataflow"
)

// checkWellFormedXML tokenises the whole document with the strict decoder.
func checkWellFormedXML(doc string) error {
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := dec.Token(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func sampleTrace(t *testing.T) (*dataflow.Graph, []dataflow.Firing) {
	t.Helper()
	g := dataflow.NewGraph("t")
	a := g.AddActor("alpha", 3)
	b := g.AddActor("b", 2)
	g.AddBuffer("ab", a, b, dataflow.Const(1), dataflow.Const(1), 2)
	res, err := g.Simulate(dataflow.SimOptions{
		RecordTrace:      true,
		StopAfterFirings: map[dataflow.ActorID]int64{b: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Trace
}

func TestFromFirings(t *testing.T) {
	g, tr := sampleTrace(t)
	ga := FromFirings(g, tr)
	if len(ga.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(ga.Rows))
	}
	if ga.Rows[0].Name != "alpha" {
		t.Errorf("row order: %q first", ga.Rows[0].Name)
	}
	if ga.Start != 0 {
		t.Errorf("start = %d", ga.Start)
	}
	if ga.End == 0 {
		t.Error("end not set")
	}
	// Spans sorted by start.
	spans := ga.Rows[0].Spans
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("spans not sorted")
		}
	}
}

func TestRenderContainsRowsAndMarks(t *testing.T) {
	g, tr := sampleTrace(t)
	out := FromFirings(g, tr).Render(60)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "#") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("lines = %d, want 3:\n%s", len(lines), out)
	}
}

func TestRenderZeroDurationMark(t *testing.T) {
	g := dataflow.NewGraph("z")
	a := g.AddActor("z", 0)
	b := g.AddActor("s", 5)
	g.AddBuffer("e", a, b, dataflow.Const(1), dataflow.Const(1), 1)
	res, err := g.Simulate(dataflow.SimOptions{
		RecordTrace:      true,
		StopAfterFirings: map[dataflow.ActorID]int64{b: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FromFirings(g, res.Trace).Render(40)
	if !strings.Contains(out, "|") {
		t.Errorf("zero-duration firing not marked:\n%s", out)
	}
}

func TestRenderTinyWidthClamped(t *testing.T) {
	g, tr := sampleTrace(t)
	out := FromFirings(g, tr).Render(1)
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestSummary(t *testing.T) {
	g, tr := sampleTrace(t)
	sum := FromFirings(g, tr).Summary()
	if !strings.Contains(sum, "alpha") || !strings.Contains(sum, "util") {
		t.Errorf("summary missing fields:\n%s", sum)
	}
	if !strings.Contains(sum, "%") {
		t.Errorf("no utilisation percentage:\n%s", sum)
	}
}

func TestSVGExport(t *testing.T) {
	g, tr := sampleTrace(t)
	svg := FromFirings(g, tr).SVG(600)
	for _, want := range []string{"<svg", "</svg>", "alpha", "<rect", "t=0"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Width clamp.
	if s := FromFirings(g, tr).SVG(10); !strings.Contains(s, `width="200"`) {
		t.Error("small width not clamped")
	}
}

func TestSVGEscapesNames(t *testing.T) {
	g := dataflow.NewGraph("esc")
	a := g.AddActor("a<b>&c", 1)
	g.AddSDFEdge("self", a, a, 1, 1, 1)
	res, err := g.Simulate(dataflow.SimOptions{RecordTrace: true, MaxTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	svg := FromFirings(g, res.Trace).SVG(400)
	if strings.Contains(svg, "a<b>") {
		t.Error("unescaped markup in SVG")
	}
	if !strings.Contains(svg, "a&lt;b&gt;&amp;c") {
		t.Error("escaped name missing")
	}
}

// TestSVGEscapesStreamStyleNames is the regression for gateway-style row
// labels: a stream named `S<1>` (angle brackets from an index template) or
// one carrying quotes must still yield a well-formed XML document.
func TestSVGEscapesStreamStyleNames(t *testing.T) {
	ga := &Gantt{
		Start: 0, End: 10,
		Rows: []Row{
			{Name: `S<1>`, Spans: []Span{{Start: 0, End: 4, Phase: 0}}},
			{Name: `q"u'ote`, Spans: []Span{{Start: 4, End: 8, Phase: 1}}},
		},
	}
	svg := ga.SVG(400)
	for _, raw := range []string{`S<1>`, `q"u`, `u'ote`} {
		if strings.Contains(svg, raw) {
			t.Errorf("raw %q leaked into SVG", raw)
		}
	}
	for _, want := range []string{"S&lt;1&gt;", "q&quot;u&apos;ote"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing escaped form %q", want)
		}
	}
	if err := checkWellFormedXML(svg); err != nil {
		t.Errorf("SVG not well-formed: %v", err)
	}
}
