package trace

import (
	"fmt"
	"strings"
)

// SVG renders the Gantt as a self-contained SVG document: one lane per
// actor, one rectangle per firing span, with a time axis. Zero-duration
// firings render as thin ticks. Useful for embedding the paper's Fig. 6
// style schedules in documents.
func (ga *Gantt) SVG(width int) string {
	const (
		laneH   = 26
		barH    = 18
		labelW  = 110
		axisH   = 24
		padding = 6
	)
	if width < 200 {
		width = 200
	}
	total := ga.End - ga.Start
	if total == 0 {
		total = 1
	}
	plotW := float64(width - labelW - padding)
	x := func(t uint64) float64 {
		return float64(labelW) + plotW*float64(t-ga.Start)/float64(total)
	}
	height := len(ga.Rows)*laneH + axisH + 2*padding

	palette := []string{"#4878a8", "#a85448", "#6aa84f", "#a87f48", "#7a52a8", "#48a89d"}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for i, row := range ga.Rows {
		y := padding + i*laneH
		fill := palette[i%len(palette)]
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333">%s</text>`+"\n", padding, y+barH-4, escape(row.Name))
		for _, s := range row.Spans {
			x0 := x(s.Start)
			x1 := x(s.End)
			w := x1 - x0
			if w < 1 {
				w = 1
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" opacity="0.85"><title>%s [%d,%d) phase %d</title></rect>`+"\n",
				x0, y, w, barH, fill, escape(row.Name), s.Start, s.End, s.Phase)
		}
	}
	// Time axis with start/end labels.
	axisY := padding + len(ga.Rows)*laneH + 12
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#888"/>`+"\n", labelW, axisY, width-padding, axisY)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#555">t=%d</text>`+"\n", labelW, axisY+12, ga.Start)
	endLabel := fmt.Sprintf("t=%d", ga.End)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#555" text-anchor="end">%s</text>`+"\n", width-padding, axisY+12, endLabel)
	b.WriteString("</svg>\n")
	return b.String()
}

// xmlEscaper makes row labels and firing names safe in every XML context
// the renderer uses them in — element content, <title> content and (should
// a span template ever move them there) attribute values, hence the quote
// entities too. A stream named `S<1>` or `A"B` must not break the document.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
)

func escape(s string) string { return xmlEscaper.Replace(s) }
