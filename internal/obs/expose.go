// Prometheus text-format exposition (version 0.0.4). The format
// guarantees this file upholds:
//
//   - Stable ordering: metrics sort by name, vec children by label
//     value, so two scrapes of the same state are byte-identical —
//     what the golden test pins.
//   - Escaping: HELP strings escape backslash and newline; label
//     values additionally escape double quotes.
//   - Histogram semantics: _bucket series are cumulative over
//     increasing le, the +Inf bucket equals _count, and _sum carries
//     the running total of observed values.
package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
)

// TextContentType is the Content-Type for /metrics responses.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every registered metric in Prometheus text format.
// The output is assembled in memory first (scrapes may allocate; hot
// paths never do) and written in one call.
func (r *Registry) WriteText(w io.Writer) error {
	_, ms := r.sortedNames()
	var b []byte
	for _, m := range ms {
		b = m.appendText(b)
	}
	_, err := w.Write(b)
	return err
}

func appendHeader(b []byte, d desc, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, d.name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, d.help)
	b = append(b, "\n# TYPE "...)
	b = append(b, d.name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

// appendEscapedHelp escapes backslash and newline per the exposition
// grammar for HELP lines.
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedLabel escapes backslash, newline, and double quote per
// the exposition grammar for label values.
func appendEscapedLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '"':
			b = append(b, `\"`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendFloat renders a sample value the way Prometheus expects:
// shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, +1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendLabeledSample(b []byte, name, suffix, label, value string, renderVal func([]byte) []byte) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if label != "" {
		b = append(b, '{')
		b = append(b, label...)
		b = append(b, `="`...)
		b = appendEscapedLabel(b, value)
		b = append(b, `"}`...)
	}
	b = append(b, ' ')
	b = renderVal(b)
	b = append(b, '\n')
	return b
}

func appendIntSample(b []byte, name, label, value string, v int64) []byte {
	return appendLabeledSample(b, name, "", label, value, func(b []byte) []byte {
		return strconv.AppendInt(b, v, 10)
	})
}

func (c *Counter) appendText(b []byte) []byte {
	b = appendHeader(b, c.d, "counter")
	return appendIntSample(b, c.d.name, "", "", c.v.Load())
}

func (g *Gauge) appendText(b []byte) []byte {
	b = appendHeader(b, g.d, "gauge")
	return appendIntSample(b, g.d.name, "", "", g.v.Load())
}

func (m *infoMetric) appendText(b []byte) []byte {
	b = appendHeader(b, m.d, "gauge")
	b = append(b, m.d.name...)
	b = append(b, '{')
	for i, lv := range m.labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, lv[0]...)
		b = append(b, `="`...)
		b = appendEscapedLabel(b, lv[1])
		b = append(b, '"')
	}
	b = append(b, "} 1\n"...)
	return b
}

func (v *CounterVec) appendText(b []byte) []byte {
	b = appendHeader(b, v.d, "counter")
	for _, lv := range v.sortedValues() {
		v.mu.Lock()
		c := v.children[lv]
		v.mu.Unlock()
		b = appendIntSample(b, v.d.name, v.label, lv, c.Value())
	}
	return b
}

func (v *CounterVec) sortedValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	return vals
}

func (h *Histogram) appendText(b []byte) []byte {
	b = appendHeader(b, h.d, "histogram")
	return h.appendSeries(b, h.d.name, "", "")
}

// appendSeries renders the _bucket/_sum/_count triplet, cumulative
// over increasing le, optionally tagged with one extra label.
func (h *Histogram) appendSeries(b []byte, name, label, value string) []byte {
	appendBucket := func(b []byte, le string, cum int64) []byte {
		b = append(b, name...)
		b = append(b, "_bucket{"...)
		if label != "" {
			b = append(b, label...)
			b = append(b, `="`...)
			b = appendEscapedLabel(b, value)
			b = append(b, `",`...)
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
		return b
	}
	var cum int64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		b = appendBucket(b, string(appendFloat(nil, ub)), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	b = appendBucket(b, "+Inf", cum)
	b = appendLabeledSample(b, name, "_sum", label, value, func(b []byte) []byte {
		return appendFloat(b, h.sum.load())
	})
	// _count is rendered from the same bucket loads as +Inf, so the
	// "+Inf bucket == count" invariant holds even when observations
	// land mid-scrape.
	b = appendLabeledSample(b, name, "_count", label, value, func(b []byte) []byte {
		return strconv.AppendInt(b, cum, 10)
	})
	return b
}

func (v *HistogramVec) appendText(b []byte) []byte {
	b = appendHeader(b, v.d, "histogram")
	v.mu.Lock()
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	hs := make([]*Histogram, len(vals))
	for i, lv := range vals {
		hs[i] = v.children[lv]
	}
	v.mu.Unlock()
	for i, lv := range vals {
		b = hs[i].appendSeries(b, v.d.name, v.label, lv)
	}
	return b
}
