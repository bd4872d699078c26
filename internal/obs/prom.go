package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus writes every family in text exposition format 0.0.4:
// families sorted by name, cumulative histogram buckets ending in
// +Inf, `_sum`/`_count` per series, label values escaped. Lazy series
// call their closure here, which is the only place they are evaluated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		order := make([]*series, len(f.order))
		copy(order, f.order)
		f.mu.Unlock()
		if len(order) == 0 {
			continue
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		escapeHelp(bw, f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.k.String())
		bw.WriteByte('\n')
		for _, s := range order {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(bw *bufio.Writer, f *family, s *series) {
	switch f.k {
	case kindCounter:
		writeName(bw, f.name, "", f.labels, s.values, "")
		bw.WriteByte(' ')
		v := s.c.Value()
		if s.fnU64 != nil {
			v = s.fnU64()
		}
		bw.WriteString(strconv.FormatUint(v, 10))
		bw.WriteByte('\n')
	case kindGauge:
		writeName(bw, f.name, "", f.labels, s.values, "")
		bw.WriteByte(' ')
		v := s.g.Value()
		if s.fnF64 != nil {
			v = s.fnF64()
		}
		bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		bw.WriteByte('\n')
	case kindHistogram:
		h := s.h
		var cum uint64
		for i := range h.upper {
			cum += h.counts[i].Load()
			writeName(bw, f.name, "_bucket", f.labels, s.values, h.le[i])
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(cum, 10))
			bw.WriteByte('\n')
		}
		cum += h.counts[len(h.upper)].Load()
		writeName(bw, f.name, "_bucket", f.labels, s.values, "+Inf")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
		writeName(bw, f.name, "_sum", f.labels, s.values, "")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatFloat(float64(h.sum.Load())/h.scale, 'g', -1, 64))
		bw.WriteByte('\n')
		writeName(bw, f.name, "_count", f.labels, s.values, "")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
}

// writeName emits `name_suffix{l1="v1",le="..."}`. The le label, when
// non-empty, is appended after the family labels (histogram buckets).
func writeName(bw *bufio.Writer, name, suffix string, labels, values []string, le string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) == 0 && le == "" {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l)
		bw.WriteString(`="`)
		escapeLabel(bw, values[i])
		bw.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(bw *bufio.Writer, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			bw.WriteString(`\\`)
		case '"':
			bw.WriteString(`\"`)
		case '\n':
			bw.WriteString(`\n`)
		default:
			bw.WriteByte(c)
		}
	}
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(bw *bufio.Writer, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			bw.WriteString(`\\`)
		case '\n':
			bw.WriteString(`\n`)
		default:
			bw.WriteByte(c)
		}
	}
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"
