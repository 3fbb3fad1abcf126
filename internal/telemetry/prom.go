package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a Registry.
//
// Mapping for base-2 histograms: internal bucket i holds observations v with
// bits.Len64(v) == i, i.e. the half-open range [2^(i-1), 2^i). Prometheus
// buckets are cumulative and keyed by inclusive upper bound `le`, so bucket i
// is rendered with le = 2^i - 1 (bucket 0, which holds only v == 0, gets
// le="0"). Buckets are emitted up to the highest non-empty one, then "+Inf".
// To keep each scrape internally consistent without a registry-wide lock,
// "+Inf" and `_count` are both computed as the sum of the bucket loads from
// this scrape (the atomic `count` field could be mid-update relative to the
// buckets).

// promName sanitizes an internal instrument name ("span.topk.medrank") into
// a Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*): every other rune
// becomes '_', and a leading digit is prefixed with '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatLabels renders {k1="v1",k2="v2"} (empty string for no labels).
func formatLabels(keys, values []string) string { return braceOrEmpty(labelPairs(keys, values)) }

// labelPairs renders k1="v1",k2="v2" without braces.
func labelPairs(keys, values []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// bucketEdge returns the `le` value of internal bucket i: the inclusive
// upper bound 2^i - 1 ("0" for bucket 0).
func bucketEdge(i int) string {
	if i <= 0 {
		return "0"
	}
	return fmt.Sprintf("%d", uint64(1)<<uint(i)-1)
}

// writePromHistogram renders one histogram series. labels is the pre-rendered
// label set without braces ("" for none); `le` is appended to it.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	hi := 0
	var loads [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		loads[i] = h.buckets[i].Load()
		if loads[i] > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += loads[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, bucketEdge(i), cum); err != nil {
			return err
		}
	}
	total := cum
	for i := hi + 1; i < histBuckets; i++ {
		total += loads[i]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, braceOrEmpty(labels), h.sum.Load()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braceOrEmpty(labels), total)
	return err
}

func braceOrEmpty(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WritePrometheus renders every family in the registry, each named prefix +
// its sanitized name: counters, then gauges, then histograms (with the
// base-2 bucket mapping described above), each kind in sorted name order and
// each family's series sorted by label values. A family declared without help
// text — an unlabeled Counter or Histogram — gets a HELP line naming the
// instrument.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	r.mu.Lock()
	counters, gauges, hists := sortedFamilies(r.counters), sortedFamilies(r.gauges), sortedFamilies(r.hists)
	r.mu.Unlock()
	for _, v := range counters {
		if err := writeFamily(w, prefix, "counter", "Counter %q.", v, func(name, labels string, c *Counter) error {
			_, err := fmt.Fprintf(w, "%s%s %d\n", name, braceOrEmpty(labels), c.Value())
			return err
		}); err != nil {
			return err
		}
	}
	for _, v := range gauges {
		if err := writeFamily(w, prefix, "gauge", "Gauge %q.", v, func(name, labels string, g *Gauge) error {
			_, err := fmt.Fprintf(w, "%s%s %d\n", name, braceOrEmpty(labels), g.Value())
			return err
		}); err != nil {
			return err
		}
	}
	for _, v := range hists {
		if err := writeFamily(w, prefix, "histogram", "Base-2 histogram %q (ns or units).", v, func(name, labels string, h *Histogram) error {
			return writePromHistogram(w, name, labels, h)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFamily renders one family's HELP and TYPE lines, then each series
// through sample, which gets the metric name and the label pairs without
// braces.
func writeFamily[T any](w io.Writer, prefix, typ, defaultHelp string, v *vec[T], sample func(name, labels string, inst *T) error) error {
	pn := promName(prefix + v.name)
	help := v.help
	if help == "" {
		help = fmt.Sprintf(defaultHelp, v.name)
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", pn, help, pn, typ); err != nil {
		return err
	}
	for _, s := range v.snapshot() {
		if err := sample(pn, labelPairs(v.keys, s.values), s.inst); err != nil {
			return err
		}
	}
	return nil
}
