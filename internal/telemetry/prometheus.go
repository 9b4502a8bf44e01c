package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), family by family in order of
// first registration: each family is one group under its one HELP and
// TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runSamplers()
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", m.series(), m.counter.Value())
		case kindGauge:
			if m.fn != nil {
				fmt.Fprintf(bw, "%s %s\n", m.series(), formatFloat(m.fn()))
			} else {
				fmt.Fprintf(bw, "%s %d\n", m.series(), m.gauge.value())
			}
		case kindHistogram:
			cum := uint64(0)
			counts := m.hist.bucketCounts()
			for i, b := range m.hist.bounds {
				cum += counts[i]
				lbl := append(append([]Label(nil), m.labels...), L("le", fmt.Sprint(b)))
				fmt.Fprintf(bw, "%s %d\n", seriesName(m.name+"_bucket", lbl), cum)
			}
			cum += counts[len(counts)-1]
			lbl := append(append([]Label(nil), m.labels...), L("le", "+Inf"))
			fmt.Fprintf(bw, "%s %d\n", seriesName(m.name+"_bucket", lbl), cum)
			fmt.Fprintf(bw, "%s %d\n", seriesName(m.name+"_sum", m.labels), m.hist.total())
			fmt.Fprintf(bw, "%s %d\n", seriesName(m.name+"_count", m.labels), m.hist.Count())
		}
	}
	return bw.Flush()
}

// Series flattens every registered metric into its series by parsing
// the registry's own exposition: an in-process reader sees exactly the
// series, names and values a scraper of /metrics sees, in the same
// order.
func (r *Registry) Series() []Series {
	var b bytes.Buffer
	r.WritePrometheus(&b)
	series, _ := ParseText(&b) // the exposition always parses back
	return series
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Series is one parsed exposition line.
type Series struct {
	// Full is the series as written: name plus label block.
	Full string
	// Name is the metric family name alone.
	Name string
	// Labels holds the parsed label pairs (nil when unlabelled).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Label returns a label value ("" when absent).
func (s Series) Label(key string) string { return s.Labels[key] }

// ParseText parses Prometheus text exposition format into its series,
// in input order. Comment and blank lines are skipped; malformed lines
// are an error. This is the scrape side of WritePrometheus, used by
// Series, p5stat and the golden tests — it understands the subset this package
// emits (no timestamps, no escaped label values beyond \" \\ \n).
func ParseText(r io.Reader) ([]Series, error) {
	var out []Series
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Series, error) {
	// Split the series part from the value: the value is the last
	// whitespace-separated field outside any label block.
	end := strings.LastIndexByte(line, '}')
	var seriesPart, valuePart string
	if end >= 0 {
		seriesPart = strings.TrimSpace(line[:end+1])
		valuePart = strings.TrimSpace(line[end+1:])
	} else {
		i := strings.IndexAny(line, " \t")
		if i < 0 {
			return Series{}, fmt.Errorf("no value in %q", line)
		}
		seriesPart = line[:i]
		valuePart = strings.TrimSpace(line[i:])
	}
	// A timestamp after the value would be a second field; reject it
	// explicitly rather than mis-parse.
	if strings.ContainsAny(valuePart, " \t") {
		valuePart = strings.Fields(valuePart)[0]
	}
	v, err := strconv.ParseFloat(valuePart, 64)
	if err != nil {
		return Series{}, fmt.Errorf("bad value %q: %v", valuePart, err)
	}
	s := Series{Full: seriesPart, Name: seriesPart, Value: v}
	if open := strings.IndexByte(seriesPart, '{'); open >= 0 {
		if !strings.HasSuffix(seriesPart, "}") {
			return Series{}, fmt.Errorf("unclosed label block in %q", line)
		}
		s.Name = seriesPart[:open]
		labels, err := parseLabels(seriesPart[open+1 : len(seriesPart)-1])
		if err != nil {
			return Series{}, err
		}
		s.Labels = labels
	}
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label block %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", body)
		}
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		labels[key] = val.String()
		rest = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimPrefix(rest, ",")
		body = strings.TrimSpace(rest)
	}
	return labels, nil
}
