package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Strict parser for the Prometheus text exposition format — the validation
// side of WritePrometheus. The serve-smoke check round-trips rasqld's
// exposition through it, so exposition bugs (unsorted buckets, a missing +Inf,
// a sample without a TYPE header) fail the build instead of failing the
// first real scrape.
//
// The parser accepts the subset the registry emits plus standard labelled
// samples, and rejects: samples without a preceding TYPE, unknown types,
// duplicate TYPE/HELP headers, duplicate series, malformed label syntax,
// unparseable values, histograms with non-cumulative buckets, and
// histograms missing le="+Inf", _sum or _count (or whose +Inf bucket
// disagrees with _count).

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one metric family: its headers plus samples in input order.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// ParsePrometheus parses and validates a text-format exposition, returning
// the families keyed by name. Any violation of the format (or of histogram
// semantics) is an error naming the offending line.
func ParsePrometheus(data []byte) (map[string]*PromFamily, error) {
	families := map[string]*PromFamily{}
	var order []string
	seenSeries := map[string]bool{}

	lines := strings.Split(string(data), "\n")
	for ln, raw := range lines {
		line := strings.TrimRight(raw, " \t\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		where := fmt.Sprintf("line %d", ln+1)
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(line, where, families, &order); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSample(line, where)
		if err != nil {
			return nil, err
		}
		famName := familyOf(s.Name, families)
		fam := families[famName]
		if fam == nil || fam.Type == "" {
			return nil, fmt.Errorf("obs: %s: sample %q has no preceding # TYPE header", where, s.Name)
		}
		key := seriesKey(s)
		if seenSeries[key] {
			return nil, fmt.Errorf("obs: %s: duplicate series %s", where, key)
		}
		seenSeries[key] = true
		fam.Samples = append(fam.Samples, s)
	}

	for _, name := range order {
		fam := families[name]
		if fam.Type == "histogram" {
			if err := validateHistogramFamily(fam); err != nil {
				return nil, err
			}
		} else if len(fam.Samples) == 0 {
			return nil, fmt.Errorf("obs: family %s declares TYPE %s but has no samples", name, fam.Type)
		}
	}
	return families, nil
}

// parseHeader handles # HELP and # TYPE lines (other comments are ignored).
func parseHeader(line, where string, families map[string]*PromFamily, order *[]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // plain comment
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("obs: %s: invalid metric name %q in %s header", where, name, fields[1])
	}
	fam := families[name]
	if fam == nil {
		fam = &PromFamily{Name: name}
		families[name] = fam
		*order = append(*order, name)
	}
	switch fields[1] {
	case "HELP":
		if fam.Help != "" {
			return fmt.Errorf("obs: %s: duplicate HELP for %s", where, name)
		}
		if len(fields) == 4 {
			fam.Help = fields[3]
		} else {
			fam.Help = " " // present but empty
		}
	case "TYPE":
		if fam.Type != "" {
			return fmt.Errorf("obs: %s: duplicate TYPE for %s", where, name)
		}
		if len(fam.Samples) > 0 {
			return fmt.Errorf("obs: %s: TYPE for %s appears after its samples", where, name)
		}
		typ := fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
			fam.Type = typ
		default:
			return fmt.Errorf("obs: %s: unknown TYPE %q for %s", where, typ, name)
		}
	}
	return nil
}

// parseSample parses `name[{label="v",...}] value [timestamp]`.
func parseSample(line, where string) (PromSample, error) {
	s := PromSample{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 && brace < strings.IndexByte(rest+" ", ' ') {
		nameEnd = brace
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return s, fmt.Errorf("obs: %s: sample %q has no value", where, line)
		}
		nameEnd = sp
	}
	s.Name = rest[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("obs: %s: invalid metric name %q", where, s.Name)
	}
	rest = rest[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("obs: %s: unterminated label set in %q", where, line)
		}
		labels, err := parseLabels(rest[1:end], where)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("obs: %s: want `value [timestamp]` after %s, got %q", where, s.Name, strings.TrimSpace(rest))
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("obs: %s: bad value %q for %s: %v", where, fields[0], s.Name, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("obs: %s: bad timestamp %q for %s", where, fields[1], s.Name)
		}
	}
	return s, nil
}

// parsePromValue parses a sample value: decimal floats plus +Inf/-Inf/NaN.
func parsePromValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

// parseLabels parses `k="v",k2="v2"` (trailing comma tolerated, as the
// format allows).
func parseLabels(s, where string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("obs: %s: label %q missing '='", where, s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("obs: %s: invalid label name %q", where, key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("obs: %s: label %s value is not quoted", where, key)
		}
		val, rest, err := scanQuoted(s)
		if err != nil {
			return nil, fmt.Errorf("obs: %s: label %s: %v", where, key, err)
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("obs: %s: duplicate label %s", where, key)
		}
		labels[key] = val
		s = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// scanQuoted consumes a double-quoted string with \", \\ and \n escapes,
// returning the unescaped value and the remainder.
func scanQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '"', '\\':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return s == "__name__" // reserved but syntactically fine
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// familyOf maps a sample name to its family: histogram samples X_bucket,
// X_sum and X_count belong to family X when X is a declared histogram.
func familyOf(name string, families map[string]*PromFamily) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if f, ok := families[base]; ok && f.Type == "histogram" {
				return base
			}
		}
	}
	return name
}

// seriesKey canonicalizes name+labels for duplicate detection.
func seriesKey(s PromSample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// validateHistogramFamily checks histogram semantics: le-labelled buckets
// with parseable, strictly increasing bounds and non-decreasing cumulative
// counts, a mandatory le="+Inf" bucket, _sum and _count samples, and
// +Inf == _count.
func validateHistogramFamily(fam *PromFamily) error {
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	var haveSum, haveCount bool
	var count float64
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("obs: histogram %s: bucket sample without le label", fam.Name)
			}
			bound, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("obs: histogram %s: unparseable le=%q", fam.Name, le)
			}
			buckets = append(buckets, bkt{le: bound, cum: s.Value})
		case fam.Name + "_sum":
			haveSum = true
		case fam.Name + "_count":
			haveCount = true
			count = s.Value
		default:
			return fmt.Errorf("obs: histogram %s: unexpected sample %s", fam.Name, s.Name)
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("obs: histogram %s has no buckets", fam.Name)
	}
	if !haveSum || !haveCount {
		return fmt.Errorf("obs: histogram %s missing _sum or _count", fam.Name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].le <= buckets[i-1].le {
			return fmt.Errorf("obs: histogram %s: bucket bounds not increasing (le=%v after le=%v)", fam.Name, buckets[i].le, buckets[i-1].le)
		}
		if buckets[i].cum < buckets[i-1].cum {
			return fmt.Errorf("obs: histogram %s: cumulative counts decrease at le=%v (%v < %v)", fam.Name, buckets[i].le, buckets[i].cum, buckets[i-1].cum)
		}
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("obs: histogram %s missing le=\"+Inf\" bucket", fam.Name)
	}
	if last.cum != count {
		return fmt.Errorf("obs: histogram %s: +Inf bucket (%v) disagrees with _count (%v)", fam.Name, last.cum, count)
	}
	return nil
}
