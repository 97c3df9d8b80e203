package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// readExposition loads Prometheus text from an http(s) URL or a file.
// A bare host:port is accepted as shorthand for http://host:port/metrics.
func readExposition(src string) ([]byte, error) {
	url := ""
	switch {
	case strings.HasPrefix(src, "http://"), strings.HasPrefix(src, "https://"):
		url = src
	case !strings.ContainsAny(src, "/\\") && strings.Contains(src, ":"):
		url = "http://" + src + "/metrics"
	}
	if url == "" {
		return os.ReadFile(src)
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// family is one metric family of an exposition: its # TYPE and every
// series, keyed by its label block as written ("" when unlabelled).
type family struct {
	kind   string // counter, gauge, histogram, or untyped
	series map[string]*series
}

// series is one label set's sample. A histogram series holds its _sum as
// value and its _count as count; its _bucket samples are not kept
// (cumulative buckets do not add across series).
type series struct {
	labels map[string]string
	value  int64
	count  int64
}

// value aggregates a family to one number: a gauge's max across series,
// any other kind's sum (a histogram's: of its sums).
func (f *family) value() int64 {
	var v int64
	first := true
	for _, s := range f.series {
		switch {
		case f.kind != "gauge":
			v += s.value
		case first || s.value > v:
			v = s.value
		}
		first = false
	}
	return v
}

// count is a histogram family's observations across series.
func (f *family) count() int64 {
	var n int64
	for _, s := range f.series {
		n += s.count
	}
	return n
}

// exposition is a parsed exposition, by family name.
type exposition map[string]*family

// value is family name's aggregate, 0 when the exposition lacks it.
func (e exposition) value(name string) int64 {
	if f := e[name]; f != nil {
		return f.value()
	}
	return 0
}

// parseExposition reads Prometheus text format (version 0.0.4): "# TYPE
// name kind" comments followed by `name{k="v",...} value` samples. The
// _sum and _count samples of a family typed histogram fold into it and its
// _bucket samples are dropped. A sample whose line or value does not parse
// is skipped, so one bad line does not cost the report.
func parseExposition(text []byte) (exposition, error) {
	fams := exposition{}
	kinds := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				kinds[f[2]] = f[3]
			}
			continue
		}
		end := strings.IndexAny(line, "{ \t")
		if end <= 0 {
			continue
		}
		name, rest, block := line[:end], line[end:], ""
		var labels map[string]string
		if rest[0] == '{' {
			n := 0
			if labels, n = parseLabels(rest); labels == nil {
				continue
			}
			block, rest = rest[:n], rest[n:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, ok := parseValue(fields[0])
		if !ok {
			continue
		}

		base, part := name, ""
		if _, typed := kinds[name]; !typed {
			for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
				if stem, cut := strings.CutSuffix(name, suffix); cut && kinds[stem] == "histogram" {
					base, part = stem, suffix
				}
			}
		}
		if part == "_bucket" {
			continue
		}
		f := fams[base]
		if f == nil {
			f = &family{kind: kinds[base], series: map[string]*series{}}
			if f.kind == "" {
				f.kind = "untyped"
			}
			fams[base] = f
		}
		s := f.series[block]
		if s == nil {
			s = &series{labels: labels}
			f.series[block] = s
		}
		if part == "_count" {
			s.count = v
		} else {
			s.value = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(fams) == 0 {
		return nil, fmt.Errorf("no metric samples found")
	}
	return fams, nil
}

// parseLabels reads the label block `{k="v",...}` that starts s and
// returns its labels (an empty map for `{}`) and its length; labels is nil
// when the block is malformed. Values are unquoted, so the escapes
// WritePrometheus writes come back as the registry's bytes.
func parseLabels(s string) (labels map[string]string, n int) {
	labels = map[string]string{}
	rest := s[1:]
	for !strings.HasPrefix(rest, "}") {
		k, v, ok := strings.Cut(rest, "=")
		if !ok || !strings.HasPrefix(v, `"`) {
			return nil, 0
		}
		i := 1
		for ; i < len(v) && v[i] != '"'; i++ {
			if v[i] == '\\' {
				i++
			}
		}
		if i >= len(v) {
			return nil, 0
		}
		val, err := strconv.Unquote(v[:i+1])
		if err != nil {
			return nil, 0
		}
		labels[strings.TrimSpace(k)] = val
		rest = v[i+1:]
		if r, comma := strings.CutPrefix(rest, ","); comma {
			rest = r
		} else if !strings.HasPrefix(rest, "}") {
			return nil, 0
		}
	}
	return labels, len(s) - len(rest) + 1
}

// parseValue reads a sample value. The registry writes integers; a float
// (another exporter's) is truncated, and NaN or an infinity is refused.
func parseValue(s string) (int64, bool) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.Abs(f) >= math.MaxInt64 {
		return 0, false
	}
	return int64(f), true
}
