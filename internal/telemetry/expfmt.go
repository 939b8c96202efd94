package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition-format parser — enough to ingest
// Kepler-style node/VM exporters and vmtherm's own /metrics endpoint
// without pulling in a client library. It understands `# HELP`/`# TYPE`
// comments (skipped), bare samples (`name value [timestamp]`), and labeled
// samples (`name{k="v",...} value [timestamp]`) with the standard \\ \" \n
// escapes in label values.

// MetricPoint is one parsed sample line.
type MetricPoint struct {
	Name   string
	Labels map[string]string
	Value  float64
	// TimestampMS is the optional sample timestamp (0 when absent).
	TimestampMS int64
}

// Label returns a label value ("" when absent).
func (p MetricPoint) Label(key string) string { return p.Labels[key] }

// maxExpositionBytes caps one exposition body — bytes another machine
// chooses — at the figure the HTTP server allows a batch request body.
const maxExpositionBytes = 64 << 20

// ParseExposition parses Prometheus text exposition format into points.
// Comment and blank lines are skipped; a malformed sample line is an error
// (a half-parsed scrape must not silently feed the control loop), and so is
// a body longer than 64 MiB, which is never parsed as far as it fits.
func ParseExposition(r io.Reader) ([]MetricPoint, error) {
	body := &io.LimitedReader{R: r, N: maxExpositionBytes + 1}
	var points []MetricPoint
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		p, err := parseSample(text)
		if err != nil {
			if body.N <= 0 {
				break // the line the cap cut short: report the cap, not its syntax
			}
			return nil, fmt.Errorf("telemetry: exposition line %d: %w", line, err)
		}
		points = append(points, p)
	}
	if body.N <= 0 {
		return nil, fmt.Errorf("telemetry: exposition exceeds the %d-byte limit", maxExpositionBytes)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading exposition: %w", err)
	}
	return points, nil
}

// CloseExposition finishes with the response body ParseExposition read from:
// it drains what is left so the connection can be reused — like the parse, no
// further than a body may be long; a peer that keeps sending loses the
// connection, not the caller's round — and closes it.
func CloseExposition(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxExpositionBytes)
	_ = body.Close()
}

// parseSample parses one `name[{labels}] value [timestamp]` line.
func parseSample(text string) (MetricPoint, error) {
	var p MetricPoint
	rest := text
	if brace := strings.IndexByte(rest, '{'); brace >= 0 {
		p.Name = strings.TrimSpace(rest[:brace])
		labels, tail, err := parseLabels(rest[brace+1:])
		if err != nil {
			return p, err
		}
		p.Labels = labels
		rest = tail
	} else if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		p.Name = rest[:sp]
		rest = rest[sp:]
	} else {
		return p, fmt.Errorf("sample %q has no value", text)
	}
	if p.Name == "" {
		return p, fmt.Errorf("sample %q missing metric name", text)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return p, fmt.Errorf("sample %q has %d value fields, want 1 or 2", text, len(fields))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return p, fmt.Errorf("sample %q value: %w", text, err)
	}
	p.Value = v
	if len(fields) == 2 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return p, fmt.Errorf("sample %q timestamp: %w", text, err)
		}
		p.TimestampMS = ts
	}
	return p, nil
}

// parseLabels consumes `k="v",...}` (the text after the opening brace) and
// returns the label map plus the unconsumed tail.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " \t,")
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label %q missing '='", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimLeft(s[eq+1:], " \t")
		if key == "" || len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %q must be key=\"value\"", key)
		}
		val, tail, err := parseQuoted(s)
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", key, err)
		}
		labels[key] = val
		s = tail
	}
}

// parseQuoted consumes a double-quoted string with \\ \" \n escapes,
// returning the unescaped value and the unconsumed tail.
func parseQuoted(s string) (string, string, error) {
	var sb strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}
