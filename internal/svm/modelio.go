package svm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteModel serializes a model in LIBSVM's text format (svm_save_model),
// with sparse 1-based feature indices. Only epsilon_svr models exist in this
// package.
func WriteModel(w io.Writer, m *Model) error {
	if m == nil {
		return errors.New("svm: nil model")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "svm_type epsilon_svr")
	fmt.Fprintf(bw, "kernel_type %s\n", m.Kernel.Type)
	switch m.Kernel.Type {
	case Polynomial:
		fmt.Fprintf(bw, "degree %d\n", m.Kernel.Degree)
		fmt.Fprintf(bw, "gamma %s\n", ftoa(m.Kernel.Gamma))
		fmt.Fprintf(bw, "coef0 %s\n", ftoa(m.Kernel.Coef0))
	case RBF:
		fmt.Fprintf(bw, "gamma %s\n", ftoa(m.Kernel.Gamma))
	case Sigmoid:
		fmt.Fprintf(bw, "gamma %s\n", ftoa(m.Kernel.Gamma))
		fmt.Fprintf(bw, "coef0 %s\n", ftoa(m.Kernel.Coef0))
	case Linear:
		// no kernel parameters
	}
	fmt.Fprintln(bw, "nr_class 2")
	// dim is a vmtherm extension: sparse SV lines drop trailing zeros, so
	// the true feature dimensionality must be recorded explicitly.
	fmt.Fprintf(bw, "dim %d\n", m.Dim)
	fmt.Fprintf(bw, "total_sv %d\n", len(m.SV))
	fmt.Fprintf(bw, "rho %s\n", ftoa(m.Rho))
	fmt.Fprintln(bw, "SV")
	for i, sv := range m.SV {
		fmt.Fprintf(bw, "%s", ftoa(m.Coef[i]))
		for j, v := range sv {
			if v != 0 {
				fmt.Fprintf(bw, " %d:%s", j+1, ftoa(v))
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Ceilings on what a model file may make ReadModel allocate: the file comes
// from outside the program (-model) and its dim header and feature indices
// are sizes. They are errors, not knobs, set far above any model this
// repository trains (ψ_stable is ~120 support vectors × 16 features).
const (
	maxModelDim    = 1 << 12 // features
	maxModelValues = 1 << 22 // total_sv × dim: 32 MiB of float64
)

// parseFinite parses a number of a model file; NaN and ±Inf are rejected,
// since a single one poisons every prediction.
func parseFinite(s, what string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("svm: bad %s %q: %w", what, s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("svm: %s %q is not finite", what, s)
	}
	return v, nil
}

// ReadModel parses a model previously written by WriteModel (or by LIBSVM's
// svm-train for epsilon-SVR with dense features). The file is not trusted:
// every number must be finite, and dim, the largest feature index and
// total_sv × dim are bounded before anything is allocated from them.
func ReadModel(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // longest line; grows on demand
	m := &Model{}
	header := map[string]string{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "SV" {
			break
		}
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("svm: malformed header line %q", line)
		}
		header[parts[0]] = parts[1]
	}
	if st := header["svm_type"]; st != "epsilon_svr" {
		return nil, fmt.Errorf("svm: unsupported svm_type %q", st)
	}
	kt, err := ParseKernelType(header["kernel_type"])
	if err != nil {
		return nil, err
	}
	m.Kernel.Type = kt
	if g, ok := header["gamma"]; ok {
		if m.Kernel.Gamma, err = parseFinite(g, "gamma"); err != nil {
			return nil, err
		}
	}
	if c0, ok := header["coef0"]; ok {
		if m.Kernel.Coef0, err = parseFinite(c0, "coef0"); err != nil {
			return nil, err
		}
	}
	if d, ok := header["degree"]; ok {
		if m.Kernel.Degree, err = strconv.Atoi(d); err != nil {
			return nil, fmt.Errorf("svm: bad degree: %w", err)
		}
	}
	rho, ok := header["rho"]
	if !ok {
		return nil, errors.New("svm: model missing rho")
	}
	if m.Rho, err = parseFinite(rho, "rho"); err != nil {
		return nil, err
	}

	// SV lines are kept sparse, as written, until the dimensionality is
	// known and checked; their memory is bounded by the file's size.
	type sparseSV struct {
		coef float64
		idx  []int
		vals []float64
	}
	var rows []sparseSV
	maxIdx := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		row := sparseSV{idx: make([]int, 0, len(fields)-1), vals: make([]float64, 0, len(fields)-1)}
		if row.coef, err = parseFinite(fields[0], "SV coefficient"); err != nil {
			return nil, err
		}
		for _, f := range fields[1:] {
			kv := strings.SplitN(f, ":", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("svm: bad SV entry %q", f)
			}
			idx, err := strconv.Atoi(kv[0])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("svm: bad SV index %q", kv[0])
			}
			if idx > maxModelDim {
				return nil, fmt.Errorf("svm: SV index %d above the %d-feature ceiling", idx, maxModelDim)
			}
			val, err := parseFinite(kv[1], "SV value")
			if err != nil {
				return nil, err
			}
			row.idx, row.vals = append(row.idx, idx), append(row.vals, val)
			maxIdx = max(maxIdx, idx)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("svm: reading model: %w", err)
	}
	if ts, ok := header["total_sv"]; ok {
		want, err := strconv.Atoi(ts)
		if err != nil {
			return nil, fmt.Errorf("svm: bad total_sv: %w", err)
		}
		if want != len(rows) {
			return nil, fmt.Errorf("svm: total_sv %d but %d SV lines", want, len(rows))
		}
	}
	m.Dim = maxIdx
	if ds, ok := header["dim"]; ok {
		d, err := strconv.Atoi(ds)
		if err != nil || d < maxIdx {
			return nil, fmt.Errorf("svm: bad dim header %q (max SV index %d)", ds, maxIdx)
		}
		if d > maxModelDim {
			return nil, fmt.Errorf("svm: dim %d above the %d-feature ceiling", d, maxModelDim)
		}
		m.Dim = d
	}
	if len(rows)*m.Dim > maxModelValues {
		return nil, fmt.Errorf("svm: %d support vectors × %d features above the %d-value ceiling", len(rows), m.Dim, maxModelValues)
	}
	if err := m.Kernel.Validate(); err != nil {
		return nil, err
	}
	dense := make([]float64, len(rows)*m.Dim)
	m.SV = make([][]float64, len(rows))
	m.Coef = make([]float64, len(rows))
	for i, row := range rows {
		sv := dense[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
		for j, idx := range row.idx {
			sv[idx-1] = row.vals[j] // a repeated index keeps its last value
		}
		m.SV[i], m.Coef[i] = sv, row.coef
	}
	return m, nil
}

// ftoa formats floats compactly and round-trippably.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }
