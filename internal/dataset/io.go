package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serializes records with a header row: case, <features...>, target.
func WriteCSV(w io.Writer, records []Record) error {
	if len(records) == 0 {
		return errors.New("dataset: no records to write")
	}
	cw := csv.NewWriter(w)
	header := append(append([]string{"case"}, featureNames...), "stable_temp_c")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range records {
		if len(r.Features) != len(featureNames) {
			return fmt.Errorf("dataset: record %q has %d features, want %d",
				r.CaseName, len(r.Features), len(featureNames))
		}
		row := make([]string, 0, len(header))
		row = append(row, r.CaseName)
		for _, f := range r.Features {
			row = append(row, strconv.FormatFloat(f, 'g', 17, 64))
		}
		row = append(row, strconv.FormatFloat(r.StableTemp, 'g', 17, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLIBSVM serializes records in LIBSVM's sparse training-file format
// ("<target> 1:<f1> 2:<f2> ..."), usable directly with svm-train for
// cross-checking against the reference implementation.
func WriteLIBSVM(w io.Writer, records []Record) error {
	if len(records) == 0 {
		return errors.New("dataset: no records to write")
	}
	var sb strings.Builder
	for _, r := range records {
		sb.Reset()
		sb.WriteString(strconv.FormatFloat(r.StableTemp, 'g', 17, 64))
		for i, f := range r.Features {
			if f == 0 {
				continue
			}
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(i + 1))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatFloat(f, 'g', 17, 64))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
