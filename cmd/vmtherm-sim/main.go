// vmtherm-sim runs one simulated thermal experiment — one workload case on
// a one-host simulated fleet — and emits the temperature/utilization trace
// as CSV.
//
// Usage:
//
//	vmtherm-sim -vms 8 -fans 4 -ambient 22 -duration 1800 -seed 1 > trace.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"

	"vmtherm/internal/core"
	"vmtherm/internal/substrate"
	"vmtherm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmtherm-sim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args (exiting on a bad flag, as flag.Parse does), runs the
// experiment and writes the CSV to w, or to the -out file when one is
// named. The case and its ψ_stable are logged.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmtherm-sim", flag.ExitOnError)
	var (
		vms      = fs.Int("vms", 6, "number of VMs on the host (2-12 in the paper)")
		fans     = fs.Int("fans", 4, "healthy fan count")
		ambient  = fs.Float64("ambient", 22, "rack inlet temperature, °C")
		duration = fs.Float64("duration", 1800, "experiment length, seconds")
		sample   = fs.Float64("sample", 5, "sensor sampling interval, seconds")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		dynamic  = fs.Bool("dynamic", false, "use time-varying task load profiles")
		out      = fs.String("out", "", "output CSV path (default stdout)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error

	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = *vms, *vms
	opts.FanChoices = []int{*fans}
	opts.AmbientMinC, opts.AmbientMaxC = *ambient, *ambient
	opts.Dynamic = *dynamic

	// ψ_stable averages the readings from t_break on, so a shorter run has
	// nothing to average.
	if !(*duration >= core.DefaultTBreakS) || math.IsInf(*duration, 1) {
		return fmt.Errorf("-duration %v: want a finite length of at least t_break, %v s", *duration, core.DefaultTBreakS)
	}
	c, err := workload.GenerateCase(opts, *seed, "sim")
	if err != nil {
		return err
	}
	cfg := substrate.DefaultConfig()
	cfg.SampleS, cfg.Seed = *sample, *seed
	res, err := substrate.RunCase(c, cfg, *duration)
	if err != nil {
		return err
	}
	stable, err := res.StableTemp(core.DefaultTBreakS)
	if err != nil {
		return err
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				log.Printf("closing %s: %v", *out, cerr)
			}
		}()
		w = f
	}

	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", "sensor_temp_c", "true_temp_c", "utilization", "mem_active"}); err != nil {
		return err
	}
	truePts := res.TrueTemps.Points()
	utilPts := res.Utilization.Points()
	memPts := res.MemActive.Points()
	for i, p := range res.SensorTemps.Points() {
		row := []string{
			strconv.FormatFloat(p.T, 'f', 1, 64),
			strconv.FormatFloat(p.V, 'f', 3, 64),
			strconv.FormatFloat(truePts[i].V, 'f', 3, 64),
			strconv.FormatFloat(utilPts[i].V, 'f', 4, 64),
			strconv.FormatFloat(memPts[i].V, 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}

	log.Printf("case %s: %d VMs, %d fans, ambient %.1f°C", c.Name, len(c.VMs), c.FanCount, c.AmbientC)
	log.Printf("psi_stable (Eq. 1, t_break=%.0fs) = %.2f°C", core.DefaultTBreakS, stable)
	fmt.Fprintln(os.Stderr)
	return nil
}
