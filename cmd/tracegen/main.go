// Command tracegen generates a calibrated synthetic job trace for one of
// the paper's five systems — or a synthetic workload fitted to your own
// trace — and writes it as SWF or CSV.
//
// Usage:
//
//	tracegen -system BlueWaters -days 10 -seed 1 -format swf -o bw.swf
//	tracegen -fit mytrace.swf -o synthetic.swf   # model-and-regenerate
//	tracegen -system Mira -days 4000 -o huge.swf
//
// The generator pipes jobs straight into the writer instead of
// materializing the trace: memory stays bounded by the generator's
// shadow-scheduler backlog, so multi-million-job traces write in a few
// hundred megabytes of heap regardless of length. The bytes are those of
// writing the materialized trace (Profile.Generate is a drain of the same
// stream).
package main

import (
	"flag"
	"fmt"
	"os"

	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

func main() {
	var (
		system = flag.String("system", "BlueWaters", "system profile: Mira, Theta, BlueWaters, Philly, Helios")
		days   = flag.Float64("days", 10, "trace duration in days")
		seed   = flag.Uint64("seed", 1, "generator seed")
		format = flag.String("format", "swf", "output format: swf or csv")
		out    = flag.String("o", "", "output file (default stdout)")
		fit    = flag.String("fit", "", "fit a profile to this SWF trace and generate from it")
		parts  = flag.Int("partitions", 0, "override the profile's virtual-cluster/partition count (0 = profile default)")
	)
	flag.Parse()
	if err := run(*system, *days, *seed, *format, *out, *fit, *parts); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(system string, days float64, seed uint64, format, out, fit string, parts int) error {
	var p *synth.Profile
	var err error
	if fit != "" {
		f, err := os.Open(fit)
		if err != nil {
			return err
		}
		src, err := trace.ReadSWF(f)
		f.Close()
		if err != nil {
			return err
		}
		p, err = synth.FromTrace(src)
		if err != nil {
			return err
		}
		system = "fit:" + src.System.Name
	} else {
		p, err = synth.ByName(system, days)
		if err != nil {
			return err
		}
	}
	if parts != 0 {
		if parts < 1 || parts > p.Sys.TotalCores {
			return fmt.Errorf("-partitions %d out of range: the %s system has %d cores, so the partition count must be in [1, %d]",
				parts, p.Sys.Name, p.Sys.TotalCores, p.Sys.TotalCores)
		}
		p.Sys.VirtualClusters = parts
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format != "swf" && format != "csv" {
		return fmt.Errorf("unknown format %q (want swf or csv)", format)
	}
	src, err := p.Stream(seed)
	if err != nil {
		return err
	}
	var n int
	if format == "swf" {
		n, err = trace.WriteSWFStream(w, src)
	} else {
		n, err = trace.WriteCSVStream(w, src)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d jobs for %s (%.1f days, seed %d)\n",
		n, system, p.Days, seed)
	return nil
}
