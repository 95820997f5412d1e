// Command darshan-parser dumps a Darshan binary log in the style of the
// original darshan-parser utility: job header, name records, and per-file
// counters for the POSIX and STDIO modules.
//
// Merged cluster logs (nprocs > 1) are detected from the header: records
// shared across ranks (rank −1, Darshan's shared-record convention) print
// in their own section ahead of the per-rank records.
//
//	darshan-parser [-total] [-perf] <darshan.log>
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/darshan"
)

var errUsage = errors.New("usage: darshan-parser [-total] [-perf] <darshan.log>")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("darshan-parser", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	total := fs.Bool("total", false, "print aggregated counters only (like darshan-parser --total)")
	perf := fs.Bool("perf", false, "print derived performance summary (like darshan-parser --perf)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(w, errUsage.Error())
			fs.SetOutput(w)
			fs.PrintDefaults()
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := darshan.ReadLog(f)
	if err != nil {
		return err
	}

	shared := 0
	for i := range log.Posix {
		if log.Posix[i].Rank == darshan.MergedRank {
			shared++
		}
	}
	for i := range log.Stdio {
		if log.Stdio[i].Rank == darshan.MergedRank {
			shared++
		}
	}

	fmt.Fprintf(w, "# darshan log version: %d\n", darshan.LogVersion)
	fmt.Fprintf(w, "# nprocs: %d\n", log.NProcs)
	fmt.Fprintf(w, "# run time: %.4f s\n", log.JobEnd)
	if log.Merged {
		fmt.Fprintf(w, "# merged cluster log: %d records shared across ranks (rank -1)\n", shared)
	}
	fmt.Fprintf(w, "# POSIX module records: %d\n", len(log.Posix))
	fmt.Fprintf(w, "# STDIO module records: %d\n\n", len(log.Stdio))

	if *perf {
		fmt.Fprint(w, darshan.Summarize(log).Render())
		return nil
	}
	if *total {
		printTotals(w, log)
		return nil
	}

	// Record order: shared records (rank −1) first, then per-rank records
	// by rank; names break all remaining ties. Single-process logs have
	// one rank, so this is the plain name order they always had.
	sortRecords(log)
	if log.Merged {
		fmt.Fprintln(w, "# shared records (rank -1)")
		printModules(w, log, func(rank int) bool { return rank == darshan.MergedRank })
		fmt.Fprintln(w, "# per-rank records")
		printModules(w, log, func(rank int) bool { return rank != darshan.MergedRank })
		return nil
	}
	printModules(w, log, func(int) bool { return true })
	return nil
}

// rankOrder maps ranks to sort position: shared records first.
func rankOrder(rank int) int {
	if rank == darshan.MergedRank {
		return -1 << 30
	}
	return rank
}

func sortRecords(log *darshan.Log) {
	sort.Slice(log.Posix, func(i, j int) bool {
		a, b := &log.Posix[i], &log.Posix[j]
		if a.Rank != b.Rank {
			return rankOrder(a.Rank) < rankOrder(b.Rank)
		}
		return log.Names[a.ID] < log.Names[b.ID]
	})
	sort.Slice(log.Stdio, func(i, j int) bool {
		a, b := &log.Stdio[i], &log.Stdio[j]
		if a.Rank != b.Rank {
			return rankOrder(a.Rank) < rankOrder(b.Rank)
		}
		return log.Names[a.ID] < log.Names[b.ID]
	})
}

// printModules prints the counter lines of every record whose rank the
// filter admits, POSIX module first, in the order sortRecords left.
func printModules(w io.Writer, log *darshan.Log, admit func(rank int) bool) {
	for i := range log.Posix {
		rec := &log.Posix[i]
		if !admit(rec.Rank) {
			continue
		}
		name := log.Names[rec.ID]
		for c := darshan.PosixCounter(0); c < darshan.PosixNumCounters; c++ {
			fmt.Fprintf(w, "POSIX\t%d\t%d\t%s\t%d\t%s\n", rec.Rank, rec.ID, c, rec.Counters[c], name)
		}
		for c := darshan.PosixFCounter(0); c < darshan.PosixNumFCounters; c++ {
			fmt.Fprintf(w, "POSIX\t%d\t%d\t%s\t%.6f\t%s\n", rec.Rank, rec.ID, c, rec.FCounters[c], name)
		}
	}
	for i := range log.Stdio {
		rec := &log.Stdio[i]
		if !admit(rec.Rank) {
			continue
		}
		name := log.Names[rec.ID]
		for c := darshan.StdioCounter(0); c < darshan.StdioNumCounters; c++ {
			fmt.Fprintf(w, "STDIO\t%d\t%d\t%s\t%d\t%s\n", rec.Rank, rec.ID, c, rec.Counters[c], name)
		}
		for c := darshan.StdioFCounter(0); c < darshan.StdioNumFCounters; c++ {
			fmt.Fprintf(w, "STDIO\t%d\t%d\t%s\t%.6f\t%s\n", rec.Rank, rec.ID, c, rec.FCounters[c], name)
		}
	}
}

func printTotals(w io.Writer, log *darshan.Log) {
	for c := darshan.PosixCounter(0); c < darshan.PosixNumCounters; c++ {
		fmt.Fprintf(w, "total_%s: %d\n", c, log.TotalPosix(c))
	}
	for c := darshan.StdioCounter(0); c < darshan.StdioNumCounters; c++ {
		fmt.Fprintf(w, "total_%s: %d\n", c, log.TotalStdio(c))
	}
}
