package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runAll runs every workload in its own child process, so no workload's
// heap or caches leak into another's numbers, and prints each one's metrics
// with units, the attempted and failed counts, and every output check.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	status := 0
	for _, w := range []string{"paper", "fleet", "serve", "serve-rebuild"} {
		args := []string{"--workload", w, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--out", cfg.outDir}
		if cfg.tiny {
			args = append(args, "--tiny")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w, err)
			status = 1
			continue
		}
		rec, res, err := parseRun(buf.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w, err)
			status = 1
			continue
		}
		fmt.Fprintf(tw, "%s\tattempted %d\tfailed %d\tcorrect %v\tnproc %d\tcommit %s\n",
			w, res.Attempted, res.Failed, res.Correct, rec.NProc, rec.Commit)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			fmt.Fprintf(tw, "\t%s\t%.6g\t%s\n", name, m.Value, m.Unit)
		}
		for _, c := range rec.Checks {
			fmt.Fprintf(tw, "\tcheck %s\tok=%v\t%s\n", c.Name, c.OK, c.Detail)
		}
		if !res.Correct {
			status = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return status
}

// parseRun reads a workload's provenance record and result line.
func parseRun(out []byte) (record, resultJSON, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	var rec record
	var res resultJSON
	if len(lines) < 2 {
		return rec, res, fmt.Errorf("want a record and a result line, got %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return rec, res, fmt.Errorf("record: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return rec, res, fmt.Errorf("result: %w", err)
	}
	return rec, res, nil
}
