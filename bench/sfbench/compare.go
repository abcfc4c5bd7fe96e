package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// runCompare implements `sfbench compare base.jsonl change.jsonl`. For
// every workload and metric present on both sides it prints each
// side's median and quartiles, how many pairs the change won (the i-th
// record of each file form a pair), and a verdict:
//
//   - improved: the change wins at least 9 of every 10 pairs and the
//     medians differ by more than the base's interquartile range;
//   - unresolved: an end-to-end metric whose spread on either side,
//     as a share of its median, is wider than its bound;
//   - worse: an end-to-end metric whose change median is worse than
//     the base median by more than its bound;
//   - regressed: a per-layer metric that loses by the improved rule;
//   - same: none of these.
//
// It exits nonzero when any end-to-end metric is worse.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sfbench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two record files, base and change; got %d arguments", fs.NArg())
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-15s %-26s %-6s %-32s %-32s %-6s %s\n", "workload", "metric", "unit",
		"base median [q1, q3] (n)", "change median [q1, q3] (n)", "wins", "verdict")
	worse := 0
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, c := base.values(w.Name, m.Name), change.values(w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(m, b, c)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-15s %-26s %-6s %-32s %-32s %-6s %s\n", w.Name, m.Name, m.Unit,
				summary(b), summary(c), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	for _, side := range []*recordSet{base, change} {
		if side.incorrect > 0 {
			fmt.Fprintf(stdout, "%s: %d incorrect records left out\n", side.path, side.incorrect)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound", worse)
	}
	return nil
}

type comparison struct {
	wins, pairs int
	verdict     string
}

func verdict(m metricSpec, base, change []float64) comparison {
	better := func(c, b float64) bool {
		if m.Better == "higher" {
			return c > b
		}
		return c < b
	}
	v := comparison{pairs: min(len(base), len(change))}
	losses := 0 // ties count for neither side
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(change[i], base[i]):
			v.wins++
		case better(base[i], change[i]):
			losses++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(change)
	clear := math.Abs(cmed-bmed) > bq3-bq1
	v.verdict = "same"
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && clear && better(cmed, bmed):
		v.verdict = "improved"
	case m.Bound == 0:
		if v.pairs > 0 && 10*losses >= 9*v.pairs && clear && better(bmed, cmed) {
			v.verdict = "regressed"
		}
	case bmed != 0 && cmed != 0 && ((bq3-bq1)/math.Abs(bmed) > m.Bound || (cq3-cq1)/math.Abs(cmed) > m.Bound):
		v.verdict = "unresolved"
	case bmed != 0 && better(bmed, cmed) && math.Abs(cmed-bmed)/math.Abs(bmed) > m.Bound:
		v.verdict = "worse"
	}
	return v
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

// recordSet is one JSONL file of records.
type recordSet struct {
	path      string
	records   []record
	incorrect int
}

func readRecords(path string) (*recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &recordSet{path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct {
			s.incorrect++
			continue
		}
		s.records = append(s.records, r)
	}
	return s, sc.Err()
}

// values lists one metric of one workload across the set's records, in
// file order.
func (s *recordSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.records {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}
