package main

import (
	"strings"
	"testing"
)

// TestFlagValidation pins the CLI's rejection of meaningless flag
// combinations: every mode must either honour a flag or refuse it
// loudly — a silently ignored flag reads as accepted and misleads the
// operator (the -merge -cache case shipped that way once).
func TestFlagValidation(t *testing.T) {
	reject := []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		// Mode exclusivity.
		{"merge+shard", []string{"-merge", "d", "-shard", "1/2"}, "mutually exclusive"},
		{"merge+coordinate", []string{"-merge", "d", "-coordinate", ":0"}, "mutually exclusive"},
		{"shard+worker", []string{"-shard", "1/2", "-out", "d", "-worker", ":0"}, "mutually exclusive"},
		{"coordinate+worker", []string{"-coordinate", ":0", "-worker", ":0"}, "mutually exclusive"},
		{"worker+cache-gc", []string{"-worker", ":0", "-cache-gc", "abc"}, "mutually exclusive"},

		// -merge executes nothing.
		{"merge+cache", []string{"-merge", "d", "-cache", "c"}, "-cache"},
		{"merge+workers", []string{"-merge", "d", "-workers", "4"}, "-workers"},
		{"merge+progress", []string{"-merge", "d", "-progress"}, "-progress"},
		{"merge+out", []string{"-merge", "d", "-out", "o"}, "-out"},

		// -shard writes files, not tables.
		{"shard without out", []string{"-shard", "1/2"}, "-out"},
		{"shard+csv", []string{"-shard", "1/2", "-out", "d", "-csv", "c"}, "-csv"},

		// The coordinator schedules; it executes no trials and writes no
		// shard files.
		{"coordinate+workers", []string{"-coordinate", ":0", "-workers", "4"}, "-workers"},
		{"coordinate+out", []string{"-coordinate", ":0", "-out", "d"}, "-out"},

		// Workers stream results; they print no tables.
		{"worker+csv", []string{"-worker", ":0", "-csv", "c"}, "-csv"},
		{"worker+out", []string{"-worker", ":0", "-out", "d"}, "-out"},

		// -cache-gc is pure maintenance.
		{"cache-gc without cache", []string{"-cache-gc", "abc"}, "-cache"},
		{"cache-gc+workers", []string{"-cache-gc", "abc", "-cache", "c", "-workers", "2"}, "no trials"},
		{"cache-gc+progress", []string{"-cache-gc", "abc", "-cache", "c", "-progress"}, "no trials"},
		{"cache-gc+csv", []string{"-cache-gc", "abc", "-cache", "c", "-csv", "x"}, "no trials"},

		// Plain runs.
		{"out without shard", []string{"-out", "d"}, "-shard"},

		// -cache is the one resume mechanism: the shard-file -resume and
		// the coordinator's -drain-timeout are unknown in every mode.
		{"resume without shard", []string{"-resume"}, "not defined: -resume"},
		{"merge+resume", []string{"-merge", "d", "-resume"}, "not defined: -resume"},
		{"coordinate+resume", []string{"-coordinate", ":0", "-resume"}, "not defined: -resume"},
		{"worker+resume", []string{"-worker", ":0", "-resume"}, "not defined: -resume"},
		{"drain-timeout on worker", []string{"-worker", ":0", "-drain-timeout", "5s"}, "not defined: -drain-timeout"},
		{"drain-timeout without out", []string{"-coordinate", ":0", "-drain-timeout", "5s"}, "not defined: -drain-timeout"},
		{"negative drain-timeout", []string{"-coordinate", ":0", "-drain-timeout", "-1s"}, "not defined: -drain-timeout"},

		// Coordinator tunables outside -coordinate.
		{"chunk without coordinate", []string{"-chunk", "4"}, "-coordinate"},
		{"lease-ttl without coordinate", []string{"-lease-ttl", "5s"}, "-coordinate"},
		{"chunk on worker", []string{"-worker", ":0", "-chunk", "4"}, "-coordinate"},
		{"zero chunk", []string{"-coordinate", ":0", "-chunk", "0"}, "-chunk"},
		{"negative lease", []string{"-coordinate", ":0", "-lease-ttl", "-1s"}, "-lease-ttl"},

		// Robustness tunables outside their modes.
		{"auth-key on run", []string{"-auth-key", "k"}, "-coordinate or -worker"},
		{"auth-key on shard", []string{"-shard", "1/2", "-out", "d", "-auth-key", "k"}, "-coordinate or -worker"},
		{"dial-retries on run", []string{"-dial-retries", "5"}, "-worker"},
		{"dial-retries on coordinator", []string{"-coordinate", ":0", "-dial-retries", "5"}, "-worker"},
		{"chaos on worker", []string{"-worker", ":0", "-chaos", "7"}, "-coordinate"},
		{"chaos on run", []string{"-chaos", "7"}, "-coordinate"},

		// Observability flags outside their modes.
		{"status-addr on run", []string{"-status-addr", ":0"}, "-coordinate or -worker"},
		{"status-addr on shard", []string{"-shard", "1/2", "-out", "d", "-status-addr", ":0"}, "-coordinate or -worker"},
		{"status-addr on merge", []string{"-merge", "d", "-status-addr", ":0"}, "-coordinate or -worker"},
		{"pprof without status-addr", []string{"-coordinate", ":0", "-pprof"}, "-status-addr"},
		{"pprof on run", []string{"-pprof"}, "-status-addr"},
		{"events on run", []string{"-events", "f"}, "-coordinate, -worker, or -cache-gc"},
		{"events on merge", []string{"-merge", "d", "-events", "f"}, "-coordinate, -worker, or -cache-gc"},
		{"events on shard", []string{"-shard", "1/2", "-out", "d", "-events", "f"}, "-coordinate, -worker, or -cache-gc"},
		{"dump-metrics on merge", []string{"-merge", "d", "-dump-metrics"}, "-dump-metrics"},

		// -cache-max-bytes and -events-max-bytes are unknown in every
		// mode: a cache entry leaves only through -cache-gc, and the
		// event log is one file.
		{"cache-max-bytes without cache", []string{"-cache-max-bytes", "1024"}, "not defined: -cache-max-bytes"},
		{"negative cache-max-bytes", []string{"-cache", "c", "-cache-max-bytes", "-1"}, "not defined: -cache-max-bytes"},
		{"cache-max-bytes on cache-gc", []string{"-cache-gc", "abc", "-cache", "c", "-cache-max-bytes", "1024"}, "not defined: -cache-max-bytes"},
		{"events-max-bytes without events", []string{"-coordinate", ":0", "-events-max-bytes", "1024"}, "not defined: -events-max-bytes"},
		{"zero events-max-bytes", []string{"-coordinate", ":0", "-events", "f", "-events-max-bytes", "0"}, "not defined: -events-max-bytes"},

		// Tracing: the trace file belongs to a plain run or the
		// coordinator; workers are enabled over the wire.
		{"trace on worker", []string{"-worker", ":0", "-trace", "t.json"}, "-trace"},
		{"trace on merge", []string{"-merge", "d", "-trace", "t.json"}, "-trace"},
		{"trace on shard", []string{"-shard", "1/2", "-out", "d", "-trace", "t.json"}, "-trace"},
		{"trace on cache-gc", []string{"-cache-gc", "abc", "-cache", "c", "-trace", "t.json"}, "-trace"},

		// -trace-bfs is unknown in every mode: no trial runs the
		// parallel BFS whose levels it sampled.
		{"trace-bfs without trace", []string{"-trace-bfs", "4"}, "not defined: -trace-bfs"},
		{"trace-bfs on coordinator without trace", []string{"-coordinate", ":0", "-trace-bfs", "4"}, "not defined: -trace-bfs"},
		{"negative trace-bfs", []string{"-trace", "t.json", "-trace-bfs", "-1"}, "not defined: -trace-bfs"},
		{"trace-bfs with trace", []string{"-run", "E4", "-trace", "t.json", "-trace-bfs", "4"}, "not defined: -trace-bfs"},
		{"worker+trace-bfs", []string{"-worker", "host:9131", "-trace-bfs", "8"}, "not defined: -trace-bfs"},

		// -scale must name a workload the plans can build: no NaN or
		// infinity, nothing at or below zero, and no size past the
		// int32 vertex ids.
		{"NaN scale", []string{"-scale", "NaN"}, "-scale"},
		{"infinite scale", []string{"-scale", "Inf"}, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"huge scale", []string{"-scale", "1e300"}, "-scale"},
		{"scale past the vertex ids", []string{"-scale", "65536"}, "-scale"},
		{"scale on worker", []string{"-worker", ":0", "-scale", "-0.5"}, "-scale"},
	}
	for _, tc := range reject {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args)
			if err == nil {
				t.Fatalf("parseOptions(%v) accepted a meaningless combination", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}

	accept := [][]string{
		{},
		{"-run", "E1,E4", "-scale", "0.1", "-seed", "7", "-workers", "4", "-progress", "-csv", "c", "-cache", "d"},
		{"-shard", "2/5", "-out", "d", "-cache", "c", "-progress", "-workers", "2"},
		{"-merge", "d", "-csv", "c"},
		{"-coordinate", ":9131", "-chunk", "16", "-lease-ttl", "30s", "-progress", "-csv", "c"},
		{"-worker", "host:9131", "-workers", "8", "-cache", "c", "-progress"},
		{"-cache-gc", "abc123", "-cache", "c"},
		{"-coordinate", ":9131", "-auth-key", "s3cret", "-cache", "c"},
		{"-coordinate", ":9131", "-cache", "c"},
		{"-coordinate", ":9131", "-chaos", "1889"},
		{"-worker", "host:9131", "-auth-key", "s3cret", "-dial-retries", "-1"},
		{"-run", "E4", "-cache", "c"},
		{"-shard", "1/1", "-out", "d", "-cache", "c"},
		{"-coordinate", ":9131", "-status-addr", ":9200", "-pprof", "-events", "f", "-dump-metrics"},
		{"-worker", "host:9131", "-status-addr", ":9201", "-events", "f", "-dump-metrics"},
		{"-cache-gc", "abc123", "-cache", "c", "-events", "f", "-dump-metrics"},
		{"-run", "E4", "-dump-metrics"},
		{"-run", "E4", "-trace", "t.json"},
		{"-coordinate", ":9131", "-trace", "t.json"},
		{"-run", "E5", "-scale", "65535.5"},
		{"-coordinate", ":9131", "-events", "f"},
	}
	for _, args := range accept {
		if _, err := parseOptions(args); err != nil {
			t.Errorf("parseOptions(%v) rejected a valid combination: %v", args, err)
		}
	}
}

// TestFlagModeSelection pins the flag → mode mapping.
func TestFlagModeSelection(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{}, "run"},
		{[]string{"-shard", "1/2", "-out", "d"}, "shard"},
		{[]string{"-merge", "d"}, "merge"},
		{[]string{"-coordinate", ":0"}, "coordinate"},
		{[]string{"-worker", ":0"}, "worker"},
		{[]string{"-cache-gc", "abc", "-cache", "c"}, "cache-gc"},
	}
	for _, tc := range cases {
		o, err := parseOptions(tc.args)
		if err != nil {
			t.Errorf("parseOptions(%v): %v", tc.args, err)
			continue
		}
		if got := o.mode(); got != tc.want {
			t.Errorf("mode(%v) = %q, want %q", tc.args, got, tc.want)
		}
	}
}
