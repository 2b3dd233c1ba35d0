// Command perfbench is the store's benchmark: one seeded workload per
// run, driven as users drive the store, with every read checked against
// the generator's model. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it runs the workload untraced and then traced and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// NOTES.md describes the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: ingest, read_mostly or remote_sync")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	work := flag.String("work", ".bench_build", "directory for the stores (removed after the run) and the span files")
	corruptRead := flag.Int64("corrupt-read", 0, "flip a byte in the n-th checked read (n > 0) to prove the checks fail the run")
	rate := flag.Float64("rate", 0, "override remote_sync's offered rate in ops/s (capacity calibration)")
	flag.Parse()

	sp, ok := findSpec(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|read_mostly|remote_sync --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *rate > 0 {
		sp.rate = *rate
	}
	if err := run(sp, *seed, *seconds, *trace == 1, *work, *corruptRead); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(sp spec, seed uint64, seconds int, traced bool, work string, corruptRead int64) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "data-"+sp.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	prov := provenance(sp, seed, seconds, traced, dir)
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance", string(pj))

	var corrupt *atomic.Int64
	if corruptRead > 0 {
		corrupt = &atomic.Int64{}
		corrupt.Store(corruptRead)
	}
	window := time.Duration(seconds) * time.Second
	var res *phase
	out := output{Metrics: map[string]metric{}}
	if !traced {
		res, err = runPhase(sp, seed, window, false, filepath.Join(dir, "run"), setups, corrupt)
		if err != nil {
			return err
		}
		for _, m := range endToEnd(res) {
			out.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		base, err := runPhase(sp, seed, window, false, filepath.Join(dir, "untraced"), 1, corrupt)
		if err != nil {
			return err
		}
		res, err = runPhase(sp, seed, window, true, filepath.Join(dir, "traced"), 1, corrupt)
		if err != nil {
			return err
		}
		for _, m := range perLayer(res, base) {
			out.Metrics[m.name] = metric{m.value, m.unit}
		}
		if err := writeSpans(res, filepath.Join(work, "spans-"+sp.name+".tsv")); err != nil {
			return err
		}
		res.t.attempted += base.t.attempted
		res.t.failed += base.t.failed
		res.t.errs = append(res.t.errs, base.t.errs...)
	}
	out.Attempted = res.t.attempted
	out.Failed = res.t.failed
	out.Correct = res.t.failed == 0
	report(res, out.Metrics)
	j, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(j))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

type named struct {
	name  string
	value float64
	unit  string
}

// report prints every metric one per line, then one line per operation
// kind the workload ran: its sample count, median and tail latency (the
// tail by the rule of opHist.tail, with the percentile it stands for and
// the whole window's tail beside it), then any failures on stderr.
func report(res *phase, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for k := opKind(0); k < numOps; k++ {
		h := &res.t.lat[k]
		if h.all.n == 0 {
			continue
		}
		fmt.Printf("op %-5s n=%d %s_p50_us=%.4f %s_p99_us=%.4f (median of %d slice tails at p%.2f; whole window p%.2f %.4f us)\n",
			opNames[k], h.all.n, opNames[k], h.all.quantile(0.5)/1e3, opNames[k], h.tail()/1e3,
			slices, 100*tailQ(h.all.n/slices), 100*tailQ(h.all.n), h.all.tail()/1e3)
	}
	fmt.Printf("failed_frac %.6f (%d of %d ops; txn conflicts %d are outcomes, not failures)\n",
		ratio(float64(res.t.failed), float64(res.t.attempted)), res.t.failed, res.t.attempted, res.t.conflicts)
	for _, e := range res.t.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
}

// writeSpans writes the traced run's spans, one per line:
// layer, name, id, start_ns, end_ns.
func writeSpans(res *phase, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tname\tid\tstart_ns\tend_ns")
	layer := "core.DB" // a traced in-process run drives the engine directly
	if res.remote {
		layer = "clsmclient"
	}
	for _, s := range res.t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d:%d\t%d\t%d\n", layer, opNames[s.kind], s.key, s.version, s.start, s.end)
	}
	for _, e := range res.engine {
		name := "read"
		if e.write {
			name = "write"
		}
		ids := make([]string, len(e.ids))
		for i, id := range e.ids {
			if e.write {
				ids[i] = fmt.Sprintf("%d:%d", id>>32, id&(1<<32-1))
			} else {
				ids[i] = fmt.Sprint(id)
			}
		}
		fmt.Fprintf(w, "server.Engine\t%s\t%s\t%d\t%d\n", name, strings.Join(ids, ","), e.start, e.end)
	}
	for _, s := range res.syncSpans {
		fmt.Fprintf(w, "storage.FS\tsync\t-\t%d\t%d\n", s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %s (%d client, %d engine, %d storage sync)\n", path, len(res.t.spans), len(res.engine), len(res.syncSpans))
	return nil
}
