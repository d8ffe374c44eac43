package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/summary"
	"repro/internal/tpcds"
	"repro/internal/verify"
)

// instance is one client site: a stored client database and the query
// workload captured on it. A run sets up several, each from its own seeds
// drawn from the run seed, because the vendor build's cost depends strongly
// on which workload and data it meets: pooling instances keeps a run's
// figures representative instead of an accident of one seed.
type instance struct {
	dataSeed, workSeed, orderSeed int64
	db                            *engine.Database
	captured                      []string
}

// instanceSeeds derives n instances' seeds from the run seed.
func instanceSeeds(seed int64, n int) []instance {
	r := rand.New(rand.NewSource(seed))
	out := make([]instance, n)
	for i := range out {
		out[i] = instance{dataSeed: r.Int63(), workSeed: r.Int63(), orderSeed: r.Int63()}
	}
	return out
}

// generate builds the instance's client database and captured query list.
func (in *instance) generate(cfg config) error {
	db, err := tpcds.GenerateDatabase(tpcds.Schema(cfg.sf), in.dataSeed)
	if err != nil {
		return fmt.Errorf("generating client database: %w", err)
	}
	in.db = db
	in.captured = tpcds.Workload(cfg.captured, in.workSeed)
	return nil
}

// pipelineRun is one pass of the paper's offline flow over an instance,
// with a span around each public call.
type pipelineRun struct {
	sumJSON []byte
	sum     *summary.Database
	pkg     *core.TransferPackage
	rep     *summary.BuildReport

	total    time.Duration // client DB to decoded, validated summary
	capture  time.Duration // core.CaptureClient
	pkgCodec time.Duration // TransferPackage.Encode + core.DecodePackage
	build    time.Duration // core.BuildFromPackage
	sumCodec time.Duration // Database.EncodeJSON + summary.DecodeJSON + validation
	// extract times a separate preprocess.Extract call on the same package,
	// made after the pipeline (traced runs only), so the build span can be
	// split without timing inside the program.
	extract time.Duration
}

// runPipeline runs capture → package round trip → build → summary round
// trip, the vendor flow `hydra client` + `hydra vendor` + `hydra serve`
// loading perform.
func runPipeline(in *instance, traced bool) (*pipelineRun, error) {
	p := &pipelineRun{}
	t0 := time.Now()
	pkg, err := core.CaptureClient(in.db, in.captured, core.CaptureOptions{})
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	t1 := time.Now()
	var pb bytes.Buffer
	if err := pkg.Encode(&pb); err != nil {
		return nil, fmt.Errorf("encoding transfer package: %w", err)
	}
	if p.pkg, err = core.DecodePackage(&pb); err != nil {
		return nil, err
	}
	t2 := time.Now()
	sum, rep, err := core.BuildFromPackage(p.pkg, summary.DefaultBuildOptions())
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	p.rep = rep
	t3 := time.Now()
	var sb bytes.Buffer
	if err := sum.EncodeJSON(&sb); err != nil {
		return nil, fmt.Errorf("encoding summary: %w", err)
	}
	p.sumJSON = sb.Bytes()
	if p.sum, err = decodeSummary(p.sumJSON); err != nil {
		return nil, err
	}
	t4 := time.Now()
	p.capture, p.pkgCodec, p.build, p.sumCodec, p.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t4.Sub(t0)
	if traced {
		te := time.Now()
		if _, err := preprocess.Extract(p.pkg.Schema, p.pkg.Workload); err != nil {
			return nil, fmt.Errorf("extract: %w", err)
		}
		p.extract = time.Since(te)
	}
	return p, nil
}

// decodeSummary reads summary JSON with the checks `hydra serve` applies
// when it loads a summary file.
func decodeSummary(b []byte) (*summary.Database, error) {
	sum, err := summary.DecodeJSON(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if sum.Schema == nil {
		return nil, fmt.Errorf("summary has no schema")
	}
	if err := sum.Schema.Validate(); err != nil {
		return nil, err
	}
	if err := sum.Validate(); err != nil {
		return nil, err
	}
	return sum, nil
}

// Fidelity gates, the paper's volumetric-similarity claims as TestFull131
// checks them.
const (
	minExact    = 0.9
	minWithin10 = 0.99
)

// fidelity pools verification over a run's instances.
type fidelity struct {
	edges, exact, within10 float64
	relErrSum              float64 // mean relative error × edges, summed
	verifyMS               []float64
	// misses lists the instances that miss a gate on their own.
	misses []string
}

// check verifies an instance's summary against its client annotations and
// pools the figures. Each check is one checked operation of the run.
func (f *fidelity) check(p *pipelineRun, res *result) error {
	t := time.Now()
	rep, err := verify.Verify(core.RegenDatabase(p.sum, 0), p.pkg.Workload)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	f.verifyMS = append(f.verifyMS, durMS(time.Since(t)))
	n := float64(len(rep.Edges))
	exact, w10 := rep.SatisfiedWithin(0), rep.SatisfiedWithin(0.1)
	f.edges += n
	f.exact += exact * n
	f.within10 += w10 * n
	f.relErrSum += rep.MeanRelErr() * n
	res.attempted++
	if exact < minExact || w10 < minWithin10 {
		worst := rep.WorstEdges(1)[0]
		f.misses = append(f.misses, fmt.Sprintf("instance %d: exact %.4f, within 10%% %.4f; worst edge %s expected %d got %d",
			len(f.verifyMS)-1, exact, w10, worst.Path, worst.Expected, worst.Actual))
	}
	return nil
}

// report sets the pooled fidelity figures and applies the gates to them:
// the run's workload is the union of its instances' captured workloads. An
// instance that misses a gate on its own is reported, and counted in
// verify.gate_misses, without failing the run.
func (f *fidelity) report(res *result, w io.Writer) {
	n := len(f.verifyMS)
	exact, w10 := f.exact/f.edges, f.within10/f.edges
	res.set("fidelity_exact", exact, int(f.edges))
	res.set("verify.mean_rel_err", f.relErrSum/f.edges, int(f.edges))
	res.set("verify.verify_ms", mean(f.verifyMS), n)
	res.set("verify.gate_misses", float64(len(f.misses)), n)
	for _, m := range f.misses {
		fmt.Fprintf(w, "GATE MISS (single instance): %s\n", m)
	}
	if exact < minExact || w10 < minWithin10 {
		res.failed++
		res.fail("fidelity below the paper's gates: exact %.4f (want >= %.2f), within 10%% %.4f (want >= %.2f)", exact, minExact, w10, minWithin10)
	}
}

// vendorLayers accumulates the vendor path's per-layer spans and counts over
// a run's pipelines.
type vendorLayers struct {
	n                                              int
	capture, pkgCodec, extract, build, sumCodec    float64
	partition, solve, solveItem, solveSales, align float64
	vars, pivots, regions, rows, resid             float64
	bytes                                          float64
}

func (v *vendorLayers) add(p *pipelineRun) {
	v.n++
	v.capture += durMS(p.capture)
	v.pkgCodec += durMS(p.pkgCodec)
	v.extract += durMS(p.extract)
	v.build += durMS(p.build)
	v.sumCodec += durMS(p.sumCodec)
	v.bytes += float64(p.rep.SummaryBytes)
	for _, r := range p.rep.Relations {
		v.partition += durMS(r.PartitionTime)
		v.solve += durMS(r.SolveTime)
		v.align += durMS(r.AlignTime)
		switch r.Table {
		case "item":
			v.solveItem += durMS(r.SolveTime)
		case "store_sales":
			v.solveSales += durMS(r.SolveTime)
		}
		v.vars += float64(r.LPVars)
		v.pivots += float64(r.Pivots)
		v.regions += float64(r.Regions)
		v.rows += float64(r.SummaryRows)
		v.resid += float64(r.SumAbsResidual)
	}
}

// report sets the per-pipeline means. summary.other_ms is the build span
// not covered by extract, partition, solve and align: the sum rule of the
// vendor path.
func (v *vendorLayers) report(res *result) {
	k := float64(v.n)
	set := func(name string, total float64) { res.set(name, total/k, v.n) }
	set("core.capture_ms", v.capture)
	set("core.package_codec_ms", v.pkgCodec)
	set("preprocess.extract_ms", v.extract)
	set("summary.partition_ms", v.partition)
	set("summary.solve_ms", v.solve)
	set("summary.solve_ms.item", v.solveItem)
	set("summary.solve_ms.store_sales", v.solveSales)
	set("summary.align_ms", v.align)
	set("summary.other_ms", v.build-v.extract-v.partition-v.solve-v.align)
	set("summary.codec_ms", v.sumCodec)
	set("lp.vars", v.vars)
	set("lp.pivots", v.pivots)
	set("region.regions", v.regions)
	set("summary.rows", v.rows)
	set("lp.sum_abs_residual", v.resid)
	set("summary_bytes", v.bytes)
}
