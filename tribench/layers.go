package main

import "tripoline/internal/engine"

// layerMetrics derives the per-layer metrics of a traced run. Timings
// are medians over the replay's calls; engine counts are means over the
// first GOMAXPROCS=1 pass. A metric whose operation the workload's
// replay never performs (deletions on the query workloads) reads 0.
func layerMetrics(h *httpOutcome, tr *timedReplay, cp countPass, exact bool) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	st := durations(tr.spans)
	self := selfTimes(tr.spans)
	// child[i] is the server span a traced client span i caused.
	child := map[int]int{}
	for i, s := range tr.spans {
		if s.Name == "server.query_handle" || s.Name == "server.batch_handle" {
			child[s.Parent] = i
		}
	}

	// generator
	put("gen.late_p99_ms", ms(h.lateP99), "ms")
	put("gen.conns", float64(h.conns), "count")

	// server and client
	var transport, qself, bself, bytes []float64
	for _, r := range tr.reads {
		bytes = append(bytes, float64(r.bytes))
		if s, ok := child[r.clientSpan]; ok {
			transport = append(transport, ms(self[r.clientSpan]))
			qself = append(qself, ms(tr.spans[s].dur()-r.coreTime))
		}
	}
	for _, w := range tr.writes {
		if s, ok := child[w.clientSpan]; ok {
			bself = append(bself, ms(tr.spans[s].dur()-w.apply))
		}
	}
	put("client.transport_ms", median(transport), "ms")
	put("server.query_handle_ms", st.median("server.query_handle"), "ms")
	put("server.query_self_ms", median(qself), "ms")
	put("server.query_bytes", median(bytes), "bytes")
	put("server.batch_self_ms", median(bself), "ms")
	put("trace.overhead_ms", ms(tr.overhead), "ms")

	// core
	var fullAll []float64
	for _, p := range problems {
		fullAll = append(fullAll, tr.full[p]...)
	}
	perProblem := func(name string, all []float64, by func(p string) []float64, unit string) {
		put(name, median(all), unit)
		for _, p := range problems {
			put(name+"."+p, median(by(p)), unit)
		}
	}
	perProblem("core.query_ms", st["core.query"], func(p string) []float64 { return st["core.query."+p] }, "ms")
	perProblem("core.query_full_ms", fullAll, func(p string) []float64 { return tr.full[p] }, "ms")
	// The speedup pairs each sampled full evaluation with the Δ query of
	// the same read, so both medians describe the same sources.
	var deltaAll []float64
	for _, p := range problems {
		deltaAll = append(deltaAll, tr.delta[p]...)
		put("core.delta_speedup."+p, ratio(median(tr.full[p]), median(tr.delta[p])), "ratio")
	}
	put("core.delta_speedup", ratio(median(fullAll), median(deltaAll)), "ratio")
	put("core.cached_query_ms", st.median("core.cached_query"), "ms")
	put("core.cache_hit_ratio", ratio(float64(tr.cache.Hits), float64(tr.cache.Hits+tr.cache.Misses)), "ratio")
	put("core.cache_stale_share", ratio(float64(tr.cache.StaleServed), float64(tr.cache.Hits)), "ratio")
	var standingMs, changed []float64
	for _, w := range tr.writes {
		if !w.del {
			standingMs = append(standingMs, ms(w.standing))
			changed = append(changed, float64(w.changed))
		}
	}
	put("core.apply_batch_ms", st.median("core.apply_batch"), "ms")
	put("core.standing_ms", median(standingMs), "ms")
	put("core.changed_per_batch", median(changed), "count")
	put("core.apply_deletions_ms", st.median("core.apply_deletions"), "ms")

	// streamgraph
	put("streamgraph.insert_ms", st.median("streamgraph.insert"), "ms")
	put("streamgraph.delete_ms", st.median("streamgraph.delete"), "ms")
	put("streamgraph.flatten_from_ms", st.median("streamgraph.flatten_from"), "ms")
	put("streamgraph.flatten_full_ms", st.median("streamgraph.flatten_full"), "ms")
	put("streamgraph.pin_ms", st.median("streamgraph.pin"), "ms")
	put("streamgraph.mirror_delta_share", ratio(float64(tr.mirror.delta), float64(tr.mirror.delta+tr.mirror.full)), "ratio")
	put("streamgraph.mirror_copied_bytes_per_batch", ratio(float64(tr.mirror.copied), float64(len(standingMs))), "bytes")

	// standing
	put("standing.update_ms", st.median("standing.update"), "ms")
	put("standing.update_deletions_ms", st.median("standing.update_deletions"), "ms")
	perProblem("standing.delta_for_ms", st["standing.delta_for"], func(p string) []float64 { return st["standing.delta_for."+p] }, "ms")

	// engine: timings from the parallel replica, counts at GOMAXPROCS=1
	perProblem("engine.push_ms", st["engine.push"], func(p string) []float64 { return st["engine.push."+p] }, "ms")
	p1 := map[string][]float64{}
	var p1All []float64
	sums := map[string]*engine.Stats{"": {}}
	n := map[string]float64{}
	for _, p := range problems {
		sums[p] = &engine.Stats{}
	}
	for i, s := range cp.reads {
		p := tr.reads[i].problem
		p1[p] = append(p1[p], ms(cp.push[i]))
		p1All = append(p1All, ms(cp.push[i]))
		sums[""].Add(s)
		sums[p].Add(s)
		n[""]++
		n[p]++
	}
	perProblem("engine.push_ms.p1", p1All, func(p string) []float64 { return p1[p] }, "ms")
	for _, key := range append([]string{""}, problems...) {
		suffix := ""
		if key != "" {
			suffix = "." + key
		}
		put("engine.activations_per_query"+suffix, ratio(float64(sums[key].Activations), n[key]), "count")
		put("engine.relaxations_per_query"+suffix, ratio(float64(sums[key].Relaxations), n[key]), "count")
	}
	all := sums[""]
	put("engine.update_ratio", ratio(float64(all.Updates), float64(all.Relaxations)), "ratio")
	put("engine.iterations_per_query", ratio(float64(all.Iterations), n[""]), "count")
	put("engine.dense_share", ratio(float64(all.DenseIterations), float64(all.Iterations)), "ratio")
	var maint engine.Stats
	inserts := 0
	for i, s := range cp.writes {
		if !tr.writes[i].del {
			maint.Add(s)
			inserts++
		}
	}
	put("engine.maint_activations_per_batch", ratio(float64(maint.Activations), float64(inserts)), "count")
	put("engine.maint_relaxations_per_batch", ratio(float64(maint.Relaxations), float64(inserts)), "count")
	exactV := 0.0
	if exact {
		exactV = 1
	}
	put("engine.counts_exact", exactV, "bool")

	// setup
	put("setup.load_s", st.median("setup.load")/1000, "s")
	put("setup.enable_s", st.median("setup.enable")/1000, "s")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
