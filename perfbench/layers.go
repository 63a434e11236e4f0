package main

// perLayer lists every per-layer metric the traced run prints, with its
// unit. Every workload prints all of them; a layer the workload does not
// reach reads 0. Names ending in _virt_ms or _us are virtual time; the
// other times are host time.
var perLayer = [][2]string{
	// Guest builds and cluster construction.
	{"grt.build_ms", "ms"},
	{"minicc.compile_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"core.new_cluster_ms", "ms"},
	// Translation and execution, summed over one round (compute, sharing)
	// or over the virt_ms_gmean jobs (service).
	{"tcg.exec_minsn", "Minsn"},
	{"tcg.tier3_insn_frac", "frac"},
	{"tcg.superblock_insn_frac", "frac"},
	{"tcg.jump_cache_hit_frac", "frac"},
	{"tcg.translated_kinsn", "kinsn"},
	{"tcg.translate_virt_ms", "ms"},
	// Coherence, network and wire format, summed over one round.
	{"dsm.page_faults", "count"},
	{"dsm.page_wait_virt_ms", "ms"},
	{"dsm.invalidates", "count"},
	{"dsm.fetches", "count"},
	{"dsm.retries", "count"},
	{"dsm.queued", "count"},
	{"dsm.splits", "count"},
	{"dsm.pushes", "count"},
	{"dsm.forward_hit_frac", "frac"},
	{"dsm.fault_dir_wait_p50_us", "us"},
	{"netsim.msgs", "count"},
	{"netsim.kbytes", "kB"},
	{"netsim.busy_tx_virt_ms", "ms"},
	{"netsim.fault_transfer_p50_us", "us"},
	{"proto.body_raw_frac", "frac"},
	{"proto.delta_pages", "count"},
	{"proto.full_pages", "count"},
	{"proto.delta_misses", "count"},
	{"proto.resends", "count"},
	{"core.fault_virt_ms", "ms"},
	{"core.syscall_virt_ms", "ms"},
	{"core.migrations", "count"},
	{"guestos.global_syscalls", "count"},
	{"guestos.futex_waits", "count"},
	// Live cluster.
	{"live.run_ms", "ms"},
	{"live.master_minsn", "Minsn"},
	// Job service.
	{"server.admit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.rejected", "count"},
	// Host CPU by the package of each sample's leaf frame.
	{"tcg.host_frac", "frac"},
	{"mem.host_frac", "frac"},
	{"core.host_frac", "frac"},
	{"sim.host_frac", "frac"},
	{"netsim.host_frac", "frac"},
	{"dsm.host_frac", "frac"},
	{"proto.host_frac", "frac"},
	{"guestos.host_frac", "frac"},
	{"minicc.host_frac", "frac"},
	{"asm.host_frac", "frac"},
	{"live.host_frac", "frac"},
	{"server.host_frac", "frac"},
	{"nethttp.host_frac", "frac"},
	{"go.host_frac", "frac"},
	{"bench.host_frac", "frac"},
	{"other.host_frac", "frac"},
	// Go runtime.
	{"go.gc_cpu_frac", "frac"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.heap_mb_end", "MB"},
	// Cost of tracing: untraced over traced ops per second, minus one.
	{"bench.trace_overhead_frac", "frac"},
}
