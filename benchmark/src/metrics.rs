//! The benchmark's metrics, declared once. `BENCHMARK.json` lists exactly
//! these (a self-test holds the two together); README.md says what each
//! one means and which end-to-end metric each per-layer one should move.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these, with tracing off.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the self-test that holds BENCHMARK.json to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by the traced run of every workload; a layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [PerLayer; 96] = [
    // topology
    lo("topology.hierarchy_build_us", "us"),
    lo("topology.model_put8_shm_ns", "ns"),
    lo("topology.model_put8_wire_ns", "ns"),
    lo("topology.model_error_x", "x"),
    // fabric::socket::wire
    lo("wire.encode_put8_ns", "ns"),
    lo("wire.decode_put8_ns", "ns"),
    lo("wire.encode_ambatch64_ns", "ns"),
    lo("wire.decode_ambatch64_ns", "ns"),
    lo("wire.uds_frame8_ns", "ns"),
    lo("wire.encode_put1m_us", "us"),
    lo("wire.read_direct_put1m_us", "us"),
    // fabric::socket::shm
    lo("shm.create_open_us", "us"),
    lo("shm.write8_ns", "ns"),
    lo("shm.flag_add_ns", "ns"),
    hi("shm.write1m_mbps", "MB/s"),
    hi("shm.read1m_mbps", "MB/s"),
    hi("shm.bulk_put_mbps", "MB/s"),
    hi("shm.bulk_get_mbps", "MB/s"),
    // fabric::socket, whole-fabric calls
    lo("socket.fleet_join_ms", "ms"),
    lo("socket.frames_per_op", "count"),
    lo("socket.wire_bytes_per_op", "B"),
    lo("socket.put_ack_p50_us", "us"),
    lo("socket.put_ack_p99_us", "us"),
    lo("socket.quiet_share", "ratio"),
    lo("socket.cpu_us_per_op", "us"),
    hi("socket.shm_share", "ratio"),
    hi("socket.put_mbps", "MB/s"),
    hi("socket.get_mbps", "MB/s"),
    lo("socket.put8_rtt_us_p50", "us"),
    lo("socket.put8_rtt_us_p99", "us"),
    lo("socket.get8_rtt_us_p50", "us"),
    lo("socket.amo_rtt_us_p50", "us"),
    // fabric::{am,batch}
    lo("am.push_take_ns", "ns"),
    hi("am.ops_per_batch", "count"),
    hi("am.fused_share", "ratio"),
    lo("am.frames_per_am", "count"),
    hi("am.stream_wire_mops", "Mops/s"),
    hi("am.stream_shm_mops", "Mops/s"),
    // fabric::thread
    hi("thread.put8_stream_mops", "Mops/s"),
    // fabric::{sim,evq,sched,stepper}
    lo("evq.push_pop_ns", "ns"),
    lo("sim.events_per_op", "count"),
    lo("sim.commits", "count"),
    lo("sim.queue_hwm", "count"),
    lo("sim.wakeups", "count"),
    lo("sim.threaded_wall_s", "s"),
    hi("sim.threaded_commits_per_s", "1/s"),
    lo("sim.cpu_s", "s"),
    lo("stepper.setup_ms", "ms"),
    hi("stepper.barrier_mops", "Mops/s"),
    hi("stepper.bcast_mops", "Mops/s"),
    hi("stepper.reduce_mops", "Mops/s"),
    lo("stepper.barrier_virt_us", "virt_us"),
    // collectives
    lo("collectives.tdlb_barrier_virt_us", "virt_us"),
    lo("collectives.dissem_barrier_virt_us", "virt_us"),
    lo("collectives.allreduce8_virt_us", "virt_us"),
    lo("collectives.bcast1m_virt_us", "virt_us"),
    hi("collectives.tdlb_speedup_x", "x"),
    lo("collectives.tdlb_flags_per_barrier", "count"),
    lo("collectives.dissem_flags_per_barrier", "count"),
    lo("collectives.tdlb_inter_msgs_per_barrier", "count"),
    lo("collectives.dissem_inter_msgs_per_barrier", "count"),
    lo("collectives.allreduce8_inter_msgs", "count"),
    lo("collectives.bcast1m_inter_bytes", "B"),
    lo("collectives.bcast1m_chunks", "count"),
    lo("collectives.bcast1m_store_forward_virt_us", "virt_us"),
    lo("collectives.allreduce8_flat_virt_us", "virt_us"),
    lo("collectives.barrier_wall_us_p50", "us"),
    // runtime
    lo("runtime.image_bringup_ms", "ms"),
    lo("runtime.form_team_virt_us", "virt_us"),
    // hpl
    hi("hpl.dgemm_gflops", "GFLOP/s"),
    hi("hpl.dtrsm_gflops", "GFLOP/s"),
    hi("hpl.single_image_gflops", "GFLOP/s"),
    hi("hpl.two_cpu_gflops", "GFLOP/s"),
    hi("hpl.parallel_efficiency", "ratio"),
    hi("hpl.gflops_wire", "GFLOP/s"),
    lo("hpl.solve_s", "s"),
    lo("hpl.residual", "ratio"),
    lo("hpl.bytes_per_factorization", "B"),
    lo("hpl.msgs_per_factorization", "count"),
    hi("hpl.virt_gflops", "virt_GFLOP/s"),
    hi("hpl.two_level_gain_pct", "%"),
    // apps
    lo("apps.cg_virt_us_per_iter", "virt_us"),
    lo("apps.jacobi_virt_us_per_sweep", "virt_us"),
    // the traced run's spans
    lo("span.app_self_s", "s"),
    lo("span.collectives_self_s", "s"),
    lo("span.fabric_put_s", "s"),
    lo("span.fabric_putnb_s", "s"),
    lo("span.fabric_get_s", "s"),
    lo("span.fabric_flag_add_s", "s"),
    lo("span.fabric_flag_wait_s", "s"),
    lo("span.fabric_quiet_s", "s"),
    lo("span.fabric_am_deliver_s", "s"),
    lo("span.fabric_other_s", "s"),
    lo("span.top_level_s", "s"),
    lo("span.calls_total", "count"),
    lo("trace_overhead_pct", "%"),
];
