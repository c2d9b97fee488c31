//! Wall-clock criterion benches of the real `ThreadFabric` runtime at
//! host scale: barrier, allreduce, broadcast, and coarray put/get. These
//! are honest native numbers (no virtual time) — they measure this crate's
//! implementation on the machine running `cargo bench`, complementing the
//! modeled `exp_*` harnesses.

use caf_fabric::{ArcFabric, ThreadConfig, ThreadFabric};
use caf_runtime::{run_on_fabric, BarrierAlgo, CollectiveConfig};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use criterion::{criterion_group, criterion_main, Criterion};

fn thread_fabric(nodes: usize, cores: usize, images: usize) -> ArcFabric {
    let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
    ThreadFabric::new(map, ThreadConfig::default())
}

/// Amortized measurement: one SPMD launch performing `iters` operations;
/// criterion times the whole launch, we report per-op cost via throughput.
fn launch_and_run(images: usize, cfg: CollectiveConfig, iters: usize, kind: &str) {
    let fabric = thread_fabric(2, images.div_ceil(2), images);
    let kind = kind.to_string();
    run_on_fabric(fabric, cfg, move |img| match kind.as_str() {
        "barrier" => {
            for _ in 0..iters {
                img.sync_all();
            }
        }
        "allreduce" => {
            let mut v = vec![1.0f64; 64];
            for _ in 0..iters {
                img.co_sum(&mut v);
            }
        }
        "broadcast" => {
            let mut v = vec![1.0f64; 64];
            for _ in 0..iters {
                img.co_broadcast(&mut v, 1);
            }
        }
        "broadcast_1mib" => {
            let mut v = vec![1.0f64; (1 << 20) / 8];
            for _ in 0..iters {
                img.co_broadcast(&mut v, 1);
            }
        }
        _ => unreachable!(),
    });
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("threadfabric");
    g.sample_size(10);
    for images in [2usize, 4] {
        g.bench_function(format!("barrier_tdlb_{images}img_x100"), |b| {
            b.iter(|| {
                launch_and_run(
                    images,
                    CollectiveConfig {
                        barrier: BarrierAlgo::Tdlb,
                        ..CollectiveConfig::default()
                    },
                    100,
                    "barrier",
                )
            })
        });
        g.bench_function(format!("barrier_dissem_{images}img_x100"), |b| {
            b.iter(|| {
                launch_and_run(
                    images,
                    CollectiveConfig {
                        barrier: BarrierAlgo::Dissemination,
                        ..CollectiveConfig::default()
                    },
                    100,
                    "barrier",
                )
            })
        });
        g.bench_function(format!("allreduce64_{images}img_x50"), |b| {
            b.iter(|| launch_and_run(images, CollectiveConfig::auto(), 50, "allreduce"))
        });
        g.bench_function(format!("broadcast64_{images}img_x50"), |b| {
            b.iter(|| launch_and_run(images, CollectiveConfig::auto(), 50, "broadcast"))
        });
        // Bulk: every byte crosses a heap `Window` at least twice per hop.
        g.bench_function(format!("broadcast_1mib_{images}img_x10"), |b| {
            b.iter(|| launch_and_run(images, CollectiveConfig::auto(), 10, "broadcast_1mib"))
        });
    }
    g.finish();
}

fn bench_fabric_primitives(c: &mut Criterion) {
    let fabric = thread_fabric(1, 2, 2);
    let seg = fabric.alloc_segment(ProcId(0), 1 << 20);
    fabric.alloc_segment(ProcId(1), 1 << 20);
    let payload = vec![7u8; 4096];
    let mut out = vec![0u8; 4096];
    let mut g = c.benchmark_group("fabric_primitives");
    g.bench_function("put_4k_local_node", |b| {
        b.iter(|| fabric.put(ProcId(0), ProcId(1), seg, 0, &payload))
    });
    g.bench_function("get_4k_local_node", |b| {
        b.iter(|| fabric.get(ProcId(0), ProcId(1), seg, 0, &mut out))
    });
    g.bench_function("amo_fetch_add", |b| {
        b.iter(|| fabric.amo_fetch_add_u64(ProcId(0), ProcId(1), seg, 8, 1))
    });
    g.finish();
}

criterion_group!(benches, bench_collectives, bench_fabric_primitives);
criterion_main!(benches);
