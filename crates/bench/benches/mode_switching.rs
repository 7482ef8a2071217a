//! Micro-bench of the dual-mode switching machinery: the cost of one
//! barrier-synchronised mode switch across N threads, and of freezing and
//! clearing chain pools — the overhead the punctuation interval amortises
//! (Section IV-E, "Transaction Batching").

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tstream_core::{ChainPlacement, ChainPoolSet};
use tstream_stream::barrier::CyclicBarrier;
use tstream_stream::executor::ExecutorLayout;
use tstream_txn::TxnBuilder;

fn bench_barrier_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("mode_switch_barrier_round");
    group.sample_size(20);
    for &threads in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    // One full dual-mode switch = two barrier generations.
                    let barrier = Arc::new(CyclicBarrier::new(threads));
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let barrier = barrier.clone();
                            s.spawn(move || {
                                for _ in 0..100 {
                                    barrier.wait(|| {});
                                    barrier.wait(|| {});
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

fn bench_pool_recycling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_pool_freeze_and_clear");
    for &chains in &[500usize, 5_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(chains),
            &chains,
            |b, &chains| {
                let pools =
                    ChainPoolSet::new(ChainPlacement::SharedNothing, ExecutorLayout::new(8, 10), 8);
                b.iter(|| {
                    for k in 0..chains as u64 {
                        let mut txn = TxnBuilder::new(k);
                        txn.read(0, k);
                        for op in txn.build().0.ops {
                            pools.chain_for(op.target).insert(op);
                        }
                    }
                    let built = pools.total_chains();
                    pools.clear_all();
                    built
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_barrier_round, bench_pool_recycling);
criterion_main!(benches);
