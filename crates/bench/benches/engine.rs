//! Micro-benchmarks of the discrete-event engine: the substrate every
//! workload experiment runs on, so its throughput bounds experiment
//! turnaround. Every case runs on the default queue backend (the timer
//! wheel), the one the simulation driver uses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use dmr_sim::{Engine, EventQueue, SimTime, Span};

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("push_pop_{n}"), |b| {
            b.iter_batched(
                EventQueue::<u64>::new,
                |mut q| {
                    // Reverse order: every push lands before all pending events.
                    for i in (0..n).rev() {
                        q.push(SimTime(i), i);
                    }
                    while let Some(e) = q.pop() {
                        black_box(e);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("cancel_half_100k", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let keys: Vec<_> = (0..100_000u64).map(|i| q.push(SimTime(i), i)).collect();
                (q, keys)
            },
            |(mut q, keys)| {
                for k in keys.iter().step_by(2) {
                    q.cancel(*k);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_engine_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(100_000));
    // A self-rescheduling event chain: the dominant pattern in the
    // workload driver (each segment schedules the next).
    g.bench_function("self_rescheduling_chain_100k", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::new();
            eng.schedule_at(SimTime::ZERO, 0);
            let mut fired = 0u64;
            eng.run(|eng, _, k| {
                fired += 1;
                if k < 100_000 {
                    eng.schedule_in(Span(10), k + 1);
                }
            });
            black_box(fired)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_queue, bench_engine_loop);
criterion_main!(benches);
