//! Calendar microbenchmarks: the radix-heap calendar under the op
//! mixes the engine hot loop produces. These isolate the
//! `schedule`/`pop` costs from the rest of the simulator so a calendar
//! regression shows up here before it shows up as a diffuse fig18
//! wall-clock drift.
//!
//! - **schedule_heavy** — bulk insertion followed by one full drain:
//!   the shape of engine warm-up, where a whole batch of arrivals is
//!   scheduled before the first pop.
//! - **drain_heavy** — a small steady-state live set where every pop
//!   schedules a successor 1–2,048 ns ahead (each event handler
//!   schedules the command's next hop).
//! - **engine_mix** — the serial engine's traffic, as traced over one
//!   benchmark `sweep` iteration (Fig 18's replayed cells): about 3,500
//!   events pending (the trace's mean; its peak was 6,912), and
//!   successor delays of which 37% land at the watermark, 35% less
//!   than 8,192 ns ahead and 28% between 8,192 ns and 8 ms.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::{Calendar, SimTime};
use std::hint::black_box;

/// Events per iteration; large enough to cycle every bucket the
/// delays reach, yet small enough for quick samples.
const EVENTS: u64 = 64 * 1024;

/// Pending events in `engine_mix`'s steady state.
const ENGINE_PENDING: u64 = 3_500;

/// Deterministic xorshift64* stream — no external RNG crates, and the
/// benches must schedule the same sequence every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One successor delay in ns from the engine's mix: 37% at the
/// watermark, 35% under 8,192 ns, 28% from 8,192 ns to 8 ms.
fn engine_delay(rng: &mut Rng) -> u64 {
    match rng.next() % 100 {
        0..=36 => 0,
        37..=71 => 1 + rng.next() % 8_191,
        _ => 8_192 + rng.next() % (8_000_000 - 8_192),
    }
}

fn schedule_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("schedule_heavy", |b| {
        let mut cal: Calendar<u64> = Calendar::new();
        b.iter(|| {
            cal.reset();
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
            // Mix of offsets: mostly within 4 µs, a tail out to 100 µs.
            for i in 0..EVENTS {
                let spread = if i % 16 == 0 { 100_000 } else { 4_096 };
                cal.schedule(SimTime::from_ns(rng.next() % spread), i);
            }
            let mut acc = 0u64;
            while let Some((_, id)) = cal.pop() {
                acc = acc.wrapping_add(id);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn drain_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("drain_heavy", |b| {
        let mut cal: Calendar<u64> = Calendar::new();
        b.iter(|| {
            cal.reset();
            let mut rng = Rng(0xA076_1D64_78BD_642F);
            // Steady state: 256 live events; every pop reschedules one
            // successor a short service time ahead, so the watermark
            // chases the live set just like the engine's event loop.
            for i in 0..256u64 {
                cal.schedule(SimTime::from_ns(rng.next() % 512), i);
            }
            let mut acc = 0u64;
            for _ in 0..EVENTS {
                let (now, id) = cal.pop().expect("live set never empties");
                acc = acc.wrapping_add(id);
                let delay = 1 + rng.next() % 2_048;
                cal.schedule(now + simkit::Duration::from_ns(delay), id);
            }
            while cal.pop().is_some() {}
            black_box(acc)
        })
    });
    g.finish();
}

fn engine_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("engine_mix", |b| {
        let mut cal: Calendar<u64> = Calendar::new();
        b.iter(|| {
            cal.reset();
            let mut rng = Rng(0x5851_F42D_4C95_7F2D);
            // Steady state at the engine's mean pending count; every pop
            // schedules one successor with a delay drawn from the
            // engine's mix.
            for i in 0..ENGINE_PENDING {
                cal.schedule(SimTime::from_ns(engine_delay(&mut rng)), i);
            }
            let mut acc = 0u64;
            for _ in 0..EVENTS {
                let (now, id) = cal.pop().expect("live set never empties");
                acc = acc.wrapping_add(id);
                let delay = engine_delay(&mut rng);
                cal.schedule(now + simkit::Duration::from_ns(delay), id);
            }
            while cal.pop().is_some() {}
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, schedule_heavy, drain_heavy, engine_mix);
criterion_main!(benches);
