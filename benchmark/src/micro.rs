//! Unit-cost microbenchmarks, one per layer seam.
//!
//! Unit cost x count (e.g. `vm.merge_us_per_page` x `dbm.merge_pages_merged`)
//! is the outside-in estimate of what happens inside a call the ledger can
//! only time as a whole. Inputs and results go through `black_box`; each
//! reading is the median of several batches.

use crate::stats::median;
use janus::obs::metrics::{Counter, Registry};
use janus::obs::{Histogram, Recorder};
use janus::spec::scheduler::{Scheduler, Task};
use janus::spec::MvMemory;
use janus::vm::{merge_chunk_overlays, ChunkOverlay, CowMemory, FlatMemory, GuestMemory};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;
const PAGE: u64 = 4096;
const BASE: u64 = 0x10_0000;

/// Median over `BATCHES` batches of the mean nanoseconds of one `op`.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// A flat image of `pages` mapped pages, every word written.
fn flat_image(pages: u64) -> FlatMemory {
    let mut mem = FlatMemory::new();
    for word in 0..pages * PAGE / 8 {
        mem.write_u64(BASE + word * 8, word);
    }
    mem
}

/// Word address `i` of a stride that visits a new cache line each step and
/// stays inside `pages` pages.
fn strided(i: usize, pages: u64) -> u64 {
    BASE + (i as u64 * 72) % (pages * PAGE - 8) / 8 * 8
}

#[derive(Debug, Clone, Copy)]
pub struct VmCosts {
    pub flat_load_ns: f64,
    pub flat_store_ns: f64,
}

pub fn flat_memory(iters: usize) -> VmCosts {
    let pages = 64;
    let mut mem = flat_image(pages);
    let flat_load_ns = ns_per_op(iters, |i| {
        black_box(mem.read_u64(black_box(strided(i, pages))));
    });
    let flat_store_ns = ns_per_op(iters, |i| {
        mem.write_u64(black_box(strided(i, pages)), i as u64);
    });
    black_box(&mem);
    VmCosts {
        flat_load_ns,
        flat_store_ns,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct CowCosts {
    pub load_ns: f64,
    pub store_ns: f64,
    pub first_touch_ns: f64,
    pub merge_us_per_page: f64,
}

pub fn cow_memory(iters: usize, threads: usize) -> CowCosts {
    let pages = 64;
    let base = flat_image(pages);

    // Loads that fall through an empty overlay to the shared base.
    let mut view = CowMemory::new(&base);
    let load_ns = ns_per_op(iters, |i| {
        black_box(view.read_u64(black_box(strided(i, pages))));
    });

    // Stores into pages the view already owns.
    for page in 0..pages {
        view.write_u64(BASE + page * PAGE, 1);
    }
    let store_ns = ns_per_op(iters, |i| {
        view.write_u64(black_box(strided(i, pages)), i as u64);
    });
    black_box(view.written_words());

    // The first store to a page allocates its overlay block.
    let first_touch_ns = median(
        &(0..BATCHES)
            .map(|_| {
                let mut fresh = CowMemory::new(&base);
                let start = Instant::now();
                for page in 0..pages {
                    fresh.write_u64(black_box(BASE + page * PAGE), page);
                }
                let ns = start.elapsed().as_nanos() as f64 / pages as f64;
                black_box(fresh.touched_pages());
                ns
            })
            .collect::<Vec<_>>(),
    );

    // Merge: `threads` chunks, each dirtying every word of its own pages.
    let pages_per_chunk = 48u64;
    let merge_us_per_page = median(
        &(0..BATCHES)
            .map(|_| {
                let mut target = flat_image(pages_per_chunk * threads as u64);
                let chunks: Vec<ChunkOverlay> = (0..threads as u64)
                    .map(|chunk| {
                        let mut view = CowMemory::new(&target);
                        let first = BASE + chunk * pages_per_chunk * PAGE;
                        for word in 0..pages_per_chunk * PAGE / 8 {
                            view.write_u64(first + word * 8, word ^ chunk);
                        }
                        view.into_pages()
                    })
                    .collect();
                let start = Instant::now();
                let stats = merge_chunk_overlays(&mut target, &chunks, threads);
                let us = start.elapsed().as_nanos() as f64 / 1e3;
                black_box(&target);
                us / stats.pages_merged.max(1) as f64
            })
            .collect::<Vec<_>>(),
    );

    CowCosts {
        load_ns,
        store_ns,
        first_touch_ns,
        merge_us_per_page,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct SpecCosts {
    pub mv_read_ns: f64,
    pub mv_record_ns: f64,
    pub mv_read_contended_ns: f64,
    pub sched_task_ns: f64,
}

pub fn speculation(iters: usize, threads: usize) -> SpecCosts {
    const ITERATIONS: usize = 1024;
    const WORDS_PER_WRITE: usize = 8;
    let word_of = |iteration: usize, k: usize| BASE + ((iteration * 5 + k * 131) % 4096) as u64 * 8;

    // A populated store: every iteration has written eight words.
    let populated = || {
        let mv = MvMemory::new(ITERATIONS);
        for iteration in 0..ITERATIONS {
            let writes: HashMap<u64, u64> = (0..WORDS_PER_WRITE)
                .map(|k| (word_of(iteration, k), k as u64))
                .collect();
            mv.record(iteration, 0, &writes, 0);
        }
        mv
    };

    let mv = populated();
    let read = |i: usize| {
        black_box(mv.read(
            black_box(word_of(i % ITERATIONS, i % WORDS_PER_WRITE)),
            i % ITERATIONS,
            u64::MAX,
        ));
    };
    let mv_read_ns = ns_per_op(iters, read);

    // The same reads from `threads` threads at once: what a shard lock costs
    // when the racing pool's workers hit the store together.
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| ns_per_op(iters, read)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let mv_read_contended_ns = crate::stats::mean(&per_thread);

    let mv_record_ns = median(
        &(0..BATCHES)
            .map(|_| {
                let fresh = MvMemory::new(ITERATIONS);
                let sets: Vec<HashMap<u64, u64>> = (0..ITERATIONS)
                    .map(|it| {
                        (0..WORDS_PER_WRITE)
                            .map(|k| (word_of(it, k), k as u64))
                            .collect()
                    })
                    .collect();
                let start = Instant::now();
                for (iteration, writes) in sets.iter().enumerate() {
                    black_box(fresh.record(iteration, 0, writes, 0));
                }
                start.elapsed().as_nanos() as f64 / (ITERATIONS * WORDS_PER_WRITE) as f64
            })
            .collect::<Vec<_>>(),
    );

    // One uncontended pass of the scheduler: every iteration executes once
    // and validates once.
    let sched_task_ns = median(
        &(0..BATCHES)
            .map(|_| {
                let scheduler = Scheduler::new(4096);
                let mut tasks = 0u64;
                let start = Instant::now();
                while let Some(task) = scheduler.next_task() {
                    tasks += 1;
                    match task {
                        Task::Execution { iteration, .. } => {
                            scheduler.finish_execution(iteration, false)
                        }
                        Task::Validation { iteration, .. } => {
                            scheduler.finish_validation(iteration, false)
                        }
                    }
                }
                let ns = start.elapsed().as_nanos() as f64 / tasks.max(1) as f64;
                assert!(scheduler.done(), "an uncontended pass validates everything");
                ns
            })
            .collect::<Vec<_>>(),
    );

    SpecCosts {
        mv_read_ns,
        mv_record_ns,
        mv_read_contended_ns,
        sched_task_ns,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ObsCosts {
    pub counter_inc_ns: f64,
    pub hist_record_ns: f64,
    pub span_ns: f64,
    pub span_disabled_ns: f64,
    pub prometheus_text_us: f64,
}

/// `registry` is a live session's registry, so the exposition cost is that
/// of the real family set.
pub fn observability(iters: usize, registry: &Registry) -> ObsCosts {
    let counter = Counter::new();
    let counter_inc_ns = ns_per_op(iters, |_| black_box(&counter).inc());
    let hist = Histogram::new();
    let hist_record_ns = ns_per_op(iters, |i| black_box(&hist).record(i as u64 * 37));
    // A small ring, so a long batch overwrites instead of growing.
    let enabled = Recorder::with_capacity(1024);
    let span_ns = ns_per_op(iters, |_| drop(black_box(enabled.span("bench", "micro"))));
    let disabled = Recorder::disabled();
    let span_disabled_ns = ns_per_op(iters, |_| drop(black_box(disabled.span("bench", "micro"))));
    let prometheus_text_us = ns_per_op(32, |_| {
        black_box(registry.prometheus_text());
    }) / 1e3;
    ObsCosts {
        counter_inc_ns,
        hist_record_ns,
        span_ns,
        span_disabled_ns,
        prometheus_text_us,
    }
}
