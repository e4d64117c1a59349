//! The execution-backend layer: how planned parallel-loop chunks actually
//! run.
//!
//! The run loop (`runtime.rs`) plans a parallel-loop invocation —
//! iteration counting, chunking, per-chunk register contexts, private stack
//! frames, bounds checks — without committing to an execution substrate.
//! The plan is then handed to [`BackendKind::run_chunks`], which is a
//! `match` on the backend kind:
//!
//! * `VirtualTime` executes the chunks one after another on the
//!   coordinating thread against the shared guest memory, exactly as the
//!   original virtual-time runtime did. Deterministic and bit-reproducible.
//! * `NativeThreads` runs chunk 0 on the calling thread and the
//!   other chunks on the run's [`ChunkPool`]: parked OS threads, spawned at
//!   the run's first batch of two or more chunks and joined when the run
//!   returns, so an invocation wakes threads instead of creating them. Each
//!   chunk executes against a [`CowMemory`] view (the batch's read-only base
//!   image plus a private byte-masked write overlay) and counts its block
//!   executions privately; once every chunk has reported, overlays and
//!   counts are merged back in chunk order on the calling thread,
//!   reproducing the virtual-time backend's memory image while the work
//!   itself ran concurrently. Loops whose schedule carries `TX_START` rules
//!   (STM-wrapped shared-library calls — potential cross-chunk dependences
//!   by definition) run the same way, and each chunk also reports what its
//!   transactions touched outside its stack window. The merge commits
//!   chunks in order while none could have seen a stale word; from the
//!   first that could, the rest run again in order on the calling thread.
//!
//! Both backends charge modelled cycles through the same worker lanes
//! ([`janus_spec::Lanes`]) that the speculation engine uses, so reported
//! cycle counts are deterministic and comparable regardless of where the
//! chunks physically ran. A speculative (`SPECULATE`) invocation
//! ([`BackendKind::run_speculative_invocation`]) runs the one `janus-spec`
//! engine on the calling thread under both backends, so its counters,
//! modelled cycles and commit are the same everywhere; the native backend
//! adds only the invocation's wall-clock time.

use crate::runtime::{run_chunk, LoopRt, PreparedParts};
use crate::stm::TxFootprint;
use crate::{DbmConfig, DbmError, Result};
use janus_obs::Recorder;
use janus_spec::{IterationRun, Lanes, SpecError, SpecOutcome, SpecView};
use janus_vm::{merge_chunk_overlays, ChunkOverlay, CowMemory, Cpu, FlatMemory, MergeStats};
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

#[cfg(test)]
mod reference;

/// Selects how parallel-loop chunks run: one after another in virtual time,
/// or concurrently on OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Deterministic virtual-time simulation: chunks run sequentially on the
    /// coordinating thread, parallelism exists only in the modelled clock.
    #[default]
    VirtualTime,
    /// Real OS-thread execution: chunks run concurrently on `std::thread`
    /// workers over copy-on-write memory views.
    NativeThreads,
}

impl BackendKind {
    /// Parses a backend name as used by CLI flags and the `JANUS_BACKEND`
    /// environment variable.
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "virtual" | "virtual-time" | "vt" | "sim" => Some(BackendKind::VirtualTime),
            "native" | "native-threads" | "threads" | "os" => Some(BackendKind::NativeThreads),
            _ => None,
        }
    }

    /// The backend selected by the `JANUS_BACKEND` environment variable, or
    /// the default (virtual-time) when unset or unrecognised.
    #[must_use]
    pub fn from_env() -> BackendKind {
        std::env::var("JANUS_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or_default()
    }

    /// Stable machine-readable name (also accepted by [`BackendKind::parse`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::VirtualTime => "virtual",
            BackendKind::NativeThreads => "native",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles charged the first time a basic block is copied into the code cache
/// (decode + modify + encode).
const TRANSLATION_COST: u64 = 350;
/// Cycles charged per block execution until the block is linked into a trace.
const DISPATCH_COST: u64 = 3;
/// Executions after which a block counts as linked (trace optimisation
/// removes its dispatch overhead).
const LINK_THRESHOLD: u64 = 16;

/// Code-cache model state: how often each block has been dispatched, one
/// counter per instruction slot ("a block is approximated by its entry
/// address"). Every dispatch loop only counts — the main thread and
/// in-order chunks here, chunks on worker threads in a private copy added
/// in once the chunk commits — and the run is charged from the final counts.
#[derive(Debug, Clone)]
pub(crate) struct CodeCache {
    pub(crate) counts: Vec<u64>,
}

impl CodeCache {
    /// Fresh, empty cache for a process with `num_slots` instruction slots.
    #[must_use]
    pub(crate) fn new(num_slots: usize) -> CodeCache {
        CodeCache {
            counts: vec![0; num_slots],
        }
    }

    /// Adds a committed chunk's per-slot execution counts.
    fn absorb(&mut self, counts: &[u64]) {
        for (count, executions) in self.counts.iter_mut().zip(counts) {
            *count += executions;
        }
    }

    /// `(blocks translated, block executions, cycles)` for the executions
    /// counted so far, per the code-cache cost model: a translation cost the
    /// first time a block is reached and a dispatch cost per execution until
    /// it has run often enough to be linked into a trace. Per slot with `c`
    /// executions that is `TRANSLATION_COST + DISPATCH_COST · min(c,
    /// LINK_THRESHOLD)` whatever order they came in, so where a chunk ran
    /// cannot change the charge.
    pub(crate) fn charges(&self) -> (u64, u64, u64) {
        let charged = self.counts.iter().filter(|&&c| c > 0);
        charged.fold((0, 0, 0), |(blocks, executions, cycles), &c| {
            let cycles = cycles + TRANSLATION_COST + DISPATCH_COST * c.min(LINK_THRESHOLD);
            (blocks + 1, executions + c, cycles)
        })
    }
}

/// One planned chunk of a parallel-loop invocation: a prepared guest context
/// (program counter at the loop header, redirected stack, thread-private
/// induction value and reduction accumulators), the chunk's rewritten loop
/// bound and its stack window.
#[derive(Debug, Clone)]
pub(crate) struct ChunkPlan {
    pub(crate) cpu: Cpu,
    pub(crate) bound: i64,
    /// The chunk's private stack, below the main frame and disjoint from
    /// every other chunk's: what its transactions touch here no other chunk
    /// can see.
    pub(crate) window: Range<u64>,
}

/// Side effects accumulated while executing chunks: guest output,
/// indirect-branch lookups, STM counters and what the chunk's transactions
/// touched outside its stack window. Collected per worker and merged in
/// chunk order so the native-threads backend reproduces the virtual-time
/// backend's output ordering.
#[derive(Debug, Default)]
pub(crate) struct ChunkSideEffects {
    pub(crate) output_ints: Vec<i64>,
    pub(crate) output_floats: Vec<f64>,
    /// The indirect-branch target lookups, charged per execution.
    pub(crate) lookup_cycles: u64,
    pub(crate) stm_transactions: u64,
    pub(crate) stm_aborts: u64,
    pub(crate) stm_reads: u64,
    pub(crate) stm_writes: u64,
    pub(crate) stm_cycles: u64,
    pub(crate) tx: TxFootprint,
}

impl ChunkSideEffects {
    fn absorb(&mut self, other: ChunkSideEffects) {
        self.output_ints.extend(other.output_ints);
        self.output_floats.extend(other.output_floats);
        self.lookup_cycles += other.lookup_cycles;
        self.stm_transactions += other.stm_transactions;
        self.stm_aborts += other.stm_aborts;
        self.stm_reads += other.stm_reads;
        self.stm_writes += other.stm_writes;
        self.stm_cycles += other.stm_cycles;
    }
}

/// Everything chunk execution needs to read: the prepared binary, the loop's
/// runtime metadata and the DBM configuration. All borrows are immutable;
/// pool workers, which cannot borrow from the run, rebuild a context from
/// their own handle to the prepared binary and the loop's id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkContext<'a> {
    /// The loaded process and every loop's runtime record.
    pub(crate) parts: &'a Arc<PreparedParts>,
    /// The loop's key in `parts.loops`.
    pub(crate) loop_id: usize,
    /// `parts.loops[&loop_id]`, looked up once.
    pub(crate) lr: &'a LoopRt,
    pub(crate) config: &'a DbmConfig,
    /// Flight recorder the backends emit per-chunk run/merge spans to (the
    /// null recorder when tracing is off — one branch per emission site).
    pub(crate) recorder: &'a Recorder,
}

/// The result of executing one batch of chunks.
#[derive(Debug)]
pub(crate) struct BatchOutcome {
    /// Each chunk's final context, in chunk order (its `pc` is the loop
    /// exit it stopped at).
    pub(crate) results: Vec<Cpu>,
    /// Merged side effects, in chunk order.
    pub(crate) effects: ChunkSideEffects,
    /// Modelled parallel cycles of the batch: each chunk's cycle count
    /// charged to the least-loaded of `threads` worker lanes, makespan
    /// reported. Identical across backends because chunk cycle counts do not
    /// depend on where the chunk ran.
    pub(crate) parallel_cycles: u64,
    /// Wall-clock nanoseconds the batch took (0 under virtual time).
    pub(crate) wall_nanos: u64,
    /// OS threads that ran the batch's chunks, the calling thread included:
    /// the chunk count, at most `threads` (0 under virtual time). Counted
    /// also when some chunks were then run again in order on the calling
    /// thread.
    pub(crate) os_threads: u64,
    /// What the page-aware overlay merge did (all-zero under virtual time
    /// and for a one-lane batch, which write straight to shared memory and
    /// have nothing to merge).
    pub(crate) merge: MergeStats,
}

/// What a speculative invocation returned, plus its wall-clock cost.
pub(crate) struct SpecInvocationOutcome {
    pub(crate) result: std::result::Result<SpecOutcome<SpecPayload>, SpecError<DbmError>>,
    /// Wall-clock nanoseconds of the invocation (0 under virtual time).
    pub(crate) wall_nanos: u64,
}

impl fmt::Debug for SpecInvocationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecInvocationOutcome")
            .field("ok", &self.result.is_ok())
            .field("wall_nanos", &self.wall_nanos)
            .finish()
    }
}

/// What one validated iteration of a speculative loop leaves behind: the
/// sums the invocation folds over all iterations, and — for the last
/// iteration only — the register context a sequential run would have left.
#[derive(Debug)]
pub(crate) struct SpecPayload {
    pub(crate) retired: u64,
    /// The reduction accumulators' raw bits, in rule order.
    pub(crate) reductions: Vec<i64>,
    /// The final context (its `pc` is the loop exit taken).
    pub(crate) last: Option<Box<Cpu>>,
}

/// The loop body driven by the speculation engine, one incarnation of one
/// iteration per call.
pub(crate) type SpecBody<'a> =
    &'a dyn Fn(
        usize,
        &mut SpecView<'_, FlatMemory>,
    ) -> std::result::Result<IterationRun<SpecPayload>, DbmError>;

/// Runs `plans[results.len()..]` one after another on the calling thread
/// over `mem`, counting block executions straight into `cache`: the whole
/// batch under virtual time or on one lane, and the native backend's
/// in-order re-run of the chunks it could not commit.
fn run_in_order(
    ctx: &ChunkContext<'_>,
    plans: &[ChunkPlan],
    mem: &mut FlatMemory,
    cache: &mut CodeCache,
    results: &mut Vec<Cpu>,
    effects: &mut ChunkSideEffects,
) -> Result<()> {
    for (i, plan) in plans.iter().enumerate().skip(results.len()) {
        let _span = ctx
            .recorder
            .span("dbm.chunk", "chunk.run")
            .arg("chunk", i)
            .arg("bound", plan.bound)
            .arg("backend", "virtual");
        results.push(run_chunk(ctx, plan, mem, &mut cache.counts, effects)?);
    }
    Ok(())
}

/// Charges each chunk's cycles to the least-loaded worker lane and returns
/// the makespan — the one modelled-time code path shared by both backends
/// (and, via [`Lanes`], with the speculation engine).
fn modelled_parallel_cycles(threads: u32, results: &[Cpu]) -> u64 {
    let mut lanes = Lanes::new(threads.max(1));
    for cpu in results {
        lanes.charge(cpu.cycles);
    }
    lanes.makespan()
}

/// A run-scoped pool of parked OS threads: the only place janus-dbm spawns
/// one. It starts empty, grows to the run's widest batch minus one — at most
/// `threads - 1` workers, as the calling thread runs a chunk too, so a
/// one-chunk batch spawns nothing — and is joined when it is dropped, when
/// the run returns. Between batches its workers block on their queues.
#[derive(Debug, Default)]
pub(crate) struct ChunkPool {
    workers: Vec<(mpsc::Sender<Task>, JoinHandle<()>)>,
}

/// Work for one pool worker, returning a `T`.
pub(crate) type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// What a worker's queue carries: a [`Job`] wrapped to catch its own panic
/// and report, so a worker outlives every task it runs.
type Task = Job<()>;

impl ChunkPool {
    /// Runs `first` on the calling thread and `rest[i]` on worker `i`, and
    /// returns every result in order once all of them have finished. A
    /// panic in any of them is caught, and the first one in order is resumed
    /// on the caller after the others have finished.
    pub(crate) fn fork_join<T: Send + 'static>(
        &mut self,
        first: impl FnOnce() -> T,
        rest: Vec<Job<T>>,
    ) -> Vec<T> {
        let tasks = rest.len();
        while self.workers.len() < tasks {
            let (queue, inbox) = mpsc::channel::<Task>();
            let handle = thread::spawn(move || inbox.into_iter().for_each(|task| task()));
            self.workers.push((queue, handle));
        }
        let (done, reports) = mpsc::channel();
        for (i, ((queue, _), task)) in self.workers.iter().zip(rest).enumerate() {
            let done = done.clone();
            let task: Task = Box::new(move || {
                // `task` and everything it captured are dropped before the
                // report is sent, on the panic path too.
                let out = panic::catch_unwind(AssertUnwindSafe(task));
                // The caller waits for every report, so it is listening.
                let _ = done.send((i, out));
            });
            queue
                .send(task)
                .expect("pool workers live until the pool is dropped");
        }
        drop(done);
        let first = panic::catch_unwind(AssertUnwindSafe(first));
        // Ends once every task has reported and dropped its sender.
        let mut rest: Vec<(usize, thread::Result<T>)> = reports.into_iter().collect();
        assert_eq!(rest.len(), tasks, "every task reports before it is dropped");
        rest.sort_unstable_by_key(|&(i, _)| i);
        std::iter::once(first)
            .chain(rest.into_iter().map(|(_, out)| out))
            .map(|out| out.unwrap_or_else(|panic| panic::resume_unwind(panic)))
            .collect()
    }
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        let (queues, threads): (Vec<_>, Vec<_>) = self.workers.drain(..).unzip();
        // Closing the queues ends the workers' loops.
        drop(queues);
        for thread in threads {
            // Tasks catch their own panics, so a worker cannot have died of
            // one; and a destructor must not panic.
            let _ = thread.join();
        }
    }
}

/// What one chunk run on a copy-on-write view leaves behind: its final context,
/// dirty pages, side effects and per-slot block executions.
type ViewOut = Result<(Cpu, ChunkOverlay, ChunkSideEffects, Vec<u64>)>;

/// Runs one planned chunk against a private [`CowMemory`] view of `image`.
fn run_on_view(
    ctx: &ChunkContext<'_>,
    image: &FlatMemory,
    plan: &ChunkPlan,
    chunk: usize,
) -> ViewOut {
    let _span = ctx
        .recorder
        .span("dbm.chunk", "chunk.run")
        .arg("chunk", chunk)
        .arg("bound", plan.bound)
        .arg("backend", "native");
    let mut view = CowMemory::new(image);
    let mut counts = vec![0; ctx.parts.process.num_slots()];
    let mut effects = ChunkSideEffects::default();
    let result = run_chunk(ctx, plan, &mut view, &mut counts, &mut effects)?;
    Ok((result, view.into_pages(), effects, counts))
}

/// Whether a chunk's transactions saw current values after `earlier`, the
/// committed overlays before it: none aborted, and none read a word outside
/// the chunk's window that an earlier chunk wrote (the view served the base
/// image's stale value). The rest is the DOALL guarantee and `contained`.
fn reads_are_current(fx: &ChunkSideEffects, earlier: &[ChunkOverlay]) -> bool {
    let stale = |word| earlier.iter().any(|overlay| overlay.is_dirty_word(word));
    fx.stm_aborts == 0 && !fx.tx.reads.iter().any(stale)
}

/// Runs a batch of `lanes` > 1 lanes on the native backend: chunk 0 of each
/// wave on the calling thread and the rest on `pool`, each over a private
/// [`CowMemory`] view of `mem`, then commits them in chunk order and merges
/// their overlays into `mem`. Chunks it cannot commit run again in order.
fn run_on_pool(
    ctx: &ChunkContext<'_>,
    plans: &[ChunkPlan],
    lanes: usize,
    mem: &mut FlatMemory,
    cache: &mut CodeCache,
    pool: &mut ChunkPool,
) -> Result<(Vec<Cpu>, ChunkSideEffects, MergeStats)> {
    // The batch owns the image (an O(1) move): workers read it through
    // their own handles, which they drop before reporting, so once every
    // chunk has reported the image comes back whole.
    let image = Arc::new(std::mem::take(mem));
    // One wave of `threads` chunks at a time, the first of each on this
    // thread, so the pool never holds more than `threads - 1` workers.
    // Only the adaptive tuner plans more chunks than threads.
    let mut outs = Vec::with_capacity(plans.len());
    for (wave, wave_plans) in plans.chunks(lanes).enumerate() {
        let first = wave * lanes;
        let rest: Vec<Job<ViewOut>> = wave_plans
            .iter()
            .enumerate()
            .skip(1)
            .map(|(j, plan)| {
                let (parts, loop_id) = (Arc::clone(ctx.parts), ctx.loop_id);
                let (config, recorder) = (*ctx.config, ctx.recorder.clone());
                let (image, plan) = (Arc::clone(&image), plan.clone());
                Box::new(move || {
                    let ctx = ChunkContext {
                        parts: &parts,
                        loop_id,
                        lr: &parts.loops[&loop_id],
                        config: &config,
                        recorder: &recorder,
                    };
                    run_on_view(&ctx, &image, &plan, first + j)
                }) as Job<ViewOut>
            })
            .collect();
        let local = || run_on_view(ctx, &image, &wave_plans[0], first);
        outs.extend(pool.fork_join(local, rest));
    }
    *mem = Arc::try_unwrap(image).expect("every chunk dropped its image handle before reporting");

    // Commit in chunk order. Chunk 0 saw exactly what it would have seen
    // in order; a later chunk commits only if it finished, nothing
    // before it escaped its window and its transactions read nothing an
    // earlier chunk wrote. The first chunk that fails ends the committed
    // prefix: it and every chunk after it are discarded (overlay, block
    // counts, output) and run again below, in order over the merged
    // image, as the virtual-time backend runs them.
    let merge_span = ctx
        .recorder
        .span("dbm.chunk", "chunk.merge")
        .arg("chunks", plans.len());
    let mut results = Vec::with_capacity(plans.len());
    let mut effects = ChunkSideEffects::default();
    let mut overlays = Vec::with_capacity(plans.len());
    let mut contained = true;
    for out in outs {
        let first = overlays.is_empty();
        let (result, overlay, fx, counts) = match out {
            Ok(out) if first || contained && reads_are_current(&out.2, &overlays) => out,
            Err(e) if first => return Err(e),
            _ => break,
        };
        // Nothing written where a later chunk could see it, and no
        // untracked re-run of an aborted transaction.
        contained &= !fx.tx.escaped && fx.stm_aborts == 0;
        overlays.push(overlay);
        effects.absorb(fx);
        cache.absorb(&counts);
        results.push(result);
    }
    // Dirty bytes splice over the shared image in chunk order (later
    // chunks win on whole-byte overlaps, which a legal DOALL cannot
    // produce). The merge is page-aware: untouched base pages are
    // skipped outright, and the merged image is bit-identical to the
    // word-by-word replay.
    let merge = merge_chunk_overlays(mem, &overlays, 1);
    drop(
        merge_span
            .arg("pages_merged", merge.pages_merged)
            .arg("pages_skipped", merge.pages_skipped),
    );
    if results.len() < plans.len() {
        ctx.recorder.instant(
            "dbm.chunk",
            "chunk.rerun",
            &[
                ("loop", ctx.loop_id.into()),
                ("from", results.len().into()),
                ("chunks", plans.len().into()),
            ],
        );
        run_in_order(ctx, plans, mem, cache, &mut results, &mut effects)?;
    }
    Ok((results, effects, merge))
}

impl BackendKind {
    /// Executes the planned chunks of one parallel-loop invocation and
    /// merges all memory effects into `mem` and all block executions into
    /// `cache` before returning. Under virtual time the chunks run one after
    /// another on the calling thread against shared guest memory and the
    /// shared code cache, and only the modelled clock is parallel. The
    /// native-threads backend runs chunk 0 on the calling thread and the
    /// rest on `pool`, the run's parked worker threads, over copy-on-write
    /// views merged in chunk order; a batch of one lane (`threads` = 1, or a
    /// single chunk) runs as under virtual time. Modelled cycles go through
    /// the same lane accounting either way; wall-clock time and thread
    /// counts come on top.
    ///
    /// # Errors
    ///
    /// Returns the first failing chunk's error, in chunk order.
    pub(crate) fn run_chunks(
        self,
        ctx: &ChunkContext<'_>,
        plans: &[ChunkPlan],
        mem: &mut FlatMemory,
        cache: &mut CodeCache,
        pool: &mut ChunkPool,
    ) -> Result<BatchOutcome> {
        let native = self == BackendKind::NativeThreads;
        let start = Instant::now();
        // A batch of one lane has nothing to run beside it: its chunks run in
        // order, in place, exactly as under virtual time, with no view, no
        // per-chunk counts and nothing to merge.
        let lanes = (ctx.config.threads.max(1) as usize).min(plans.len());
        let (results, effects, merge) = if native && lanes > 1 {
            run_on_pool(ctx, plans, lanes, mem, cache, pool)?
        } else {
            let mut results = Vec::with_capacity(plans.len());
            let mut effects = ChunkSideEffects::default();
            run_in_order(ctx, plans, mem, cache, &mut results, &mut effects)?;
            (results, effects, MergeStats::default())
        };
        let measured = |value: u64| if native { value } else { 0 };
        Ok(BatchOutcome {
            parallel_cycles: modelled_parallel_cycles(ctx.config.threads, &results),
            results,
            effects,
            wall_nanos: measured(start.elapsed().as_nanos() as u64),
            os_threads: measured(lanes as u64),
            merge,
        })
    }

    /// Runs one speculative (`SPECULATE`) loop invocation through the
    /// `janus-spec` engine on the calling thread. Both backends run the same
    /// engine; the native-threads backend also times it. `recorder` gets one
    /// span per invocation (pass the null recorder to trace nothing).
    pub(crate) fn run_speculative_invocation(
        self,
        lanes: u32,
        base: &mut FlatMemory,
        iterations: usize,
        body: SpecBody<'_>,
        recorder: &Recorder,
    ) -> SpecInvocationOutcome {
        let start = Instant::now();
        let result = {
            let _span = recorder
                .span("dbm.spec", "spec.deterministic")
                .arg("iterations", iterations)
                .arg("lanes", lanes);
            janus_spec::run_speculative(lanes, base, iterations, body)
        };
        let wall_nanos = match self {
            BackendKind::VirtualTime => 0,
            BackendKind::NativeThreads => start.elapsed().as_nanos() as u64,
        };
        SpecInvocationOutcome { result, wall_nanos }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_labels_and_aliases() {
        for kind in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(
            BackendKind::parse("Native-Threads"),
            Some(BackendKind::NativeThreads)
        );
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::VirtualTime));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::default(), BackendKind::VirtualTime);
        assert_eq!(BackendKind::NativeThreads.to_string(), "native");
    }

    #[test]
    fn code_cache_charges_translation_once_and_dispatch_until_linked() {
        let mut cache = CodeCache::new(8);
        assert_eq!(cache.charges(), (0, 0, 0));
        let executed = |cache: &mut CodeCache| {
            cache.counts[4] += 1;
            cache.charges()
        };
        for n in 1..=LINK_THRESHOLD {
            let charged = TRANSLATION_COST + n * DISPATCH_COST;
            assert_eq!(executed(&mut cache), (1, n, charged));
        }
        let linked = (
            1,
            LINK_THRESHOLD + 1,
            TRANSLATION_COST + LINK_THRESHOLD * DISPATCH_COST,
        );
        assert_eq!(executed(&mut cache), linked, "linked");
        // 350 + 16 × 3, the charge every recorded figure was modelled with.
        assert_eq!(linked.2, 398);
    }

    #[test]
    fn batched_charges_equal_per_execution_charges() {
        // A chunk's counts absorbed at once must charge exactly what the
        // same executions charged one at a time — including the partially
        // linked window around the 16th execution.
        for (warmup, batch) in [(0u64, 3u64), (0, 40), (10, 9), (16, 4), (20, 2)] {
            let mut live = CodeCache::new(8);
            live.counts[4] = warmup;
            let mut batched = live.clone();
            let mut per_exec = 0;
            for _ in 0..batch {
                let before = live.charges().2;
                live.counts[4] += 1;
                per_exec += live.charges().2 - before;
            }
            let before = batched.charges().2;
            let mut chunk = vec![0; 8];
            chunk[4] = batch;
            batched.absorb(&chunk);
            let charged = batched.charges().2 - before;
            assert_eq!(charged, per_exec, "warmup {warmup}, batch {batch}");
            assert_eq!(batched.counts, live.counts);
        }
    }

    /// The native backend calls the iteration body exactly as often as the
    /// virtual-time backend does — once per incarnation — and reports the
    /// same counters and image.
    #[test]
    fn both_backends_run_each_incarnation_once() {
        use janus_vm::GuestMemory;
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        // `hist[i % 2] += i`: neighbours two apart collide inside the
        // four-lane window, so some incarnations are retried.
        let body = |i: usize,
                    view: &mut SpecView<'_, FlatMemory>|
         -> std::result::Result<IterationRun<SpecPayload>, DbmError> {
            calls.fetch_add(1, Ordering::Relaxed);
            let addr = 0x3000 + (i as u64 % 2) * 8;
            let v = view.read_u64(addr);
            view.write_u64(addr, v + i as u64);
            Ok(IterationRun {
                cycles: 50,
                payload: SpecPayload {
                    retired: 1,
                    reductions: Vec::new(),
                    last: None,
                },
            })
        };
        let run = |backend: BackendKind| {
            calls.store(0, Ordering::Relaxed);
            let mut base = FlatMemory::new();
            let out =
                backend.run_speculative_invocation(4, &mut base, 40, &body, &Recorder::default());
            let stats = out.result.expect("the invocation converges").stats;
            let image = [base.read_u64(0x3000), base.read_u64(0x3008)];
            (calls.load(Ordering::Relaxed), stats, image)
        };
        let serial = [(0..40).step_by(2).sum::<u64>(), (1..40).step_by(2).sum()];

        let (virt_calls, virt_stats, virt_image) = run(BackendKind::VirtualTime);
        assert_eq!(virt_image, serial);
        assert_eq!(
            virt_calls,
            virt_stats.executions + virt_stats.estimate_stalls,
            "one body call per incarnation"
        );
        assert!(virt_calls > 40, "the conflicts must cause retries");

        let (calls, stats, image) = run(BackendKind::NativeThreads);
        assert_eq!(calls, virt_calls, "the body ran once per incarnation");
        assert_eq!(stats, virt_stats);
        assert_eq!(image, serial);
    }

    #[test]
    fn the_pool_runs_the_first_task_on_the_caller_and_reuses_its_workers() {
        let mut pool = ChunkPool::default();
        let caller = thread::current().id();
        let ids = |pool: &mut ChunkPool, n: usize| {
            let rest: Vec<Job<_>> = (1..n)
                .map(|_| Box::new(|| thread::current().id()) as Job<_>)
                .collect();
            pool.fork_join(|| thread::current().id(), rest)
        };
        assert_eq!(ids(&mut pool, 1), [caller], "one task spawns nothing");
        assert!(pool.workers.is_empty());
        let three = ids(&mut pool, 3);
        assert_eq!(three[0], caller);
        assert!(three[1] != caller && three[2] != caller && three[1] != three[2]);
        assert_eq!(
            ids(&mut pool, 3),
            three,
            "the same parked workers run again"
        );
        assert_eq!(ids(&mut pool, 2)[..], three[..2]);
        assert_eq!(pool.workers.len(), 2);
    }

    #[test]
    fn a_panicking_task_is_resumed_on_the_caller_after_every_other_task() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut pool = ChunkPool::default();
        let finished = Arc::new(AtomicUsize::new(0));
        let (go, wait) = mpsc::channel::<()>();
        let slow = Arc::clone(&finished);
        let rest: Vec<Job<u32>> = vec![
            Box::new(|| panic!("chunk 1 fails")),
            // Held until the caller's own task has run, so it is still busy
            // when the panic reaches the coordinator.
            Box::new(move || {
                wait.recv().expect("the first task signals");
                slow.fetch_add(1, Ordering::SeqCst);
                2
            }),
        ];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.fork_join(
                || {
                    go.send(()).expect("chunk 2 is waiting");
                    0
                },
                rest,
            )
        }));
        let message = caught.expect_err("the worker's panic reaches the caller");
        assert_eq!(message.downcast_ref::<&str>(), Some(&"chunk 1 fails"));
        assert_eq!(finished.load(Ordering::SeqCst), 1, "chunk 2 finished first");
        // The workers survived and run the next batch.
        let rest: Vec<Job<u32>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(pool.fork_join(|| 0, rest), [0, 1, 2]);
    }

    #[test]
    fn modelled_cycles_take_the_lane_makespan() {
        let results: Vec<Cpu> = [300u64, 100, 200]
            .iter()
            .map(|&cycles| {
                let mut cpu = Cpu::new();
                cpu.cycles = cycles;
                cpu
            })
            .collect();
        // Three chunks over three lanes: makespan is the largest chunk.
        assert_eq!(modelled_parallel_cycles(3, &results), 300);
        // One lane: everything serialises.
        assert_eq!(modelled_parallel_cycles(1, &results), 600);
    }
}
