//! `serve-hot`: one serving session, rounds of one job per train-scale suite
//! binary, `submit` x 13 then `join`.
//!
//! After the warm-up round every probe is a memory-cache hit, so queue,
//! deficit-round-robin, executor and metering overhead ride on top of
//! execution: serve used for reads of a resident working set. Workers = T,
//! one janus thread per job, three tenants, telemetry endpoint open.

use super::{bump, fold, tail, Counts, Ops, Reading, Workload};
use crate::harness::{self, Cfg, Rng, Scale, SuiteBinary};
use crate::micro;
use crate::reference::{Expected, GuestResult};
use crate::stats::median;
use crate::trace::Tracer;
use janus::core::{Janus, PreparedDbm};
use janus::obs::metrics::Registry;
use janus::obs::Recorder;
use janus::serve::{
    Artifact, ArtifactCache, JobId, JobOutcome, JobSpec, ServeConfig, ServeHandle, ServeSession,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];

/// A joined round: each submitted id with its job's index, and the outcomes.
type Finished = (Vec<(JobId, usize)>, Vec<JobOutcome>);

struct Job {
    suite: SuiteBinary,
    spec: JobSpec,
}

pub struct ServeHot {
    cfg: Cfg,
    expected: Expected,
    janus: Janus,
    registry: Registry,
    handle: ServeHandle,
    jobs: Vec<Job>,
    rng: Rng,
    /// Traced runs only: the same jobs prepared for direct execution, and a
    /// second session with the serving layer's own flight recorder on.
    direct: Vec<PreparedDbm>,
    recorded: Option<ServeHandle>,
    job_service_ms: Vec<f64>,
    hits_per_round: u64,
    scrape_bytes: u64,
}

fn serve_config(cfg: &Cfg, registry: &Registry, trace: Recorder) -> ServeConfig {
    ServeConfig {
        workers: cfg.threads as usize,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        metrics: Some(registry.clone()),
        trace,
        ..ServeConfig::default()
    }
}

/// Submits every job once, so every later probe finds its artifact resident.
fn fill_cache(handle: &ServeHandle, jobs: &[Job]) -> Result<(), String> {
    for job in jobs {
        handle
            .submit(job.spec.clone())
            .map_err(|e| format!("{}: cache-fill submission rejected: {e}", job.suite.name))?;
    }
    let _ = handle.join();
    Ok(())
}

impl ServeHot {
    pub fn setup(cfg: &Cfg) -> Result<ServeHot, String> {
        let expected = Expected::load(&cfg.expected)?;
        // One janus thread per job: the workers are the parallelism.
        let janus = harness::janus_with(1);
        let registry = Registry::new();
        let handle = janus
            .try_serve(serve_config(cfg, &registry, Recorder::disabled()))
            .map_err(|e| format!("serving session: {e}"))?;
        let mut rng = Rng::new(cfg.seed, 2);
        let jobs: Vec<Job> = harness::compile_suite(&harness::suite_names(), Scale::Train)
            .into_iter()
            .map(|suite| {
                let tenant = TENANTS[rng.below(TENANTS.len())];
                let spec = JobSpec::new(suite.binary.clone()).with_tenant(tenant);
                Job { suite, spec }
            })
            .collect();

        fill_cache(&handle, &jobs)?;

        let (direct, recorded) = if cfg.trace {
            let direct = jobs
                .iter()
                .map(|job| {
                    let artifacts = janus
                        .prepare(&job.suite.binary, &[])
                        .map_err(|e| format!("{}: prepare failed: {e}", job.suite.name))?;
                    Ok(PreparedDbm::new(
                        job.suite.process.clone(),
                        &artifacts.schedule,
                        janus.dbm_config(),
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let recorded = janus
                .try_serve(serve_config(cfg, &Registry::new(), Recorder::enabled()))
                .map_err(|e| format!("recorded serving session: {e}"))?;
            fill_cache(&recorded, &jobs)?;
            (direct, Some(recorded))
        } else {
            (Vec::new(), None)
        };

        Ok(ServeHot {
            cfg: cfg.clone(),
            expected,
            janus,
            registry,
            handle,
            jobs,
            rng,
            direct,
            recorded,
            job_service_ms: Vec::new(),
            hits_per_round: 0,
            scrape_bytes: 0,
        })
    }

    /// One round on `handle`: every job once, in `order`, then `join`.
    /// Returns what was submitted and every outcome, for [`Self::check`].
    fn round(
        &self,
        handle: &ServeHandle,
        order: &[usize],
        t: &mut Tracer,
        ops: &mut Ops,
    ) -> Finished {
        let mut submitted = Vec::with_capacity(order.len());
        for &i in order {
            let job = &self.jobs[i];
            let id = t.time("serve.submit", job.suite.name, || {
                handle.submit(job.spec.clone())
            });
            match id {
                Ok(id) => submitted.push((id, i)),
                Err(e) => ops.check(Err(format!("{}: submission rejected: {e}", job.suite.name))),
            }
        }
        let outcomes = t.time("serve.join", "", || handle.join());
        (submitted, outcomes)
    }

    /// Checks a finished round, outside the time the round is charged.
    fn check(
        &self,
        (mut submitted, outcomes): Finished,
        ops: &mut Ops,
        counts: &mut Counts,
        service_ms: &mut Vec<f64>,
    ) {
        // Job order, not the round's seeded order: the digest fold repeats.
        submitted.sort_by_key(|&(_, i)| i);
        for (id, i) in submitted {
            let name = self.jobs[i].suite.name;
            let outcome = outcomes.iter().find(|(done, _)| *done == id);
            ops.check(match outcome {
                Some((_, Ok(report))) => {
                    bump(counts, "serve.job_cycles", report.cycles);
                    fold(counts, "serve.memory_digest_fold", report.memory_digest);
                    service_ms.push(report.wall_nanos as f64 / 1e6);
                    self.expected
                        .check_outputs(Scale::Train, name, &GuestResult::from_job(report))
                }
                Some((_, Err(e))) => Err(format!("{name}: job failed: {e}")),
                None => Err(format!("{name}: job {id} has no outcome")),
            });
        }
    }

    fn http_get(handle: &ServeHandle, path: &str) -> Result<usize, String> {
        let addr = handle
            .telemetry_addr()
            .ok_or("telemetry endpoint is not open")?;
        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write!(stream, "GET {path} HTTP/1.0\r\nHost: janus\r\n\r\n").map_err(|e| e.to_string())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        if !raw.starts_with(b"HTTP/1.0 200") {
            return Err(format!("GET {path}: not a 200 response"));
        }
        Ok(raw.len())
    }
}

impl Workload for ServeHot {
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts {
        let mut counts = Counts::new();
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        self.rng.shuffle(&mut order);
        let hits_before = self.handle.stats().cache_hits;
        let misses_before = self.handle.stats().cache_misses;

        let mut service_ms = Vec::new();
        let part = Instant::now();
        let round = t.begin("round", "");
        let finished = self.round(&self.handle, &order, t, ops);
        t.end(round);
        ops.timed(part);
        t.time("bench.check", "", || {
            self.check(finished, ops, &mut counts, &mut service_ms)
        });

        let stats = self.handle.stats();
        bump(&mut counts, "serve.jobs", order.len() as u64);
        // The cache was filled in set-up: nothing is analysed again.
        bump(
            &mut counts,
            "serve.cache_misses",
            stats.cache_misses - misses_before,
        );
        self.hits_per_round = stats.cache_hits - hits_before;

        if t.is_enabled() {
            self.job_service_ms.extend(service_ms);

            // HTTP GETs between rounds, outside the timed interval.
            for (name, path) in [("serve.scrape", "/metrics"), ("serve.statusz", "/statusz")] {
                let x = t.begin_extra(name, path);
                let got = Self::http_get(&self.handle, path);
                t.end(x);
                match got {
                    Ok(bytes) if name == "serve.scrape" => self.scrape_bytes = bytes as u64,
                    Ok(_) => {}
                    Err(e) => ops.check(Err(e)),
                }
            }

            // The same jobs straight through `PreparedDbm::execute` on T
            // plain threads: what the round costs without a serving layer.
            let x = t.begin_extra("serve.direct", "");
            let next = AtomicUsize::new(0);
            let (jobs, direct, expected, order) =
                (&self.jobs, &self.direct, &self.expected, &order);
            let failures: Vec<String> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.cfg.threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut failures = Vec::new();
                            loop {
                                let slot = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&i) = order.get(slot) else { break };
                                let name = jobs[i].suite.name;
                                match direct[i].execute(&[]) {
                                    Ok(run) => {
                                        if let Err(e) = expected.check_outputs(
                                            Scale::Train,
                                            name,
                                            &GuestResult::from_dbm(&run),
                                        ) {
                                            failures.push(e);
                                        }
                                    }
                                    Err(e) => {
                                        failures.push(format!("{name}: direct execute failed: {e}"))
                                    }
                                }
                            }
                            failures
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("direct-execution thread"))
                    .collect()
            });
            t.end(x);
            ops.check(failures.into_iter().next().map_or(Ok(()), Err));

            // The same round on the session whose flight recorder is on.
            if let Some(recorded) = &self.recorded {
                let x = t.begin_extra("serve.round.recorded", "");
                let finished = self.round(recorded, order, &mut Tracer::new(false), ops);
                t.end(x);
                self.check(finished, ops, &mut Counts::new(), &mut Vec::new());
            }
        }
        counts
    }

    fn layers(&mut self, t: &Tracer) -> Vec<Reading> {
        let round_s: Vec<f64> = t.durations("round").iter().map(|ns| ns / 1e9).collect();
        let round_med = median(&round_s);
        let jobs = self.jobs.len() as f64;

        // Session open and shutdown on a throwaway session of the same shape.
        let mut open_ms = Vec::new();
        let mut shutdown_ms = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let session = self.janus.try_serve(serve_config(
                &self.cfg,
                &Registry::new(),
                Recorder::disabled(),
            ));
            open_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if let Ok(session) = session {
                let start = Instant::now();
                black_box(session.shutdown());
                shutdown_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }

        // A probe of a resident key, without the executor around it.
        let cache = ArtifactCache::new(64);
        let job = &self.jobs[0];
        let digest = job.spec.binary_digest;
        let build = || {
            let pipeline = self.janus.prepare(&job.suite.binary, &[]).map_err(|e| {
                janus::serve::ServeError::Build {
                    digest,
                    reason: e.to_string(),
                }
            })?;
            let prepared = PreparedDbm::new(
                job.suite.process.clone(),
                &pipeline.schedule,
                self.janus.dbm_config(),
            );
            Ok(Artifact::new(pipeline, prepared))
        };
        let _ = cache.get_or_build(digest, |_| unreachable!("no disk tier"), build);
        let probes = self.cfg.micro_iters(1 << 16);
        let start = Instant::now();
        for _ in 0..probes {
            let _ = black_box(cache.get_or_build(
                black_box(digest),
                |_| unreachable!("no disk tier"),
                || unreachable!("the key is resident"),
            ));
        }
        let cache_hit_us = start.elapsed().as_nanos() as f64 / 1e3 / probes as f64;

        let obs = micro::observability(self.cfg.micro_iters(1 << 18), &self.registry);
        vec![
            ("serve.open_ms", median(&open_ms)),
            ("serve.shutdown_ms", median(&shutdown_ms)),
            ("serve.submit_us", t.mean_ns("serve.submit") / 1e3),
            ("serve.cache_hit_us", cache_hit_us),
            ("serve.job_service_p50_ms", median(&self.job_service_ms)),
            ("serve.job_service_tail_ms", tail(&self.job_service_ms)),
            ("serve.round_tail_ms", tail(&round_s) * 1e3),
            ("serve.jobs_per_s", jobs / round_med),
            (
                "serve.overhead_share",
                round_med / median(&t.durations("serve.direct")) * 1e9 - 1.0,
            ),
            ("serve.scrape_us", t.mean_ns("serve.scrape") / 1e3),
            ("serve.scrape_bytes", self.scrape_bytes as f64),
            ("serve.statusz_us", t.mean_ns("serve.statusz") / 1e3),
            // Per round, not over the session: the set-up fill is not traffic.
            ("serve.cache_hit_ratio", self.hits_per_round as f64 / jobs),
            ("serve.cache_hits", self.hits_per_round as f64),
            ("obs.counter_inc_ns", obs.counter_inc_ns),
            ("obs.hist_record_ns", obs.hist_record_ns),
            ("obs.span_ns", obs.span_ns),
            ("obs.span_disabled_ns", obs.span_disabled_ns),
            ("obs.prometheus_text_us", obs.prometheus_text_us),
            (
                "obs.trace_overhead_share",
                median(&t.durations("serve.round.recorded")) / 1e9 / round_med - 1.0,
            ),
        ]
    }
}
