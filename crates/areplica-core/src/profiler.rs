//! The offline performance profiler (§4, §5.3).
//!
//! "When a cloud platform or a user wants to onboard a new cloud platform or
//! a new cloud region ... it requires offline profiling to collect necessary
//! performance metrics." The profiler runs a set of test cases — real
//! invocations and transfers through the same pipeline the engine uses —
//! against a *sandbox* backend (see [`Backend::profiling_sandbox`]),
//! measures `I`, `D`, `S`, `C`, `C′`, and the notification delay, and fits
//! them into a [`PerfModel`].
//!
//! `P` (the scale-out scheduler postponement) is taken from the platforms'
//! public documentation, exactly as the paper does ("the scheduler of Google
//! Cloud Run Functions runs every five seconds"); measured cold-start
//! samples are corrected for the expected tick wait so `D` is not
//! double-counted.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cloudapi::faas::{FnHandle, FnSpec, RetryPolicy};
use cloudapi::{Cloud, RegionId};
use stats::{fit_auto, Dist};

use crate::backend::{Backend, Exec, FnBody};
use crate::model::{ExecSide, LocParams, PathKey, PathParams, PerfModel};

/// Profiling budget and knobs.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Warm invocations measured per region (fits `I`).
    pub warm_samples: usize,
    /// Cold invocations measured per region (fits `D`).
    pub cold_samples: usize,
    /// Transfer invocations per path (each yields one `S` sample and
    /// `chunks_per_invocation` samples of `C` and of `C′`).
    pub transfer_samples: usize,
    /// Chunks transferred per measurement invocation.
    pub chunks_per_invocation: u64,
    /// Notification deliveries measured per source region.
    pub notif_samples: usize,
    /// Monte-Carlo budget handed to the resulting model.
    pub mc_trials: usize,
}

/// The profiling sandbox's seed, independent of experiment seeds.
pub const SANDBOX_SEED: u64 = 0xA11CE;

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            warm_samples: 8,
            cold_samples: 6,
            transfer_samples: 8,
            chunks_per_invocation: 4,
            notif_samples: 10,
            mc_trials: 3000,
        }
    }
}

/// Publicly documented scale-out scheduler period per platform, in seconds
/// (the paper cites Cloud Run's 5-second scheduler and observes similar
/// behaviour on Azure; Lambda scales out without batching).
pub fn documented_scheduler_period(cloud: Cloud) -> f64 {
    match cloud {
        Cloud::Aws => 0.0,
        Cloud::Azure => 4.0,
        Cloud::Gcp => 5.0,
    }
}

/// Profiling failed to produce a usable model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// A probe stage yielded too few (or degenerate) samples, so no
    /// distribution could be fitted — usually a zero-sample
    /// [`ProfilerConfig`].
    NoFit {
        /// Which measurement failed (e.g. `"warm invocations"`).
        stage: &'static str,
        /// The region or path being profiled, pre-rendered for display.
        subject: String,
        /// The underlying fitting failure.
        cause: stats::FitError,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NoFit {
                stage,
                subject,
                cause,
            } => {
                write!(f, "profiling {subject}: cannot fit {stage}: {cause}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

fn no_fit(
    stage: &'static str,
    subject: impl std::fmt::Debug,
) -> impl FnOnce(stats::FitError) -> ProfileError {
    move |cause| ProfileError::NoFit {
        stage,
        subject: format!("{subject:?}"),
        cause,
    }
}

type Samples = Rc<RefCell<Vec<f64>>>;
/// A one-shot continuation cell consumed by a re-runnable body.
type OnceCont<B> = Rc<RefCell<Option<Box<dyn FnOnce(&mut B)>>>>;

type Job<B> = Box<dyn FnOnce(&mut B, Box<dyn FnOnce(&mut B)>)>;

fn run_job_chain<B: Backend>(sim: &mut B, queue: Rc<RefCell<VecDeque<Job<B>>>>) {
    let job = queue.borrow_mut().pop_front();
    if let Some(job) = job {
        job(
            sim,
            Box::new(move |sim| {
                run_job_chain(sim, queue);
            }),
        );
    }
}

/// Profiles the given `(src, dst)` pairs (both execution sides each) plus
/// every involved region's invocation behaviour, and returns the fitted
/// model.
///
/// `sim` should be a fresh sandbox backend (from
/// [`Backend::profiling_sandbox`]); profiling drives it to completion and
/// leaves probe buckets behind.
///
/// Transfers are measured in chunks of `chunk_size` bytes, which must be the
/// engine's part size.
///
/// Fails with [`ProfileError::NoFit`] when a probe stage collects too few
/// samples to fit a distribution (e.g. a zero-sample [`ProfilerConfig`]).
pub fn build_model<B: Backend>(
    sim: &mut B,
    pairs: &[(RegionId, RegionId)],
    cfg: &ProfilerConfig,
    chunk_size: u64,
) -> Result<PerfModel, ProfileError> {
    // Collect the distinct regions to profile.
    let mut locs: Vec<RegionId> = Vec::new();
    let mut srcs: Vec<RegionId> = Vec::new();
    for &(s, d) in pairs {
        for r in [s, d] {
            if !locs.contains(&r) {
                locs.push(r);
            }
        }
        if !srcs.contains(&s) {
            srcs.push(s);
        }
    }

    let queue: Rc<RefCell<VecDeque<Job<B>>>> = Rc::new(RefCell::new(VecDeque::new()));

    // Per-region invocation profiling.
    let mut loc_collectors = Vec::new();
    for &region in &locs {
        let warm: Samples = Rc::default();
        let cold: Samples = Rc::default();
        queue.borrow_mut().push_back(profile_invocations_job(
            region,
            cfg.clone(),
            warm.clone(),
            cold.clone(),
        ));
        loc_collectors.push((region, warm, cold));
    }

    // Notification delay profiling per source region.
    let mut notif_collectors = Vec::new();
    for &region in &srcs {
        let samples: Samples = Rc::default();
        queue.borrow_mut().push_back(profile_notifications_job(
            region,
            cfg.clone(),
            samples.clone(),
        ));
        notif_collectors.push((region, samples));
    }

    // Per-path transfer profiling.
    let mut path_collectors = Vec::new();
    for &(src, dst) in pairs {
        for side in ExecSide::BOTH {
            let s: Samples = Rc::default();
            let c: Samples = Rc::default();
            let c_dist: Samples = Rc::default();
            queue.borrow_mut().push_back(profile_path_job(TransferJob {
                src,
                dst,
                loc: side.region(src, dst),
                src_bucket: format!("areplica-profile-src-{}", src.index()),
                dst_bucket: format!("areplica-profile-dst-{}", dst.index()),
                cfg: cfg.clone(),
                chunk_size,
                s_out: s.clone(),
                c_out: c.clone(),
                c_dist_out: c_dist.clone(),
            }));
            path_collectors.push((PathKey { src, dst, side }, s, c, c_dist));
        }
    }

    run_job_chain(sim, queue);
    sim.run_to_completion(50_000_000);

    // Fit everything into the model.
    let mut model = PerfModel::new(chunk_size, cfg.mc_trials, SANDBOX_SEED ^ 0x5eed);
    for (region, warm, cold) in loc_collectors {
        let cloud = sim.cloud_of(region);
        let invoke = fit_auto(&warm.borrow()).map_err(no_fit("warm invocations", region))?;
        let period = documented_scheduler_period(cloud);
        // Cold samples measured (invoke -> body start) include I, the tick
        // wait, and D; strip the expected tick wait and one I.
        let d_samples: Vec<f64> = cold
            .borrow()
            .iter()
            .map(|t| (t - invoke.mean() - period / 2.0).max(0.01))
            .collect();
        let cold_fit = fit_auto(&d_samples).map_err(no_fit("cold starts", region))?;
        let postpone = if period > 0.0 {
            Dist::Uniform {
                lo: 0.0,
                hi: period,
            }
        } else {
            Dist::Constant(0.0)
        };
        model.set_loc(
            region,
            LocParams {
                invoke,
                cold: cold_fit,
                postpone,
            },
        );
    }
    for (region, samples) in notif_collectors {
        let fit = fit_auto(&samples.borrow()).map_err(no_fit("notifications", region))?;
        model.set_notif(region, fit);
    }
    for (key, s, c, c_dist) in path_collectors {
        // Chunk samples arrive grouped by invocation (chunks_per_invocation
        // consecutive samples per instance); the spread of per-invocation
        // means is the correlated between-instance component.
        let instance_cv = between_instance_cv(&c.borrow(), cfg.chunks_per_invocation as usize);
        model.set_path(
            key,
            PathParams {
                setup: fit_auto(&s.borrow()).map_err(no_fit("transfer setup", key))?,
                chunk: fit_auto(&c.borrow()).map_err(no_fit("chunk transfers", key))?,
                chunk_distributed: fit_auto(&c_dist.borrow())
                    .map_err(no_fit("distributed chunk transfers", key))?,
                instance_cv,
            },
        );
    }
    Ok(model)
}

/// Coefficient of variation of per-invocation mean chunk times.
fn between_instance_cv(samples: &[f64], group: usize) -> f64 {
    if group == 0 || samples.len() < 2 * group {
        return 0.0;
    }
    let means: Vec<f64> = samples
        .chunks(group)
        .filter(|c| c.len() == group)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    if means.len() < 2 {
        return 0.0;
    }
    let m = means.iter().sum::<f64>() / means.len() as f64;
    if m <= 0.0 {
        return 0.0;
    }
    let var = means.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (means.len() - 1) as f64;
    (var.sqrt() / m).min(1.5)
}

/// Measures warm `I` and cold `I + wait + D` for one region.
fn profile_invocations_job<B: Backend>(
    region: RegionId,
    cfg: ProfilerConfig,
    warm: Samples,
    cold: Samples,
) -> Job<B> {
    Box::new(move |sim, done| {
        let base = sim.default_fn_spec(region);
        // Cold starts: a distinct memory size per attempt defeats warm reuse.
        // Sequence: cold_samples cold invocations, then warm_samples + 1
        // invocations on one more distinct size (first cold discarded, rest
        // warm).
        run_invocation_seq(sim, region, base, cfg, warm, cold, 0, done);
    })
}

#[expect(
    clippy::too_many_arguments,
    reason = "continuation step: each callback hands the probe loop's state to the next, so it travels as parameters"
)]
fn run_invocation_seq<B: Backend>(
    sim: &mut B,
    region: RegionId,
    base: FnSpec,
    cfg: ProfilerConfig,
    warm: Samples,
    cold: Samples,
    idx: usize,
    done: Box<dyn FnOnce(&mut B)>,
) {
    let total = cfg.cold_samples + cfg.warm_samples + 1;
    if idx >= total {
        done(sim);
        return;
    }
    let mut spec = base;
    let is_cold_phase = idx < cfg.cold_samples;
    // Distinct sizes per cold attempt; a single shared size for the warm
    // phase (its first invocation is a discarded cold start).
    spec.config.memory_mb = if is_cold_phase {
        base.config.memory_mb + 64 * (idx as u32 + 1)
    } else {
        base.config.memory_mb + 8192
    };
    let invoked_at = sim.now();
    let warm2 = warm.clone();
    let cold2 = cold.clone();
    let cfg2 = cfg.clone();
    // The chain continuation lives in a one-shot cell captured by the
    // (re-runnable) body; profiling is strictly sequential so it is consumed
    // exactly once.
    let done_cell: OnceCont<B> = Rc::new(RefCell::new(Some(done)));
    let body: FnBody<B> = Rc::new(move |sim, handle| {
        let elapsed = (sim.now() - invoked_at).as_secs_f64();
        if is_cold_phase {
            cold2.borrow_mut().push(elapsed);
        } else if idx > cfg2.cold_samples {
            // Warm measurement (the first warm-phase invocation was cold).
            warm2.borrow_mut().push(elapsed);
        }
        sim.finish_function(handle);
        let taken = done_cell.borrow_mut().take();
        if let Some(done) = taken {
            run_invocation_seq(
                sim,
                region,
                base,
                cfg2.clone(),
                warm2.clone(),
                cold2.clone(),
                idx + 1,
                done,
            );
        }
    });
    sim.invoke(region, spec, body, RetryPolicy::PLATFORM_DEFAULT);
}

/// Measures notification delivery delay for one region.
fn profile_notifications_job<B: Backend>(
    region: RegionId,
    cfg: ProfilerConfig,
    samples: Samples,
) -> Job<B> {
    Box::new(move |sim, done| {
        let bucket = format!("areplica-profile-notif-{}", region.index());
        sim.create_bucket(region, &bucket);
        let samples2 = samples.clone();
        let remaining = Rc::new(RefCell::new(cfg.notif_samples));
        let done_cell = Rc::new(RefCell::new(Some(done)));
        let bucket2 = bucket.clone();
        #[expect(
            clippy::expect_used,
            reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
        )]
        sim.subscribe_bucket(
            region,
            &bucket,
            Rc::new(move |sim: &mut B, _region, ev| {
                let delay = (sim.now() - ev.event_time).as_secs_f64();
                samples2.borrow_mut().push(delay);
                let mut rem = remaining.borrow_mut();
                *rem -= 1;
                if *rem == 0 {
                    if let Some(done) = done_cell.borrow_mut().take() {
                        done(sim);
                    }
                } else {
                    let key = format!("probe-{}", *rem);
                    drop(rem);
                    #[expect(
                        clippy::expect_used,
                        reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
                    )]
                    sim.user_put(_region, &bucket2, &key, 1024)
                        .expect("probe put");
                }
            }),
        )
        .expect("subscribe");
        #[expect(
            clippy::expect_used,
            reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
        )]
        sim.user_put(region, &bucket, "probe-first", 1024)
            .expect("probe put");
    })
}

/// Measures `S`, `C`, and `C′` for one path/side.
fn profile_path_job<B: Backend>(job: TransferJob) -> Job<B> {
    Box::new(move |sim, done| {
        sim.create_bucket(job.src, &job.src_bucket);
        sim.create_bucket(job.dst, &job.dst_bucket);
        let probe_size = job.chunk_size * job.cfg.chunks_per_invocation;
        #[expect(
            clippy::expect_used,
            reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
        )]
        sim.user_put(job.src, &job.src_bucket, "probe-object", probe_size)
            .expect("probe object");
        run_transfer_seq(sim, job, 0, done);
    })
}

#[derive(Clone)]
struct TransferJob {
    src: RegionId,
    dst: RegionId,
    loc: RegionId,
    src_bucket: String,
    dst_bucket: String,
    cfg: ProfilerConfig,
    /// The engine's part size, the chunk every probe transfer moves.
    chunk_size: u64,
    s_out: Samples,
    c_out: Samples,
    c_dist_out: Samples,
}

fn run_transfer_seq<B: Backend>(
    sim: &mut B,
    job: TransferJob,
    iteration: usize,
    done: Box<dyn FnOnce(&mut B)>,
) {
    if iteration >= job.cfg.transfer_samples {
        done(sim);
        return;
    }
    let loc = job.loc;
    // A distinct memory size per sample defeats warm reuse, so every sample
    // runs on a *fresh* instance: the per-path fit then averages over the
    // instance speed-factor distribution instead of inheriting one unlucky
    // instance's bias, and the spread across samples is exactly the
    // between-instance variability the model's `instance_cv` captures.
    // (+1 MB steps keep the NIC-vs-memory effect below 1%.)
    let mut spec = sim.default_fn_spec(loc);
    spec.config.memory_mb += iteration as u32 + 1;
    let job2 = job.clone();
    let done_cell: TransferDone<B> = Rc::new(RefCell::new(Some((done, iteration))));
    let body: FnBody<B> = Rc::new(move |sim, handle| {
        let job = job2.clone();
        let done_cell = done_cell.clone();
        let started = sim.now();
        let cloud = sim.cloud_of(handle.region);
        let setup = sim.sample_transfer_setup(cloud);
        sim.schedule_in(setup, move |sim| {
            job.s_out
                .borrow_mut()
                .push((sim.now() - started).as_secs_f64());
            let exec = Exec::Function(handle);
            let job2 = job.clone();
            let done_cell = done_cell.clone();
            let probe_key = format!("probe-copy-{}", sim.now().as_nanos());
            sim.create_multipart(
                exec,
                job.dst,
                job.dst_bucket.clone(),
                probe_key,
                move |sim, upload| {
                    #[expect(
                        clippy::expect_used,
                        reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
                    )]
                    let upload_id = upload.expect("profile multipart");
                    measure_chunks(sim, handle, job2, upload_id, 0, false, done_cell);
                },
            );
        });
    });
    sim.invoke(loc, spec, body, RetryPolicy::PLATFORM_DEFAULT);
}

/// Measures one chunk (GET + upload_part, optionally bracketed by the two
/// DB accesses of distributed mode), then recurses; flips from the `C` phase
/// to the `C′` phase and finally chains the next invocation.
type TransferDone<B> = Rc<RefCell<Option<(Box<dyn FnOnce(&mut B)>, usize)>>>;

fn measure_chunks<B: Backend>(
    sim: &mut B,
    handle: FnHandle,
    job: TransferJob,
    upload_id: u64,
    chunk: u64,
    with_db: bool,
    done_cell: TransferDone<B>,
) {
    if chunk >= job.cfg.chunks_per_invocation {
        if !with_db {
            // Switch to the distributed-mode measurement phase.
            measure_chunks(sim, handle, job, upload_id, 0, true, done_cell);
        } else {
            // Done with this invocation: clean up and chain.
            let exec = Exec::Function(handle);
            sim.stat_object(
                exec,
                job.dst,
                job.dst_bucket.clone(),
                "probe-cleanup".into(),
                move |sim, _| {
                    sim.abort_multipart_now(job.dst, upload_id).ok();
                    sim.finish_function(handle);
                    let taken = done_cell.borrow_mut().take();
                    if let Some((done, iteration)) = taken {
                        run_transfer_seq(sim, job, iteration + 1, done);
                    }
                },
            );
        }
        return;
    }
    let exec = Exec::Function(handle);
    let t0 = sim.now();
    let job2 = job.clone();
    let transfer = move |sim: &mut B| {
        let done_cell = done_cell.clone();
        let job = job2.clone();
        let offset = chunk * job.chunk_size;
        sim.get_object_range(
            exec,
            job.src,
            job.src_bucket.clone(),
            "probe-object".into(),
            offset,
            job.chunk_size,
            None,
            move |sim, got| {
                #[expect(
                    clippy::expect_used,
                    reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
                )]
                let (content, _) = got.expect("probe read");
                let job2 = job.clone();
                sim.upload_part(
                    exec,
                    job.dst,
                    upload_id,
                    chunk as u32 + 1,
                    content,
                    move |sim, up| {
                        #[expect(
                            clippy::expect_used,
                            reason = "the profiler owns its sandbox: probe buckets/objects are created by this module immediately beforehand, so a miss is a simulator bug"
                        )]
                        up.expect("probe upload");
                        let job_db = job2.clone();
                        let finish = move |sim: &mut B| {
                            let elapsed = (sim.now() - t0).as_secs_f64();
                            let out = if with_db {
                                &job2.c_dist_out
                            } else {
                                &job2.c_out
                            };
                            out.borrow_mut().push(elapsed);
                            measure_chunks(
                                sim,
                                handle,
                                job2.clone(),
                                upload_id,
                                chunk + 1,
                                with_db,
                                done_cell,
                            );
                        };
                        if with_db {
                            // The status-update DB access of Algorithm 1.
                            let job3 = job_db.clone();
                            sim.db_transact(
                                exec,
                                job_db.loc,
                                "areplica_profile".into(),
                                "status".into(),
                                |_| (),
                                move |sim, ()| {
                                    let _ = &job3;
                                    finish(sim);
                                },
                            );
                        } else {
                            finish(sim);
                        }
                    },
                );
            },
        );
    };
    if with_db {
        // The claim DB access of Algorithm 1.
        sim.db_transact(
            exec,
            job.loc,
            "areplica_profile".into(),
            "claim".into(),
            |_| (),
            move |sim, ()| transfer(sim),
        );
    } else {
        transfer(sim);
    }
}
