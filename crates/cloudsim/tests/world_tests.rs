//! Integration tests across the cloudsim services: function lifecycle,
//! storage data plane, database transactions, VMs, notifications, and fault
//! injection.

use std::cell::RefCell;
use std::rc::Rc;

use cloudsim::faas::{self, FailureReason, FnHandle, RetryPolicy};
use cloudsim::fault::{FaultDecider, FaultSite};
use cloudsim::objstore::{Content, EventKind, StoreError};
use cloudsim::vm;
use cloudsim::world::{self, CloudSim, Executor};
use cloudsim::{Cloud, RegionId, World};
use pricing::{CostCategory, Money};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkernel::{SimDuration, SimTime};

fn sim() -> CloudSim {
    World::paper_sim(42)
}

fn region(sim: &CloudSim, cloud: Cloud, name: &str) -> RegionId {
    sim.world.regions.lookup(cloud, name).unwrap()
}

fn platform(region: RegionId) -> Executor {
    Executor::Platform {
        region,
        mbps: 1000.0,
    }
}

#[test]
fn function_invoke_finish_lifecycle() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let done: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let done2 = done.clone();
    let body: faas::FnBody = Rc::new(move |sim, handle| {
        let done2 = done2.clone();
        // Simulate 100 ms of work then finish.
        sim.schedule_in(SimDuration::from_millis(100), move |sim| {
            done2.borrow_mut().push(sim.now());
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
    sim.run_to_completion(10_000);
    assert_eq!(done.borrow().len(), 1);
    // Started after invocation latency + cold start, well under a second on AWS.
    let t = done.borrow()[0];
    assert!(t.as_secs_f64() > 0.1 && t.as_secs_f64() < 2.0, "{t}");
    assert_eq!(sim.world.faas.stats.cold_starts, 1);
    // Compute was billed.
    assert!(
        sim.world
            .ledger
            .category_total(CostCategory::FunctionCompute)
            > Money::ZERO
    );
    assert!(
        sim.world
            .ledger
            .category_total(CostCategory::FunctionRequests)
            > Money::ZERO
    );
}

#[test]
fn warm_instances_are_reused() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let body: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_millis(50), move |sim| {
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, use1, spec, body.clone(), RetryPolicy::default());
    sim.run_until(SimTime::from_nanos(5_000_000_000));
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 1);
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
    sim.run_until(SimTime::from_nanos(10_000_000_000));
    assert_eq!(sim.world.faas.stats.cold_starts, 1);
    assert_eq!(sim.world.faas.stats.warm_starts, 1);
}

#[test]
fn warm_instances_expire() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let body: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_millis(50), move |sim| {
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
    sim.run_to_completion(10_000);
    // After the idle expiry (10 min) the warm pool is empty.
    assert!(sim.now() >= SimTime::from_nanos(600_000_000_000));
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 0);
}

#[test]
fn timeout_fails_and_retries_to_dlq() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let mut spec = faas::default_spec(&sim.world, use1);
    spec.timeout = SimDuration::from_secs(1);
    // A body that never finishes.
    let body: faas::FnBody = Rc::new(|_sim, _handle| {});
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy { max_retries: 2 });
    sim.run_to_completion(10_000);
    assert_eq!(sim.world.faas.stats.timeouts, 3, "initial + 2 retries");
    assert_eq!(sim.world.faas.stats.retries, 2);
    assert_eq!(sim.world.faas.dlq.len(), 1);
    assert_eq!(sim.world.faas.dlq[0].reason, FailureReason::Timeout);
    assert_eq!(sim.world.faas.active_in(use1), 0);
}

#[test]
fn unfinished_bodies_time_out_exactly_at_their_deadlines() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let began: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let hang: faas::FnBody = {
        let began = began.clone();
        Rc::new(move |sim, _handle| began.borrow_mut().push(sim.now()))
    };
    let quick: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            faas::finish(sim, handle)
        });
    });
    let once = RetryPolicy { max_retries: 0 };
    // Two hung invocations with a finished one between them: the watchdog
    // re-arms past the finished one's deadline to the second hang's.
    faas::invoke(&mut sim, use1, spec, hang.clone(), once);
    let after = |s| SimDuration::from_secs(s);
    faas::invoke_after(&mut sim, after(5), use1, spec, quick, once);
    faas::invoke_after(&mut sim, after(30), use1, spec, hang, once);
    sim.run_to_completion(10_000);
    let timeout = sim.world.params.cloud(Cloud::Aws).fn_timeout;
    let dlq = &sim.world.faas.dlq;
    assert_eq!(dlq.len(), 2);
    for (entry, &began) in dlq.iter().zip(began.borrow().iter()) {
        assert_eq!(entry.reason, FailureReason::Timeout);
        assert_eq!(entry.at, began + timeout);
    }
    assert_eq!(sim.world.faas.stats.timeouts, 2);
    assert_eq!(sim.world.faas.active_in(use1), 0);
}

#[test]
fn finished_invocations_leave_no_timers_queued() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let began: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let done: Rc<RefCell<u32>> = Rc::default();
    let body: faas::FnBody = {
        let (began, done) = (began.clone(), done.clone());
        Rc::new(move |sim, handle| {
            began.borrow_mut().push(sim.now());
            let done = done.clone();
            sim.schedule_in(SimDuration::from_millis(50), move |sim| {
                *done.borrow_mut() += 1;
                faas::finish(sim, handle);
            });
        })
    };
    for i in 0..1_000 {
        let delay = SimDuration::from_millis(i);
        faas::invoke_after(
            &mut sim,
            delay,
            use1,
            spec,
            body.clone(),
            RetryPolicy::default(),
        );
    }
    assert!(sim.run_while_pending(|_| *done.borrow() == 1_000));
    // Only the watchdog armed at the first deadline is left, and it finds
    // nothing due.
    assert_eq!(sim.pending_events(), 1);
    assert_eq!(sim.run_to_completion(10), 1);
    // The clock hold ends the drained run at the latest deadline, which is
    // later than the latest warm expiry.
    let last_deadline = *began.borrow().last().unwrap() + spec.timeout;
    assert_eq!(sim.now(), last_deadline);
    assert_eq!(sim.world.faas.stats.timeouts, 0);
}

#[test]
fn a_dequeued_invocation_does_not_reuse_an_expired_instance() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    sim.world.params.cloud_mut(Cloud::Aws).concurrency_limit = 1;
    let small = faas::default_spec(&sim.world, use1);
    let mut large = small;
    large.config.memory_mb *= 2;
    let runs_for = |secs: u64| -> faas::FnBody {
        Rc::new(move |sim, handle| {
            sim.schedule_in(SimDuration::from_secs(secs), move |sim| {
                faas::finish(sim, handle);
            });
        })
    };
    let started: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let probe: faas::FnBody = {
        let started = started.clone();
        Rc::new(move |sim, handle| {
            started.borrow_mut().push(sim.now());
            faas::finish(sim, handle);
        })
    };
    let policy = RetryPolicy::default();
    // `small` runs 100 s and saturates the region; `large` and the probe
    // queue behind it. When `small` finishes, its instance goes warm (until
    // about 700 s) and `large` starts cold. When `large` finishes, at about
    // 800 s, `dequeue_next` starts the probe: the only `small`-config
    // instance it could reuse has expired, and no `accept` has pruned it.
    faas::invoke(&mut sim, use1, small, runs_for(100), policy);
    let after = |s| SimDuration::from_secs(s);
    faas::invoke_after(&mut sim, after(1), use1, large, runs_for(700), policy);
    faas::invoke_after(&mut sim, after(2), use1, small, probe, policy);
    sim.run_to_completion(10_000);
    let expiry = sim.world.params.cloud(Cloud::Aws).warm_idle_expiry;
    assert!(started.borrow()[0] > SimTime::ZERO + expiry + after(100));
    assert_eq!(sim.world.faas.stats.throttled, 2);
    assert_eq!(sim.world.faas.stats.warm_starts, 0);
    assert_eq!(sim.world.faas.stats.cold_starts, 3);
}

#[test]
fn warm_in_ignores_expired_instances() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let body: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_millis(50), move |sim| {
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
    let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
    sim.run_until(at(5));
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 1);
    // Past the 10-minute idle expiry, with no invocation since to prune it:
    // the entry is still listed, and it is not counted.
    sim.run_until(at(3_600));
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 0);
    assert_eq!(sim.world.faas.warm_in(use1, at(5)), 1);
}

#[test]
fn dead_and_unissued_instances_read_as_absent_and_ids_are_never_reused() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let spec = faas::default_spec(&sim.world, use1);
    let handles: Rc<RefCell<Vec<FnHandle>>> = Rc::default();
    let finishes: faas::FnBody = {
        let handles = handles.clone();
        Rc::new(move |sim, handle| {
            handles.borrow_mut().push(handle);
            sim.schedule_in(SimDuration::from_millis(50), move |sim| {
                faas::finish(sim, handle);
            });
        })
    };
    let crashes: faas::FnBody = {
        let handles = handles.clone();
        Rc::new(move |sim, handle| {
            handles.borrow_mut().push(handle);
            faas::fail(sim, handle, FailureReason::Crash);
        })
    };
    let once = RetryPolicy { max_retries: 0 };
    let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
    faas::invoke(&mut sim, use1, spec, finishes.clone(), once);
    sim.run_until(at(5));
    // Idle and warm: its invocation is over, its instance is not.
    assert!(!sim.world.faas.is_live(handles.borrow()[0]));
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 1);
    // Past the idle expiry, the next invocation's accept prunes that
    // instance and starts a cold one, which crashes; a third starts cold too.
    let delay = at(700) - sim.now();
    faas::invoke_after(&mut sim, delay, use1, spec, crashes, once);
    sim.run_until(at(705));
    faas::invoke(&mut sim, use1, spec, finishes, once);
    sim.run_until(at(710));
    let (pruned, failed, fresh) = {
        let h = handles.borrow();
        (h[0], h[1], h[2])
    };
    assert_eq!(sim.world.faas.stats.cold_starts, 3);
    assert_eq!(sim.world.faas.stats.crashes, 1);
    // Ids are issued in order and never reused: the freed ids stay dead.
    let ids = [pruned, failed, fresh].map(|h| h.instance.0);
    assert_eq!(ids, [1, 2, 3]);
    let unissued = |id| FnHandle {
        instance: faas::InstanceId(id),
        ..fresh
    };
    for dead in [pruned, failed, unissued(0), unissued(4), unissued(u64::MAX)] {
        let faas = &sim.world.faas;
        assert!(!faas.is_live(dead), "{dead:?}");
        assert_eq!(faas.remaining_time(dead, sim.now()), None);
        assert_eq!(faas.live_spec(dead), None);
        assert!(sim.world.exec_profile(Executor::Function(dead)).is_none());
    }
    // The third instance finished and is the one warm instance.
    assert_eq!(sim.world.faas.warm_in(use1, sim.now()), 1);
}

#[test]
fn concurrency_limit_queues_and_drains() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    sim.world.params.cloud_mut(Cloud::Aws).concurrency_limit = 2;
    let spec = faas::default_spec(&sim.world, use1);
    let completed: Rc<RefCell<u32>> = Rc::default();
    let body: faas::FnBody = {
        let completed = completed.clone();
        Rc::new(move |sim, handle| {
            let completed = completed.clone();
            sim.schedule_in(SimDuration::from_secs(2), move |sim| {
                *completed.borrow_mut() += 1;
                faas::finish(sim, handle);
            });
        })
    };
    for _ in 0..5 {
        faas::invoke(&mut sim, use1, spec, body.clone(), RetryPolicy::default());
    }
    sim.run_to_completion(100_000);
    assert_eq!(*completed.borrow(), 5);
    assert!(sim.world.faas.stats.throttled >= 3);
}

#[test]
fn gcp_cold_starts_wait_for_scheduler_tick() {
    let mut sim = sim();
    let gcp = region(&sim, Cloud::Gcp, "us-east1");
    let spec = faas::default_spec(&sim.world, gcp);
    let started: Rc<RefCell<Vec<f64>>> = Rc::default();
    let body: faas::FnBody = {
        let started = started.clone();
        Rc::new(move |sim, handle| {
            started.borrow_mut().push(sim.now().as_secs_f64());
            faas::finish(sim, handle);
        })
    };
    faas::invoke(&mut sim, gcp, spec, body, RetryPolicy::default());
    sim.run_to_completion(10_000);
    // The GCP scheduler runs every 5 s: the cold instance cannot begin
    // executing before the first tick.
    assert!(
        started.borrow()[0] >= 5.0,
        "started at {}",
        started.borrow()[0]
    );
}

#[test]
fn user_put_delivers_notification() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    sim.world.objstore_mut(use1).create_bucket("src");
    let events: Rc<RefCell<Vec<(f64, EventKind, u64)>>> = Rc::default();
    let ev2 = events.clone();
    let target = sim.world.register_handler(Rc::new(move |sim, _region, ev| {
        ev2.borrow_mut()
            .push((sim.now().as_secs_f64(), ev.kind, ev.size));
    }));
    world::subscribe_bucket(&mut sim.world, use1, "src", target).unwrap();

    world::user_put(&mut sim, use1, "src", "obj1", 1 << 20).unwrap();
    sim.run_to_completion(1000);
    assert_eq!(events.borrow().len(), 1);
    let (t, kind, size) = events.borrow()[0];
    assert_eq!(kind, EventKind::Put);
    assert_eq!(size, 1 << 20);
    // Notification arrives after the sampled delay (sub-second on AWS).
    assert!(t > 0.05 && t < 3.0, "notification at {t}");

    world::user_delete(&mut sim, use1, "src", "obj1").unwrap();
    sim.run_to_completion(1000);
    assert_eq!(events.borrow().len(), 2);
    assert_eq!(events.borrow()[1].1, EventKind::Delete);
}

#[test]
fn object_transfer_moves_content_and_meters_egress() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let eastus = region(&sim, Cloud::Azure, "eastus");
    sim.world.objstore_mut(use1).create_bucket("src");
    sim.world.objstore_mut(eastus).create_bucket("dst");
    let put = world::user_put(&mut sim, use1, "src", "k", 8 << 20).unwrap();

    let done: Rc<RefCell<Option<f64>>> = Rc::default();
    let done2 = done.clone();
    let exec = platform(eastus); // "functions at destination"
    world::get_object_range(
        &mut sim,
        exec,
        use1,
        "src".into(),
        "k".into(),
        0,
        8 << 20,
        Some(put.etag),
        move |sim, result| {
            let (content, _etag) = result.unwrap();
            world::put_object(
                sim,
                exec,
                eastus,
                "dst".into(),
                "k".into(),
                content,
                move |sim, result| {
                    result.unwrap();
                    *done2.borrow_mut() = Some(sim.now().as_secs_f64());
                },
            );
        },
    );
    sim.run_to_completion(10_000);
    let t = done.borrow().unwrap();
    assert!(t > 0.01 && t < 10.0, "transfer took {t}");

    // Content replicated byte-identically.
    let (src_content, src_etag) = sim.world.objstore(use1).read_full("src", "k").unwrap();
    let (dst_content, dst_etag) = sim.world.objstore(eastus).read_full("dst", "k").unwrap();
    assert!(src_content.same_bytes(&dst_content));
    assert_eq!(src_etag, dst_etag);

    // Egress billed once, by AWS (download leg crossed the WAN; the upload
    // was local to eastus).
    let egress = sim.world.ledger.category_total(CostCategory::Egress);
    let expected = 0.09 * (8.0 / 1024.0);
    assert!(
        (egress.as_dollars() - expected).abs() / expected < 0.01,
        "egress {egress}"
    );
    assert!(sim.world.ledger.cloud_total(Cloud::Azure) > Money::ZERO);
}

#[test]
fn multipart_replication_roundtrip() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let use2 = region(&sim, Cloud::Aws, "us-east-2");
    sim.world.objstore_mut(use1).create_bucket("src");
    sim.world.objstore_mut(use2).create_bucket("dst");
    let size: u64 = 24 << 20;
    world::user_put(&mut sim, use1, "src", "big", size).unwrap();

    let exec = platform(use1);
    let done: Rc<RefCell<bool>> = Rc::default();
    let done2 = done.clone();
    world::create_multipart(
        &mut sim,
        exec,
        use2,
        "dst".into(),
        "big".into(),
        move |sim, id| {
            let id = id.unwrap();
            let part_size: u64 = 8 << 20;
            let total_parts = 3u32;
            let uploaded: Rc<RefCell<u32>> = Rc::default();
            for part in 0..total_parts {
                let uploaded = uploaded.clone();
                let done2 = done2.clone();
                world::get_object_range(
                    sim,
                    exec,
                    use1,
                    "src".into(),
                    "big".into(),
                    part as u64 * part_size,
                    part_size,
                    None,
                    move |sim, got| {
                        let (content, _) = got.unwrap();
                        let done2 = done2.clone();
                        let uploaded = uploaded.clone();
                        world::upload_part(
                            sim,
                            exec,
                            use2,
                            id,
                            part + 1,
                            content,
                            move |sim, r| {
                                r.unwrap();
                                *uploaded.borrow_mut() += 1;
                                if *uploaded.borrow() == total_parts {
                                    let done2 = done2.clone();
                                    world::complete_multipart(
                                        sim,
                                        exec,
                                        use2,
                                        id,
                                        move |_sim, r| {
                                            r.unwrap();
                                            *done2.borrow_mut() = true;
                                        },
                                    );
                                }
                            },
                        );
                    },
                );
            }
        },
    );
    sim.run_to_completion(100_000);
    assert!(*done.borrow());
    let (src, se) = sim.world.objstore(use1).read_full("src", "big").unwrap();
    let (dst, de) = sim.world.objstore(use2).read_full("dst", "big").unwrap();
    assert!(src.same_bytes(&dst));
    assert_eq!(se, de);
    assert!(dst.is_single_source(), "clean replication is not a hybrid");
}

#[test]
fn db_transactions_serialize() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let exec = platform(use1);
    // 50 concurrent increments on one counter item.
    for _ in 0..50 {
        world::db_transact(
            &mut sim,
            exec,
            use1,
            "counters".into(),
            "c".into(),
            |slot| {
                let item = slot.get_or_insert_with(Default::default);
                let n = item
                    .get("n")
                    .and_then(cloudsim::clouddb::Value::as_uint)
                    .unwrap_or(0);
                item.insert("n".into(), cloudsim::clouddb::Value::Uint(n + 1));
            },
            |_, _| {},
        );
    }
    sim.run_to_completion(1000);
    let item = sim.world.db_mut(use1).get("counters", "c").unwrap();
    assert_eq!(item["n"], cloudsim::clouddb::Value::Uint(50));
    // 50 transactions = 50 reads + 50 writes billed.
    let db_cost = sim.world.ledger.category_total(CostCategory::DbOps);
    let expected = 50.0 * (0.625 + 0.125) / 1e6;
    assert!((db_cost.as_dollars() - expected).abs() < 1e-9, "{db_cost}");
}

#[test]
fn vm_lifecycle_and_minimum_billing() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let ready: Rc<RefCell<Option<f64>>> = Rc::default();
    let ready2 = ready.clone();
    let id = vm::provision(&mut sim, use1, move |sim, _vm| {
        *ready2.borrow_mut() = Some(sim.now().as_secs_f64());
    });
    sim.run_to_completion(100);
    let t = ready.borrow().unwrap();
    // AWS provisioning ~ N(31, 4).
    assert!(t > 15.0 && t < 50.0, "provisioned at {t}");
    // Shut down right away: minimum billed duration (60 s) applies.
    vm::shutdown(&mut sim, id);
    let cost = sim.world.ledger.category_total(CostCategory::VmCompute);
    let expected = 1.536 * 60.0 / 3600.0;
    assert!((cost.as_dollars() - expected).abs() < 1e-6, "{cost}");
    // Idempotent shutdown does not double-bill.
    vm::shutdown(&mut sim, id);
    assert_eq!(
        sim.world.ledger.category_total(CostCategory::VmCompute),
        cost
    );
}

#[test]
fn vm_longer_runs_bill_elapsed_time() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let vm_slot: Rc<RefCell<Option<cloudsim::vm::VmId>>> = Rc::default();
    let vm_slot2 = vm_slot.clone();
    vm::provision(&mut sim, use1, move |_sim, vm| {
        *vm_slot2.borrow_mut() = Some(vm);
    });
    sim.run_to_completion(100);
    let id = vm_slot.borrow().unwrap();
    let ready_at = sim.now();
    sim.run_until(ready_at + SimDuration::from_secs(300));
    vm::shutdown(&mut sim, id);
    let cost = sim.world.ledger.category_total(CostCategory::VmCompute);
    let expected = 1.536 * 300.0 / 3600.0;
    assert!(
        (cost.as_dollars() - expected).abs() / expected < 0.01,
        "{cost} vs {expected}"
    );
}

#[test]
fn workflow_delay_fires_and_cancels() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let fired: Rc<RefCell<u32>> = Rc::default();
    let f1 = fired.clone();
    world::workflow_delay(&mut sim, use1, SimDuration::from_secs(30), move |_| {
        *f1.borrow_mut() += 1;
    });
    let f2 = fired.clone();
    let token = world::workflow_delay(&mut sim, use1, SimDuration::from_secs(30), move |_| {
        *f2.borrow_mut() += 1;
    });
    token.cancel();
    sim.run_to_completion(100);
    assert_eq!(*fired.borrow(), 1);
    assert!(sim.world.ledger.category_total(CostCategory::Workflow) > Money::ZERO);
}

/// Crashes the function right after each committed DB transaction with
/// probability `rate`, drawn from its own seeded stream.
struct TransactKills {
    rate: f64,
    rng: StdRng,
}

impl FaultDecider for TransactKills {
    fn decide(&mut self, site: FaultSite) -> bool {
        site == FaultSite::PostTransactKill && self.rng.gen_bool(self.rate)
    }
}

#[test]
fn crash_injection_kills_instances_and_platform_retries() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let use2 = region(&sim, Cloud::Aws, "us-east-2");
    sim.world.objstore_mut(use1).create_bucket("src");
    sim.world.objstore_mut(use2).create_bucket("dst");
    world::user_put(&mut sim, use1, "src", "k", 1 << 20).unwrap();
    let kills = TransactKills {
        rate: 0.35,
        rng: StdRng::seed_from_u64(0xDEAD),
    };
    sim.world.set_fault_decider(Box::new(kills), None);

    let spec = faas::default_spec(&sim.world, use1);
    let successes: Rc<RefCell<u32>> = Rc::default();
    let body: faas::FnBody = {
        let successes = successes.clone();
        Rc::new(move |sim, handle: FnHandle| {
            let exec = Executor::Function(handle);
            let successes = successes.clone();
            world::get_object_range(
                sim,
                exec,
                use1,
                "src".into(),
                "k".into(),
                0,
                1 << 20,
                None,
                move |sim, got| {
                    let (content, _) = got.unwrap();
                    let successes = successes.clone();
                    world::put_object(
                        sim,
                        exec,
                        use2,
                        "dst".into(),
                        "k".into(),
                        content,
                        move |sim, r| {
                            r.unwrap();
                            // The kill site: a crash here loses the
                            // committed write's continuation, and the
                            // platform retries the whole body.
                            world::db_transact(
                                sim,
                                exec,
                                use1,
                                "runs".into(),
                                "k".into(),
                                |_| (),
                                move |sim, ()| {
                                    *successes.borrow_mut() += 1;
                                    faas::finish(sim, handle);
                                },
                            );
                        },
                    );
                },
            );
        })
    };
    for _ in 0..20 {
        faas::invoke(
            &mut sim,
            use1,
            spec,
            body.clone(),
            RetryPolicy::CRASH_RECOVERY,
        );
    }
    sim.run_to_completion(1_000_000);
    assert!(sim.world.fault_stats().post_transact_kills > 0);
    assert!(
        sim.world.faas.stats.crashes > 0,
        "crashes should fire at p=0.35"
    );
    // One kill draw per attempt fails it with probability 0.35; the
    // CRASH_RECOVERY budget (24 retries) makes exhausting it vanishingly
    // unlikely.
    assert_eq!(*successes.borrow(), 20);
    assert_eq!(sim.world.faas.active_in(use1), 0);
}

#[test]
fn dead_executor_continuations_are_dropped() {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let use2 = region(&sim, Cloud::Aws, "us-east-2");
    sim.world.objstore_mut(use1).create_bucket("src");
    world::user_put(&mut sim, use1, "src", "k", 64 << 20).unwrap();

    let mut spec = faas::default_spec(&sim.world, use1);
    spec.timeout = SimDuration::from_millis(300); // dies mid-download
    let leaked: Rc<RefCell<u32>> = Rc::default();
    let body: faas::FnBody = {
        let leaked = leaked.clone();
        let _ = use2;
        Rc::new(move |sim, handle: FnHandle| {
            let exec = Executor::Function(handle);
            let leaked = leaked.clone();
            world::get_object_range(
                sim,
                exec,
                use1,
                "src".into(),
                "k".into(),
                0,
                64 << 20,
                None,
                move |_sim, _got| {
                    *leaked.borrow_mut() += 1;
                },
            );
        })
    };
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy { max_retries: 0 });
    sim.run_to_completion(100_000);
    assert_eq!(sim.world.faas.stats.timeouts, 1);
    assert_eq!(*leaked.borrow(), 0, "dead invocation observed a completion");
}

#[test]
fn function_billing_matches_duration_and_memory() {
    // AWS: GB-seconds only. One invocation busy exactly 2 s at 1024 MB.
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    let mut spec = faas::default_spec(&sim.world, use1);
    spec.config.memory_mb = 1024;
    let body: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_secs(2), move |sim| {
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
    sim.run_to_completion(10_000);
    let compute = sim
        .world
        .ledger
        .category_total(CostCategory::FunctionCompute)
        .as_dollars();
    let expected = 2.0 * 1.0 * 0.0000166667;
    assert!(
        (compute - expected).abs() / expected < 1e-4,
        "AWS compute {compute} vs {expected}"
    );
}

#[test]
fn gcp_billing_includes_vcpu_seconds() {
    let mut sim = sim();
    let gcp = region(&sim, Cloud::Gcp, "us-east1");
    let mut spec = faas::default_spec(&sim.world, gcp);
    spec.config.memory_mb = 1024;
    spec.config.vcpus = 2.0;
    let body: faas::FnBody = Rc::new(|sim, handle| {
        sim.schedule_in(SimDuration::from_secs(3), move |sim| {
            faas::finish(sim, handle);
        });
    });
    faas::invoke(&mut sim, gcp, spec, body, RetryPolicy::default());
    sim.run_to_completion(10_000);
    let compute = sim
        .world
        .ledger
        .category_total(CostCategory::FunctionCompute)
        .as_dollars();
    // 3 s x (1 GiB x $0.0000025 + 2 vCPU x $0.000024).
    let expected = 3.0 * (1.0 * 0.0000025 + 2.0 * 0.000024);
    assert!(
        (compute - expected).abs() / expected < 1e-6,
        "GCP compute {compute} vs {expected}"
    );
}

#[test]
fn azure_cold_starts_align_to_scheduler_ticks() {
    // Azure batches scale-out every 4 s: the instant an instance begins
    // executing, minus its sampled container start, sits on a tick boundary.
    let mut sim = sim();
    let azure = region(&sim, Cloud::Azure, "eastus");
    let spec = faas::default_spec(&sim.world, azure);
    let starts: Rc<RefCell<Vec<f64>>> = Rc::default();
    for i in 0..4u64 {
        let starts = starts.clone();
        let body: faas::FnBody = Rc::new(move |sim, handle| {
            starts.borrow_mut().push(sim.now().as_secs_f64());
            faas::finish(sim, handle);
        });
        // Stagger the invokes so they land in different scheduler windows;
        // distinct memory sizes force cold starts.
        let mut s = spec;
        s.config.memory_mb += i as u32 + 1;
        sim.schedule_at(SimTime::from_nanos(i * 2_500_000_000), move |sim| {
            faas::invoke(sim, azure, s, body.clone(), RetryPolicy::default());
        });
    }
    sim.run_to_completion(10_000);
    assert_eq!(starts.borrow().len(), 4);
    // Every start happens strictly after its invoke's next 4 s boundary.
    for (i, &t) in starts.borrow().iter().enumerate() {
        let invoked = i as f64 * 2.5;
        let next_tick = (invoked / 4.0).floor() * 4.0 + 4.0;
        assert!(
            t >= next_tick - 4.0,
            "instance {i} started at {t}, invoked {invoked}"
        );
        assert!(t > invoked, "must start after the invoke");
    }
}

#[test]
fn notification_delays_differ_by_cloud() {
    // The ground-truth notification distributions drive the T_n term; make
    // sure each cloud's samples center near its configured mean.
    for (cloud, name) in [
        (Cloud::Aws, "us-east-1"),
        (Cloud::Azure, "eastus"),
        (Cloud::Gcp, "us-east1"),
    ] {
        let mut sim = sim();
        let r = region(&sim, cloud, name);
        sim.world.objstore_mut(r).create_bucket("b");
        let delays: Rc<RefCell<Vec<f64>>> = Rc::default();
        let d2 = delays.clone();
        let target = sim.world.register_handler(Rc::new(move |sim, _r, ev| {
            d2.borrow_mut()
                .push((sim.now() - ev.event_time).as_secs_f64());
        }));
        world::subscribe_bucket(&mut sim.world, r, "b", target).unwrap();
        for i in 0..40 {
            world::user_put(&mut sim, r, "b", &format!("k{i}"), 1).unwrap();
            sim.run_to_completion(100);
        }
        let d = delays.borrow();
        let mean: f64 = d.iter().sum::<f64>() / d.len() as f64;
        let truth = sim.world.params.cloud(cloud).notif_delay.mean();
        assert!(
            (mean - truth).abs() / truth < 0.3,
            "{cloud}: measured {mean} vs truth {truth}"
        );
    }
}

// ---- regional object-store outage windows ----------------------------------

/// The eight object-store requests `world` issues for an executor.
#[derive(Clone, Copy, Debug)]
enum StoreOp {
    Stat,
    GetRange,
    Put,
    Delete,
    Copy,
    CreateMultipart,
    UploadPart,
    CompleteMultipart,
}

const STORE_OPS: [StoreOp; 8] = [
    StoreOp::Stat,
    StoreOp::GetRange,
    StoreOp::Put,
    StoreOp::Delete,
    StoreOp::Copy,
    StoreOp::CreateMultipart,
    StoreOp::UploadPart,
    StoreOp::CompleteMultipart,
];

/// When a store request called back, and with which error, if any.
type Answer = Rc<RefCell<Option<(SimTime, Option<StoreError>)>>>;

fn answer<T>(slot: &Answer) -> impl FnOnce(&mut CloudSim, Result<T, StoreError>) + 'static {
    let slot = slot.clone();
    move |sim, r| *slot.borrow_mut() = Some((sim.now(), r.err()))
}

/// A world whose us-east-1 bucket "b" holds key "k" and has one open
/// multipart upload for key "m". Returns the region and the upload id.
fn store_fixture() -> (CloudSim, RegionId, u64) {
    let mut sim = sim();
    let use1 = region(&sim, Cloud::Aws, "us-east-1");
    sim.world.objstore_mut(use1).create_bucket("b");
    world::user_put(&mut sim, use1, "b", "k", 1 << 10).unwrap();
    let upload = sim
        .world
        .objstore_mut(use1)
        .create_multipart("b", "m")
        .unwrap();
    (sim, use1, upload)
}

/// Issues `op` against the fixture's bucket in `r` from the platform.
fn issue(sim: &mut CloudSim, op: StoreOp, r: RegionId, upload: u64, slot: &Answer) {
    let exec = platform(r);
    let (b, k) = (String::from("b"), String::from("k"));
    match op {
        StoreOp::Stat => world::stat_object(sim, exec, r, b, k, answer(slot)),
        StoreOp::GetRange => {
            world::get_object_range(sim, exec, r, b, k, 0, 1 << 10, None, answer(slot))
        }
        StoreOp::Put => {
            let blob = sim.world.alloc_blob();
            let content = Content::fresh(blob, 1 << 10);
            world::put_object(sim, exec, r, b, "k2".into(), content, answer(slot));
        }
        StoreOp::Delete => world::delete_object(sim, exec, r, b, k, answer(slot)),
        StoreOp::Copy => world::copy_object(sim, exec, r, b, k, "k2".into(), None, answer(slot)),
        StoreOp::CreateMultipart => world::create_multipart(sim, exec, r, b, k, answer(slot)),
        StoreOp::UploadPart => {
            let blob = sim.world.alloc_blob();
            let content = Content::fresh(blob, 1 << 10);
            world::upload_part(sim, exec, r, upload, 1, content, answer(slot));
        }
        StoreOp::CompleteMultipart => world::complete_multipart(sim, exec, r, upload, answer(slot)),
    }
}

#[test]
fn hard_error_outage_fails_store_ops_with_unavailable() {
    // One storage round trip: a fresh fixture's first latency draw, which a
    // healthy stat waits out before it answers.
    let one_rtt = {
        let (mut sim, use1, upload) = store_fixture();
        let slot = Answer::default();
        issue(&mut sim, StoreOp::Stat, use1, upload, &slot);
        sim.run_to_completion(10_000);
        let (at, err) = slot.borrow().clone().unwrap();
        assert_eq!(err, None);
        at
    };
    assert!(one_rtt > SimTime::ZERO);
    for op in STORE_OPS {
        let (mut sim, use1, upload) = store_fixture();
        sim.world.outage.region_window(
            use1,
            SimTime::from_nanos(0),
            SimTime::from_nanos(3_600_000_000_000),
            cloudsim::outage::FailureMode::HardError,
        );
        let fees = sim
            .world
            .ledger
            .category_total(CostCategory::StorageRequests);
        // The same store instance prints the same iff none of its objects,
        // uploads or parts changed.
        let store = format!("{:?}", sim.world.objstore(use1));
        let slot = Answer::default();
        issue(&mut sim, op, use1, upload, &slot);
        sim.run_to_completion(10_000);
        assert_eq!(
            slot.borrow().clone(),
            Some((one_rtt, Some(StoreError::Unavailable))),
            "{op:?} during a hard-error window must fail unavailable after one round trip"
        );
        assert_eq!(
            sim.world
                .ledger
                .category_total(CostCategory::StorageRequests),
            fees,
            "{op:?} never reached the store, so it is not billed"
        );
        assert_eq!(
            format!("{:?}", sim.world.objstore(use1)),
            store,
            "{op:?} must not change the store"
        );
    }
}

#[test]
fn a_finished_functions_requests_never_call_back_but_its_transaction_commits() {
    // Returns the callbacks that ran and whether the transaction committed.
    let run = |finish_at_once: bool| -> (Vec<&'static str>, bool) {
        let (mut sim, use1, _) = store_fixture();
        let calls: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let c = calls.clone();
        let body: faas::FnBody = Rc::new(move |sim, handle| {
            let exec = Executor::Function(handle);
            let record = |name: &'static str| {
                let c = c.clone();
                move || c.borrow_mut().push(name)
            };
            let (stat, get, transact) = (record("stat"), record("db_get"), record("db_transact"));
            world::stat_object(sim, exec, use1, "b".into(), "k".into(), move |_, _| stat());
            world::db_get(sim, exec, use1, "t".into(), "x".into(), move |_, _| get());
            world::db_transact(
                sim,
                exec,
                use1,
                "t".into(),
                "y".into(),
                |slot| *slot = Some(Default::default()),
                move |_, ()| transact(),
            );
            // Unless finished here, the function lives until its timeout.
            if finish_at_once {
                faas::finish(sim, handle);
            }
        });
        let spec = faas::default_spec(&sim.world, use1);
        faas::invoke(&mut sim, use1, spec, body, RetryPolicy { max_retries: 0 });
        sim.run_to_completion(10_000);
        let committed = sim.world.db_mut(use1).get("t", "y").is_some();
        let calls = calls.borrow().clone();
        (calls, committed)
    };
    let (calls, committed) = run(false);
    assert_eq!(
        calls.len(),
        3,
        "a live caller hears every answer: {calls:?}"
    );
    assert!(committed);
    let (calls, committed) = run(true);
    assert!(calls.is_empty(), "a finished caller heard {calls:?}");
    assert!(committed, "the transaction commits server-side anyway");
}

#[test]
fn timeout_outage_stalls_store_requests_until_window_close() {
    let close = SimTime::from_nanos(100_000_000_000);
    for op in [
        StoreOp::Put,
        StoreOp::CreateMultipart,
        StoreOp::Delete,
        StoreOp::CompleteMultipart,
    ] {
        let (mut sim, use1, upload) = store_fixture();
        sim.world.outage.region_window(
            use1,
            SimTime::from_nanos(10_000_000_000),
            close,
            cloudsim::outage::FailureMode::Timeout,
        );
        let slot = Answer::default();
        let s2 = slot.clone();
        sim.schedule_in(SimDuration::from_secs(20), move |sim| {
            issue(sim, op, use1, upload, &s2);
        });
        sim.run_to_completion(10_000);
        let (at, err) = slot.borrow().clone().expect("answered after failback");
        assert_eq!(err, None, "{op:?} goes through once the window closes");
        assert!(
            at > close,
            "a black-holed {op:?} must not complete inside the window (completed at {at})"
        );
    }
}

#[test]
fn outage_on_unrelated_domain_leaves_runs_byte_identical() {
    let run = |with_unrelated_outage: bool| -> (SimTime, pricing::Money) {
        let mut sim = sim();
        let use1 = region(&sim, Cloud::Aws, "us-east-1");
        let use2 = region(&sim, Cloud::Aws, "us-east-2");
        if with_unrelated_outage {
            let far = region(&sim, Cloud::Gcp, "europe-west6");
            sim.world.outage.region_window(
                far,
                SimTime::from_nanos(0),
                SimTime::from_nanos(3_600_000_000_000),
                cloudsim::outage::FailureMode::HardError,
            );
        }
        sim.world.objstore_mut(use1).create_bucket("src");
        sim.world.objstore_mut(use2).create_bucket("dst");
        world::user_put(&mut sim, use1, "src", "k", 4 << 20).unwrap();
        let done: Rc<RefCell<Option<SimTime>>> = Rc::default();
        let d2 = done.clone();
        let spec = faas::default_spec(&sim.world, use1);
        let body: faas::FnBody = Rc::new(move |sim, handle: FnHandle| {
            let exec = Executor::Function(handle);
            let d2 = d2.clone();
            world::get_object_range(
                sim,
                exec,
                use1,
                "src".into(),
                "k".into(),
                0,
                4 << 20,
                None,
                move |sim, got| {
                    let (content, _) = got.unwrap();
                    world::put_object(sim, exec, use2, "dst".into(), "k".into(), content, {
                        let d2 = d2.clone();
                        move |sim, r| {
                            r.unwrap();
                            *d2.borrow_mut() = Some(sim.now());
                            faas::finish(sim, handle);
                        }
                    });
                },
            );
        });
        faas::invoke(&mut sim, use1, spec, body, RetryPolicy::default());
        sim.run_to_completion(100_000);
        let at = done.borrow().unwrap();
        (at, sim.world.ledger.grand_total())
    };
    assert_eq!(
        run(false),
        run(true),
        "a window over an untouched region must not perturb timing or cost"
    );
}
