//! The cloudsim-backed [`Backend`]: the simulator adapter.
//!
//! This module is the *only* place the core touches the simulator — every
//! trait method delegates 1:1 to `cloudsim::world`'s timed operation
//! wrappers (or to `cloudsim::faas` for the function runtime), so the
//! simulation's latency sampling, cost metering, and RNG draw order are
//! exactly what direct calls would produce. Building the crate with
//! `--no-default-features` drops this module and the cloudsim dependency
//! entirely.
//!
//! ```no_run
//! use areplica_core::{AReplicaBuilder, ReplicationRule};
//! use cloudsim::{Cloud, World};
//! use cloudsim::world::user_put;
//!
//! let mut sim = World::paper_sim(7);
//! let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
//! let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
//! let service = AReplicaBuilder::new()
//!     .rule(ReplicationRule::new(src, "photos", dst, "photos-mirror"))
//!     .install(&mut sim);
//! user_put(&mut sim, src, "photos", "cat.jpg", 1 << 20).unwrap();
//! sim.run_to_completion(1_000_000);
//! assert_eq!(service.metrics().completions.len(), 1);
//! ```

use std::rc::Rc;

use cloudapi::clouddb::Item;
use cloudapi::faas::{FailureReason, FnHandle, FnSpec, InvocationId, RetryPolicy};
use cloudapi::objstore::{Content, ETag, ObjectStat, PutApplied, StoreError};
use cloudapi::{Cloud, RegionId, RegionRegistry};
use cloudsim::world::{self, CloudSim, Executor, World};
use cloudsim::{faas, WorldParams};
use pricing::PriceCatalog;
use rand::rngs::StdRng;
use simkernel::{CancelToken, Sim, SimDuration, SimTime};

use super::{
    Backend, Clock, Exec, FnBody, FunctionRuntime, KvStore, NotifHandler, ObjectStore, RngSource,
};
use crate::config::DEFAULT_PART_SIZE;
use crate::model::PerfModel;
use crate::profiler::{self, ProfilerConfig, SANDBOX_SEED};

impl From<Exec> for Executor {
    fn from(exec: Exec) -> Executor {
        match exec {
            Exec::Function(h) => Executor::Function(h),
            Exec::Platform { region, mbps } => Executor::Platform { region, mbps },
        }
    }
}

impl Clock for CloudSim {
    fn now(&self) -> SimTime {
        Sim::now(self)
    }

    fn schedule_in(&mut self, delay: SimDuration, cb: impl FnOnce(&mut Self) + 'static) {
        // Core-scheduled continuations (watchdog checks, setup delays)
        // run on behalf of the tenant that scheduled them: capture the
        // ambient scope and re-establish it when the event fires. A no-op
        // for the default tenant.
        world::schedule_scoped(self, delay, cb);
    }

    fn run_to_completion(&mut self, max_events: u64) -> u64 {
        Sim::run_to_completion(self, max_events)
    }
}

impl RngSource for CloudSim {
    fn derive_rng(&mut self, label: &str) -> StdRng {
        self.fork_rng(label)
    }
}

impl ObjectStore for CloudSim {
    fn create_bucket(&mut self, region: RegionId, bucket: &str) {
        self.world.objstore_mut(region).create_bucket(bucket);
    }

    fn subscribe_bucket(
        &mut self,
        region: RegionId,
        bucket: &str,
        handler: NotifHandler<Self>,
    ) -> Result<(), StoreError> {
        let target = self.world.register_handler(handler);
        world::subscribe_bucket(&mut self.world, region, bucket, target)
    }

    fn stat_now(
        &self,
        region: RegionId,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectStat, StoreError> {
        self.world.objstore(region).stat(bucket, key)
    }

    fn read_full_now(
        &self,
        region: RegionId,
        bucket: &str,
        key: &str,
    ) -> Result<(Content, ETag), StoreError> {
        self.world.objstore(region).read_full(bucket, key)
    }

    fn abort_multipart_now(&mut self, region: RegionId, upload_id: u64) -> Result<(), StoreError> {
        self.world.objstore_mut(region).abort_multipart(upload_id)
    }

    fn user_put(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        size: u64,
    ) -> Result<PutApplied, StoreError> {
        world::user_put(self, region, bucket, key, size)
    }

    fn user_put_content(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        content: Content,
    ) -> Result<PutApplied, StoreError> {
        world::user_put_content(self, region, bucket, key, content)
    }

    fn stat_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<ObjectStat, StoreError>) + 'static,
    ) {
        world::stat_object(self, exec.into(), region, bucket, key, cb);
    }

    fn get_object_range(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        offset: u64,
        len: u64,
        if_match: Option<ETag>,
        cb: impl FnOnce(&mut Self, Result<(Content, ETag), StoreError>) + 'static,
    ) {
        world::get_object_range(
            self,
            exec.into(),
            region,
            bucket,
            key,
            offset,
            len,
            if_match,
            cb,
        );
    }

    fn put_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        world::put_object(self, exec.into(), region, bucket, key, content, cb);
    }

    fn delete_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        world::delete_object(self, exec.into(), region, bucket, key, cb);
    }

    fn copy_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        src_key: String,
        dst_key: String,
        if_match: Option<ETag>,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        world::copy_object(
            self,
            exec.into(),
            region,
            bucket,
            src_key,
            dst_key,
            if_match,
            cb,
        );
    }

    fn create_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<u64, StoreError>) + 'static,
    ) {
        world::create_multipart(self, exec.into(), region, bucket, key, cb);
    }

    fn upload_part(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        part_number: u32,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<(), StoreError>) + 'static,
    ) {
        world::upload_part(
            self,
            exec.into(),
            region,
            upload_id,
            part_number,
            content,
            cb,
        );
    }

    fn complete_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        world::complete_multipart(self, exec.into(), region, upload_id, cb);
    }
}

impl KvStore for CloudSim {
    fn db_get(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        cb: impl FnOnce(&mut Self, Option<Item>) + 'static,
    ) {
        world::db_get(self, exec.into(), region, table, key, cb);
    }

    fn db_transact<T: 'static>(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        f: impl FnOnce(&mut Option<Item>) -> T + 'static,
        cb: impl FnOnce(&mut Self, T) + 'static,
    ) {
        world::db_transact(self, exec.into(), region, table, key, f, cb);
    }

    fn db_ttl_expire(
        &mut self,
        region: RegionId,
        table: &str,
        key: &str,
        guard: impl FnOnce(&Item) -> bool,
    ) -> Option<Item> {
        self.world.db_mut(region).expire_if(table, key, guard)
    }
}

impl FunctionRuntime for CloudSim {
    fn default_fn_spec(&self, region: RegionId) -> FnSpec {
        faas::default_spec(&self.world, region)
    }

    fn invoke_after(
        &mut self,
        delay: SimDuration,
        region: RegionId,
        spec: FnSpec,
        body: FnBody<Self>,
        policy: RetryPolicy,
    ) -> InvocationId {
        faas::invoke_after(self, delay, region, spec, body, policy)
    }

    fn finish_function(&mut self, handle: FnHandle) {
        faas::finish(self, handle);
    }

    fn fail_function(&mut self, handle: FnHandle, reason: FailureReason) {
        faas::fail(self, handle, reason);
    }

    fn remaining_exec_time(&self, handle: FnHandle) -> Option<SimDuration> {
        self.world.faas.remaining_time(handle, Sim::now(self))
    }

    fn sample_invoke_latency(&mut self, region: RegionId) -> SimDuration {
        world::sample_invoke_latency(&mut self.world, region)
    }
}

impl Backend for CloudSim {
    fn cloud_of(&self, region: RegionId) -> Cloud {
        self.world.regions.cloud(region)
    }

    fn sample_transfer_setup(&mut self, cloud: Cloud) -> SimDuration {
        world::sample_transfer_setup(&mut self.world, cloud)
    }

    fn workflow_delay(
        &mut self,
        region: RegionId,
        delay: SimDuration,
        cb: impl FnOnce(&mut Self) + 'static,
    ) -> CancelToken {
        world::workflow_delay(self, region, delay, cb)
    }

    fn profiling_sandbox(&self) -> Self {
        Sim::new(
            SANDBOX_SEED,
            World::new(
                SANDBOX_SEED,
                self.world.regions.clone(),
                self.world.params.clone(),
                self.world.catalog,
            ),
        )
    }

    fn tracer(&mut self) -> &mut simtrace::Tracer {
        &mut self.world.trace
    }

    fn set_tenant_scope(&mut self, tenant: Option<Rc<str>>) {
        self.world.set_tenant_scope(tenant);
    }

    fn set_tenant_concurrency_limit(&mut self, tenant: &str, limit: Option<u32>) {
        self.world.faas.set_tenant_limit(tenant, limit);
    }
}

/// Profiles the given pairs at the default part size against a fresh
/// sandbox world built from explicit ground truth (exposed for benches that
/// reuse one model across many experiments; the service itself profiles via
/// [`Backend::profiling_sandbox`], at its engine's part size).
pub fn build_model_for(
    regions: &RegionRegistry,
    params: &WorldParams,
    catalog: &PriceCatalog,
    pairs: &[(RegionId, RegionId)],
    cfg: &ProfilerConfig,
) -> Result<PerfModel, profiler::ProfileError> {
    let world = World::new(SANDBOX_SEED, regions.clone(), params.clone(), *catalog);
    let mut sandbox = Sim::new(SANDBOX_SEED, world);
    profiler::build_model(&mut sandbox, pairs, cfg, DEFAULT_PART_SIZE)
}
