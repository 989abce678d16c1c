//! Cloud-function vocabulary (Lambda / Azure Functions / Cloud Run surface).
//!
//! The plain-data half of a function runtime: instance/invocation handles,
//! resource specs, retry policies, failure reasons, dead-letter entries, and
//! runtime counters. The execution machinery (cold starts, warm pools,
//! scheduler batching, billing) lives in the backend that implements
//! `FunctionRuntime` — in the simulator that is `cloudsim::faas`.

use simkernel::{SimDuration, SimTime};

use crate::region::RegionId;

/// Function resource configuration.
///
/// On AWS and Azure only memory is configurable (CPU and network scale with
/// it); on GCP, vCPUs and memory are independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FnConfig {
    /// Configured memory in MB.
    pub memory_mb: u32,
    /// Configured vCPUs (meaningful on GCP; derived on AWS/Azure).
    pub vcpus: f64,
}

impl FnConfig {
    /// Memory expressed in GB for billing.
    pub fn memory_gb(&self) -> f64 {
        self.memory_mb as f64 / 1024.0
    }
}

/// A function instance (a container that may serve many invocations warm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

/// One logical invocation (stable across platform retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvocationId(pub u64);

/// Handle a running body uses to identify itself to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FnHandle {
    /// The executing instance.
    pub instance: InstanceId,
    /// The invocation being served.
    pub invocation: InvocationId,
    /// Region the instance runs in.
    pub region: RegionId,
}

/// Resource configuration + time limit for an invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FnSpec {
    /// Memory/CPU configuration.
    pub config: FnConfig,
    /// Execution time limit (defaults to the platform maximum).
    pub timeout: SimDuration,
}

/// Platform retry policy for asynchronous invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (AWS default: 2).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// The platform default: 2 retries after the first attempt (the AWS
    /// async-invoke default, and what every data-plane invocation passes).
    pub const PLATFORM_DEFAULT: RetryPolicy = RetryPolicy { max_retries: 2 };

    /// A deep retry budget for crash-heavy environments: even if a third of
    /// all attempts are killed, 24 retries make exhausting the budget
    /// vanishingly unlikely. Named here so the constant is policy, not a
    /// per-call-site literal.
    pub const CRASH_RECOVERY: RetryPolicy = RetryPolicy { max_retries: 24 };
}

/// Why an invocation attempt ended unsuccessfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The body exceeded the execution time limit.
    Timeout,
    /// The instance crashed (fault injection).
    Crash,
    /// The body aborted itself (unrecoverable application error).
    Aborted,
}

/// An event parked on the dead-letter queue after exhausting retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlqEntry {
    /// The failed invocation.
    pub invocation: InvocationId,
    /// Its region.
    pub region: RegionId,
    /// The final failure reason.
    pub reason: FailureReason,
    /// When it was parked.
    pub at: SimTime,
}

/// Counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaasStats {
    /// Total invocation attempts started (including retries).
    pub attempts: u64,
    /// Attempts served by a cold (new) instance.
    pub cold_starts: u64,
    /// Attempts served by a warm instance.
    pub warm_starts: u64,
    /// Attempts that hit the execution time limit.
    pub timeouts: u64,
    /// Attempts that crashed.
    pub crashes: u64,
    /// Platform retries issued.
    pub retries: u64,
    /// Invocations parked on the DLQ.
    pub dlq: u64,
    /// Invocations that queued on the concurrency limit.
    pub throttled: u64,
}
