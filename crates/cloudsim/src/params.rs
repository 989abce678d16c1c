//! Ground-truth performance parameters of the simulated clouds.
//!
//! These constants define the *actual* behaviour of the simulated world — the
//! thing AReplica's profiler measures and its performance model approximates.
//! They are calibrated so the characterization figures of the paper
//! (Figures 4–9) come out shape-correct:
//!
//! * a few hundred Mbps per function, with a per-platform sweet spot (Fig. 6);
//! * near-linear aggregate scaling with the number of functions (Fig. 7);
//! * asymmetric speeds depending on where functions run (Fig. 8);
//! * >2x instance-to-instance bandwidth variability on some clouds (Fig. 9);
//! * tens-of-seconds VM provisioning, slowest on Azure (Figs. 4–5).

use pricing::Cloud;
use simkernel::SimDuration;
use stats::Dist;

pub use cloudapi::faas::FnConfig;

/// Per-cloud ground-truth parameters.
#[derive(Debug, Clone)]
pub struct CloudParams {
    /// Function invocation API latency `I` (seconds).
    pub invoke_latency: Dist,
    /// Cold-start delay `D` (seconds).
    pub cold_start: Dist,
    /// Scheduler batching period for scale-out, seconds (`P`; 0 = immediate).
    /// Cloud Run's scheduler runs every ~5 s; Azure shows similar behaviour.
    pub scheduler_period_s: f64,
    /// Object event-notification delivery delay `T_n` (seconds).
    pub notif_delay: Dist,
    /// Storage-client setup overhead `S` per transfer (seconds).
    pub transfer_setup: Dist,
    /// Serverless DB operation latency (seconds).
    pub db_latency: Dist,
    /// Storage control-plane API round trip (stat/create-multipart), seconds.
    pub storage_api_rtt: Dist,
    /// Coefficient of variation of the per-instance bandwidth factor
    /// (lognormal, mean 1). Drives Figure 9.
    pub instance_speed_cv: f64,
    /// Extra per-instance CV added per doubling of concurrent WAN transfers
    /// on the same link ("links are relatively unstable when multiple
    /// functions are invoked" on Azure/GCP).
    pub parallel_cv_growth: f64,
    /// Multiplicative mean-bandwidth retention per doubling of concurrent
    /// transfers (1.0 = perfectly linear aggregate scaling).
    pub parallel_mean_retention: f64,
    /// Per-transfer multiplicative noise CV (lognormal, mean 1).
    pub transfer_noise_cv: f64,
    /// Peak per-function download NIC rate at the sweet-spot config (Mbps).
    pub nic_down_peak_mbps: f64,
    /// Peak per-function upload NIC rate (Mbps).
    pub nic_up_peak_mbps: f64,
    /// Memory (MB) at which the NIC rate saturates (AWS/Azure scaling knee).
    pub nic_saturation_memory_mb: u32,
    /// Additional WAN factor applied to uploads leaving this cloud's
    /// functions (captures the slow-upload asymmetry of Figure 8).
    pub wan_up_factor: f64,
    /// VM provisioning time (seconds), request to OS running.
    pub vm_provision: Dist,
    /// Container deployment time on a fresh VM (seconds).
    pub container_startup: Dist,
    /// Per-VM WAN bandwidth (Mbps) — VMs get much larger NICs than functions.
    pub vm_bandwidth_mbps: f64,
    /// Hard function execution time limit.
    pub fn_timeout: SimDuration,
    /// Default account-level concurrent-instance quota.
    pub concurrency_limit: u32,
    /// Idle time after which a warm instance is reclaimed.
    pub warm_idle_expiry: SimDuration,
    /// The best-performance-per-cost configuration the evaluation uses
    /// (§8 Setup: AWS 512 MB–1 GB, Azure 2048 MB, GCP 1024 MB / 1–2 vCPU).
    pub default_fn_config: FnConfig,
}

impl CloudParams {
    /// Ground truth for a simulated AWS: fast, stable, no scale-out batching.
    pub fn aws() -> CloudParams {
        CloudParams {
            invoke_latency: Dist::lognormal_mean_cv(0.030, 0.30),
            cold_start: Dist::lognormal_mean_cv(0.25, 0.35),
            scheduler_period_s: 0.0,
            notif_delay: Dist::lognormal_mean_cv(0.45, 0.25),
            transfer_setup: Dist::normal(0.22, 0.05),
            db_latency: Dist::lognormal_mean_cv(0.004, 0.35),
            storage_api_rtt: Dist::lognormal_mean_cv(0.030, 0.30),
            instance_speed_cv: 0.15,
            parallel_cv_growth: 0.015,
            parallel_mean_retention: 0.995,
            transfer_noise_cv: 0.08,
            nic_down_peak_mbps: 750.0,
            nic_up_peak_mbps: 600.0,
            nic_saturation_memory_mb: 1769,
            wan_up_factor: 0.85,
            vm_provision: Dist::normal(31.0, 4.0),
            container_startup: Dist::normal(26.0, 3.0),
            vm_bandwidth_mbps: 1800.0,
            fn_timeout: SimDuration::from_secs(900),
            concurrency_limit: 1000,
            warm_idle_expiry: SimDuration::from_mins(10),
            default_fn_config: FnConfig {
                memory_mb: 1024,
                vcpus: 0.58,
            },
        }
    }

    /// Ground truth for a simulated Azure: slower cold starts, batched
    /// scale-out, high instance variability, slow VM provisioning.
    pub fn azure() -> CloudParams {
        CloudParams {
            invoke_latency: Dist::lognormal_mean_cv(0.050, 0.40),
            cold_start: Dist::lognormal_mean_cv(1.10, 0.50),
            scheduler_period_s: 4.0,
            notif_delay: Dist::lognormal_mean_cv(0.50, 0.30),
            transfer_setup: Dist::normal(0.30, 0.08),
            db_latency: Dist::lognormal_mean_cv(0.006, 0.40),
            storage_api_rtt: Dist::lognormal_mean_cv(0.040, 0.35),
            instance_speed_cv: 0.45,
            parallel_cv_growth: 0.08,
            parallel_mean_retention: 0.97,
            transfer_noise_cv: 0.15,
            nic_down_peak_mbps: 520.0,
            nic_up_peak_mbps: 400.0,
            nic_saturation_memory_mb: 2048,
            wan_up_factor: 0.70,
            vm_provision: Dist::normal(95.0, 12.0),
            container_startup: Dist::normal(28.0, 4.0),
            vm_bandwidth_mbps: 1500.0,
            fn_timeout: SimDuration::from_secs(1800),
            concurrency_limit: 1000,
            warm_idle_expiry: SimDuration::from_mins(10),
            default_fn_config: FnConfig {
                memory_mb: 2048,
                vcpus: 1.0,
            },
        }
    }

    /// Ground truth for a simulated GCP: 5-second scheduler ticks, moderate
    /// variability, CPU-keyed NIC scaling.
    pub fn gcp() -> CloudParams {
        CloudParams {
            invoke_latency: Dist::lognormal_mean_cv(0.040, 0.35),
            cold_start: Dist::lognormal_mean_cv(0.60, 0.40),
            scheduler_period_s: 5.0,
            notif_delay: Dist::lognormal_mean_cv(0.50, 0.28),
            transfer_setup: Dist::normal(0.28, 0.07),
            db_latency: Dist::lognormal_mean_cv(0.006, 0.40),
            storage_api_rtt: Dist::lognormal_mean_cv(0.035, 0.30),
            instance_speed_cv: 0.35,
            parallel_cv_growth: 0.06,
            parallel_mean_retention: 0.975,
            transfer_noise_cv: 0.12,
            nic_down_peak_mbps: 600.0,
            nic_up_peak_mbps: 450.0,
            nic_saturation_memory_mb: 1024,
            wan_up_factor: 0.75,
            vm_provision: Dist::normal(42.0, 6.0),
            container_startup: Dist::normal(27.0, 3.0),
            vm_bandwidth_mbps: 1600.0,
            fn_timeout: SimDuration::from_secs(3600),
            concurrency_limit: 1000,
            warm_idle_expiry: SimDuration::from_mins(10),
            default_fn_config: FnConfig {
                memory_mb: 1024,
                vcpus: 2.0,
            },
        }
    }

    /// Per-function NIC rates `(download, upload)` in Mbps for a
    /// configuration.
    ///
    /// AWS/Azure scale network with memory up to a saturation knee; GCP
    /// scales with vCPUs up to 4 (Figure 6's "sweet spot": beyond it, a more
    /// expensive configuration buys no bandwidth).
    pub fn nic_mbps(&self, cloud: Cloud, config: FnConfig) -> (f64, f64) {
        let frac = match cloud {
            Cloud::Aws | Cloud::Azure => {
                (config.memory_mb as f64 / self.nic_saturation_memory_mb as f64).min(1.0)
            }
            Cloud::Gcp => (config.vcpus / 4.0).min(1.0),
        };
        // Even tiny configurations get a usable floor (128 MB Lambdas still
        // reach ~90 Mbps in practice).
        let frac = frac.max(0.12);
        (self.nic_down_peak_mbps * frac, self.nic_up_peak_mbps * frac)
    }
}

/// The full parameter set: one [`CloudParams`] per provider plus global
/// network constants.
#[derive(Debug, Clone)]
pub struct WorldParams {
    /// AWS ground truth.
    pub aws: CloudParams,
    /// Azure ground truth.
    pub azure: CloudParams,
    /// GCP ground truth.
    pub gcp: CloudParams,
    /// Multiplicative WAN penalty when a leg crosses cloud providers.
    pub cross_cloud_factor: f64,
    /// Shape constant of the distance attenuation `1 / (1 + k * d)` applied
    /// to WAN legs, where `d` is [`pricing::Geo::distance_factor`].
    pub distance_attenuation: f64,
}

impl WorldParams {
    /// The default calibrated parameters.
    pub fn paper_defaults() -> WorldParams {
        WorldParams {
            aws: CloudParams::aws(),
            azure: CloudParams::azure(),
            gcp: CloudParams::gcp(),
            cross_cloud_factor: 0.88,
            distance_attenuation: 2.2,
        }
    }

    /// The parameter sheet for one cloud.
    pub fn cloud(&self, cloud: Cloud) -> &CloudParams {
        match cloud {
            Cloud::Aws => &self.aws,
            Cloud::Azure => &self.azure,
            Cloud::Gcp => &self.gcp,
        }
    }

    /// Mutable access (used by fault-injection tests and ablations).
    pub fn cloud_mut(&mut self, cloud: Cloud) -> &mut CloudParams {
        match cloud {
            Cloud::Aws => &mut self.aws,
            Cloud::Azure => &mut self.azure,
            Cloud::Gcp => &mut self.gcp,
        }
    }

    /// WAN quality multiplier for a leg between two geographies.
    pub fn distance_quality(&self, d: f64) -> f64 {
        1.0 / (1.0 + self.distance_attenuation * d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::Geo;

    #[test]
    fn nic_rates_have_sweet_spots() {
        let aws = CloudParams::aws();
        let small = aws.nic_mbps(
            Cloud::Aws,
            FnConfig {
                memory_mb: 512,
                vcpus: 0.3,
            },
        );
        let knee = aws.nic_mbps(
            Cloud::Aws,
            FnConfig {
                memory_mb: 1769,
                vcpus: 1.0,
            },
        );
        let beyond = aws.nic_mbps(
            Cloud::Aws,
            FnConfig {
                memory_mb: 8192,
                vcpus: 4.0,
            },
        );
        assert!(small.0 < knee.0);
        assert_eq!(knee, beyond, "no gain beyond the sweet spot");
        assert_eq!(knee.0, 750.0);
    }

    #[test]
    fn gcp_nic_keyed_on_vcpus() {
        let gcp = CloudParams::gcp();
        let one = gcp.nic_mbps(
            Cloud::Gcp,
            FnConfig {
                memory_mb: 1024,
                vcpus: 1.0,
            },
        );
        let four = gcp.nic_mbps(
            Cloud::Gcp,
            FnConfig {
                memory_mb: 1024,
                vcpus: 4.0,
            },
        );
        let eight = gcp.nic_mbps(
            Cloud::Gcp,
            FnConfig {
                memory_mb: 1024,
                vcpus: 8.0,
            },
        );
        assert!(one.0 < four.0);
        assert_eq!(four, eight);
    }

    #[test]
    fn tiny_configs_get_a_floor() {
        let aws = CloudParams::aws();
        let (down, _) = aws.nic_mbps(
            Cloud::Aws,
            FnConfig {
                memory_mb: 128,
                vcpus: 0.1,
            },
        );
        assert!(down >= 750.0 * 0.12 - 1e-9);
    }

    #[test]
    fn functions_reach_a_few_hundred_mbps() {
        // Opportunity #1: all three clouds provide hundreds of Mbps.
        for (cloud, p) in [
            (Cloud::Aws, CloudParams::aws()),
            (Cloud::Azure, CloudParams::azure()),
            (Cloud::Gcp, CloudParams::gcp()),
        ] {
            let (down, up) = p.nic_mbps(cloud, p.default_fn_config);
            assert!(down >= 250.0, "{cloud} down {down}");
            assert!(up >= 200.0, "{cloud} up {up}");
        }
    }

    #[test]
    fn azure_has_highest_instance_variability() {
        let w = WorldParams::paper_defaults();
        assert!(w.azure.instance_speed_cv > w.gcp.instance_speed_cv);
        assert!(w.gcp.instance_speed_cv > w.aws.instance_speed_cv);
    }

    #[test]
    fn azure_vm_provisioning_is_slowest() {
        let w = WorldParams::paper_defaults();
        assert!(w.azure.vm_provision.mean() > w.gcp.vm_provision.mean());
        assert!(w.gcp.vm_provision.mean() > w.aws.vm_provision.mean());
        // Figure 4: AWS VM provisioning ~31 s, container startup ~26 s.
        assert!((w.aws.vm_provision.mean() - 31.0).abs() < 1.0);
        assert!((w.aws.container_startup.mean() - 26.0).abs() < 1.0);
    }

    #[test]
    fn distance_quality_is_monotone() {
        let w = WorldParams::paper_defaults();
        let local = w.distance_quality(Geo::UsEast.distance_factor(Geo::UsEast));
        let cont = w.distance_quality(Geo::UsEast.distance_factor(Geo::Canada));
        let eu = w.distance_quality(Geo::UsEast.distance_factor(Geo::Europe));
        let asia = w.distance_quality(Geo::UsEast.distance_factor(Geo::AsiaNortheast));
        assert_eq!(local, 1.0);
        assert!(local > cont && cont > eu && eu > asia);
        assert!(asia > 0.2, "even the worst links keep usable bandwidth");
    }

    #[test]
    fn scheduler_periods_match_documentation() {
        // "the scheduler of Google Cloud Run Functions runs every five
        // seconds"; AWS scales out without batching.
        assert_eq!(CloudParams::gcp().scheduler_period_s, 5.0);
        assert_eq!(CloudParams::aws().scheduler_period_s, 0.0);
        assert!(CloudParams::azure().scheduler_period_s > 0.0);
    }
}
