//! One module per paper artifact; each `run()` returns a formatted report.
//!
//! See DESIGN.md's per-experiment index for the mapping to the paper's
//! tables and figures.

pub mod ablation_part_size;
pub mod fig02_put_sizes;
pub mod fig03_throughput;
pub mod fig04_skyplane_breakdown;
pub mod fig05_skyplane_dynamic;
pub mod fig06_bandwidth_config;
pub mod fig07_scaling;
pub mod fig08_asymmetry;
pub mod fig09_variability;
pub mod fig16_bulk;
pub mod fig17_scheduling;
pub mod fig18_19_model_accuracy;
pub mod fig20_region_selection;
pub mod fig21_changelog;
pub mod fig22_batching;
pub mod fig23_trace_replay;
pub mod multi_tenant;
pub mod region_outage;
pub mod slo_burn;
pub mod table4_model_accuracy;
pub mod tables_delay_cost;

use cloudsim::Cloud;

/// An experiment as `(report name, run)`: `run` returns the report that
/// `all_experiments` writes to `results/<name>.txt`.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment `all_experiments` regenerates, in the order its reports
/// are written. `perf_snapshot` times the same list.
pub const ALL: &[Experiment] = &[
    ("fig02_put_sizes", fig02_put_sizes::run),
    ("fig03_throughput", fig03_throughput::run),
    ("fig04_skyplane_breakdown", fig04_skyplane_breakdown::run),
    ("fig05_skyplane_dynamic", fig05_skyplane_dynamic::run),
    ("fig06_bandwidth_config", fig06_bandwidth_config::run),
    ("fig07_scaling", fig07_scaling::run),
    ("fig08_asymmetry", fig08_asymmetry::run),
    ("fig09_variability", fig09_variability::run),
    ("table1_aws", || {
        tables_delay_cost::run(1, (Cloud::Aws, "us-east-1"))
    }),
    ("table2_azure", || {
        tables_delay_cost::run(2, (Cloud::Azure, "eastus"))
    }),
    ("table3_gcp", || {
        tables_delay_cost::run(3, (Cloud::Gcp, "us-east1"))
    }),
    ("fig16_bulk", fig16_bulk::run),
    ("fig17_scheduling_ablation", fig17_scheduling::run),
    ("fig18_model_accuracy", fig18_19_model_accuracy::run),
    ("table4_model_accuracy", table4_model_accuracy::run),
    ("fig20_region_selection", fig20_region_selection::run),
    ("fig21_changelog", fig21_changelog::run),
    ("fig22_batching", fig22_batching::run),
    ("fig23_trace_replay", fig23_trace_replay::run),
    ("ablation_part_size", ablation_part_size::run),
    ("multi_tenant", multi_tenant::run),
    ("slo_burn", slo_burn::run),
    ("region_outage", region_outage::run),
];
