//! Property-based tests of the generator's invariants.

use areplica_traces::{generate, SynthConfig, TraceOp};
use proptest::prelude::*;
use simkernel::SimDuration;

proptest! {
    #[test]
    fn generated_traces_are_time_ordered_and_causal(seed in 0u64..500) {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(8),
            mean_ops_per_sec: 3.0,
            delete_fraction: 0.15,
            ..SynthConfig::ibm_cos_like()
        };
        let trace = generate(&cfg, seed);
        let mut live = std::collections::HashSet::new();
        let mut prev = 0u64;
        for r in &trace.records {
            prop_assert!(r.at.0 >= prev, "records out of order");
            prev = r.at.0;
            match &r.op {
                TraceOp::Put { size } => {
                    prop_assert!(*size > 0);
                    live.insert(r.key.clone());
                }
                TraceOp::Delete => {
                    prop_assert!(live.remove(&r.key), "delete of dead key {}", r.key);
                }
            }
        }
    }
}
