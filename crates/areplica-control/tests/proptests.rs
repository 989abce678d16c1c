//! Property-based tests of the control plane: the registry iterates in id
//! order regardless of registration order.

use areplica_control::{TenantRegistry, TenantSpec};
use proptest::prelude::*;

proptest! {
    #[test]
    fn registry_iteration_is_registration_order_independent(
        ids in proptest::collection::vec("[a-z]{1,8}", 1..20),
    ) {
        let mut fwd = TenantRegistry::new();
        for id in &ids {
            fwd.register(TenantSpec::new(id));
        }
        let mut rev = TenantRegistry::new();
        for id in ids.iter().rev() {
            rev.register(TenantSpec::new(id));
        }
        let a: Vec<String> = fwd.iter().map(|s| s.id.clone()).collect();
        let b: Vec<String> = rev.iter().map(|s| s.id.clone()).collect();
        prop_assert_eq!(&a, &b);
        let mut sorted: Vec<String> = ids.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(a, sorted);
    }
}
