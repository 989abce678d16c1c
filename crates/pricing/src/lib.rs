//! # pricing — multi-cloud price catalogs and cost accounting
//!
//! The cost side of the reproduction: exact fixed-point [`Money`], the
//! [`Cloud`]/[`Geo`] identifiers shared across the workspace, the
//! [`PriceCatalog`] with the public list prices the paper's evaluation cites,
//! and the [`CostLedger`] every simulated operation meters into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod catalog;
pub mod cloud;
pub mod ledger;
pub mod money;

pub use catalog::{CloudPrices, PriceCatalog, GIB};
pub use cloud::{Cloud, Continent, Geo};
pub use ledger::{CostCategory, CostLedger, CostSnapshot};
pub use money::Money;
