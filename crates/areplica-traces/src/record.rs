//! The trace record model.
//!
//! The record shape follows the public IBM Cloud Object Storage traces
//! (SNIA IOTTA #36305): a millisecond timestamp, an operation and an
//! object id. Only PUT and DELETE drive replication, so those are the only
//! operations a trace holds: §8.3 removes the GET and HEAD records before
//! replay, and the generator ([`crate::synth`]) emits none.

use serde::{Deserialize, Serialize};
use simkernel::SimDuration;

/// An object-storage operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Write an object of the given size.
    Put {
        /// Object size in bytes.
        size: u64,
    },
    /// Delete an object.
    Delete,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Offset from the trace start.
    pub at: SimDurationMs,
    /// Object key.
    pub key: String,
    /// The operation.
    pub op: TraceOp,
}

/// Milliseconds wrapper so records serialize compactly and order naturally.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SimDurationMs(pub u64);

impl SimDurationMs {
    /// As a simulator duration.
    pub fn to_duration(self) -> SimDuration {
        SimDuration::from_millis(self.0)
    }
}

/// A full trace: records sorted by timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Time-ordered records.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The trace duration (last record offset).
    pub fn duration(&self) -> SimDuration {
        self.records
            .last()
            .map(|r| r.at.to_duration())
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let t = Trace {
            records: vec![
                TraceRecord {
                    at: SimDurationMs(0),
                    key: "a".into(),
                    op: TraceOp::Put { size: 100 },
                },
                TraceRecord {
                    at: SimDurationMs(2500),
                    key: "a".into(),
                    op: TraceOp::Delete,
                },
            ],
        };
        assert_eq!(t.duration(), SimDuration::from_millis(2500));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Trace::default().is_empty());
    }
}
