//! Changelog propagation (§5.4).
//!
//! Object storage only sees opaque PUTs, so a COPY or concatenation of
//! existing objects normally forces a full cross-region transfer. AReplica
//! users (or program analysis) register a *changelog hint* in the cloud
//! database keyed by the new version's ETag; when the orchestrator finds a
//! hint whose sources already exist at the destination with matching ETags,
//! it applies the operation server-side at the destination — no WAN bytes.
//!
//! Correctness guard: the hint carries the source versions' ETags, and the
//! destination-side apply re-validates them (`If-Match`), so a stale
//! destination falls back to full replication.

use cloudapi::clouddb::{Item, Value};
use cloudapi::objstore::{Content, ETag, StoreError};
use cloudapi::RegionId;

use crate::backend::{Backend, Exec};

/// Errors from the user-side changelog helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangelogError {
    /// A referenced source object is missing or unreadable, so no hint can
    /// be registered and no local write happens.
    SourceUnavailable {
        /// The source key that could not be read.
        key: String,
        /// The underlying store error.
        cause: StoreError,
    },
    /// A concatenation was asked for with no source objects.
    NoSources,
}

impl std::fmt::Display for ChangelogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangelogError::SourceUnavailable { key, cause } => {
                write!(f, "changelog source {key:?} unavailable: {cause}")
            }
            ChangelogError::NoSources => write!(f, "a concatenation needs at least one source"),
        }
    }
}

impl std::error::Error for ChangelogError {}

/// The DB table holding changelog hints (in the source region).
pub const CHANGELOG_TABLE: &str = "areplica_changelog";

/// A registered change operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// The new object is a byte-identical copy of `src_key`@`src_etag`.
    Copy {
        /// Source object key (same bucket).
        src_key: String,
        /// Source version.
        src_etag: ETag,
    },
    /// The new object is the concatenation of the listed versions.
    Concat {
        /// Ordered source parts (key, version).
        sources: Vec<(String, ETag)>,
    },
}

/// The changelog entry key for a new version of `key` with `etag`.
pub fn entry_key(bucket: &str, key: &str, etag: ETag) -> String {
    format!("{bucket}/{key}#{:016x}", etag.0)
}

/// Encodes an operation as a DB item.
pub fn encode(op: &ChangeOp) -> Item {
    let mut item = Item::new();
    match op {
        ChangeOp::Copy { src_key, src_etag } => {
            item.insert("op".into(), Value::Str("copy".into()));
            item.insert("src_key".into(), Value::Str(src_key.clone()));
            item.insert("src_etag".into(), Value::Uint(src_etag.0));
        }
        ChangeOp::Concat { sources } => {
            item.insert("op".into(), Value::Str("concat".into()));
            item.insert(
                "keys".into(),
                Value::List(sources.iter().map(|(k, _)| Value::Str(k.clone())).collect()),
            );
            item.insert(
                "etags".into(),
                Value::List(sources.iter().map(|(_, e)| Value::Uint(e.0)).collect()),
            );
        }
    }
    item
}

/// Decodes a DB item back into an operation.
pub fn decode(item: &Item) -> Option<ChangeOp> {
    match item.get("op")?.as_str()? {
        "copy" => Some(ChangeOp::Copy {
            src_key: item.get("src_key")?.as_str()?.to_string(),
            src_etag: ETag(item.get("src_etag")?.as_uint()?),
        }),
        "concat" => {
            let keys = item.get("keys")?.as_list()?;
            let etags = item.get("etags")?.as_list()?;
            if keys.len() != etags.len() || keys.is_empty() {
                return None;
            }
            let sources = keys
                .iter()
                .zip(etags)
                .map(|(k, e)| Some((k.as_str()?.to_string(), ETag(e.as_uint()?))))
                .collect::<Option<Vec<_>>>()?;
            Some(ChangeOp::Concat { sources })
        }
        _ => None,
    }
}

/// User-side helper: copies `src_key` to `dst_key` in the source bucket,
/// registering the changelog hint *before* the write so the replication
/// pipeline can find it.
///
/// `cb` receives the new version's ETag. Fails up front (before any hint is
/// registered) when the source object cannot be statted.
pub fn user_copy<B: Backend>(
    sim: &mut B,
    region: RegionId,
    bucket: String,
    src_key: String,
    dst_key: String,
    cb: impl FnOnce(&mut B, ETag) + 'static,
) -> Result<(), ChangelogError> {
    let stat = sim.stat_now(region, &bucket, &src_key).map_err(|cause| {
        ChangelogError::SourceUnavailable {
            key: src_key.clone(),
            cause,
        }
    })?;
    // A server-side copy produces byte-identical content, so the new
    // version's ETag equals the source's.
    let hint_key = entry_key(&bucket, &dst_key, stat.etag);
    let op = ChangeOp::Copy {
        src_key: src_key.clone(),
        src_etag: stat.etag,
    };
    let exec = Exec::Platform {
        region,
        mbps: 1000.0,
    };
    sim.db_transact(
        exec,
        region,
        CHANGELOG_TABLE.into(),
        hint_key,
        move |slot| {
            *slot = Some(encode(&op));
        },
        move |sim, ()| {
            sim.copy_object(
                exec,
                region,
                bucket,
                src_key,
                dst_key,
                Some(stat.etag),
                move |sim, applied| {
                    #[expect(
                        clippy::expect_used,
                        reason = "source existence and ETag were validated by the stat above; nothing mutates the bucket in between"
                    )]
                    let applied = applied.expect("local copy");
                    cb(sim, applied.etag);
                },
            );
        },
    );
    Ok(())
}

/// User-side helper: concatenates existing objects into `dst_key`,
/// registering the changelog hint first. Fails up front (before any hint is
/// registered) when `src_keys` is empty or a source object cannot be read.
pub fn user_concat<B: Backend>(
    sim: &mut B,
    region: RegionId,
    bucket: String,
    src_keys: Vec<String>,
    dst_key: String,
    cb: impl FnOnce(&mut B, ETag) + 'static,
) -> Result<(), ChangelogError> {
    if src_keys.is_empty() {
        return Err(ChangelogError::NoSources);
    }
    let mut sources = Vec::with_capacity(src_keys.len());
    let mut contents: Vec<Content> = Vec::with_capacity(src_keys.len());
    for k in &src_keys {
        let (content, etag) = sim.read_full_now(region, &bucket, k).map_err(|cause| {
            ChangelogError::SourceUnavailable {
                key: k.clone(),
                cause,
            }
        })?;
        sources.push((k.clone(), etag));
        contents.push(content);
    }
    let assembled = Content::concat(contents.iter());
    let new_etag = ETag::of(&assembled);
    let hint_key = entry_key(&bucket, &dst_key, new_etag);
    let op = ChangeOp::Concat { sources };
    let exec = Exec::Platform {
        region,
        mbps: 1000.0,
    };
    sim.db_transact(
        exec,
        region,
        CHANGELOG_TABLE.into(),
        hint_key,
        move |slot| {
            *slot = Some(encode(&op));
        },
        move |sim, ()| {
            #[expect(
                clippy::expect_used,
                reason = "the sources were readable above, so the bucket exists; a user PUT into an existing bucket cannot fail"
            )]
            let applied = sim
                .user_put_content(region, &bucket, &dst_key, assembled)
                .expect("concat put");
            cb(sim, applied.etag);
        },
    );
    Ok(())
}

/// Destination-side application of a changelog hint.
///
/// Verifies every source version at the destination and applies the
/// operation server-side. `cb` receives `Ok(etag)` on success or `Err(())`
/// when the destination is stale (caller falls back to full replication).
pub fn apply_at_destination<B: Backend>(
    sim: &mut B,
    exec: Exec,
    dst_region: RegionId,
    dst_bucket: String,
    dst_key: String,
    op: ChangeOp,
    cb: impl FnOnce(&mut B, Result<ETag, ()>) + 'static,
) {
    match op {
        ChangeOp::Copy { src_key, src_etag } => {
            sim.copy_object(
                exec,
                dst_region,
                dst_bucket,
                src_key,
                dst_key,
                Some(src_etag),
                move |sim, applied| match applied {
                    Ok(a) => cb(sim, Ok(a.etag)),
                    Err(_) => cb(sim, Err(())),
                },
            );
        }
        ChangeOp::Concat { sources } => {
            let job = ConcatAt {
                exec,
                region: dst_region,
                bucket: dst_bucket,
                key: dst_key,
                sources,
            };
            concat_at_destination(sim, job, 0, cb);
        }
    }
}

/// A concatenation applied at the destination: who validates it, where,
/// what it writes and the source versions it reads.
struct ConcatAt {
    exec: Exec,
    region: RegionId,
    bucket: String,
    key: String,
    sources: Vec<(String, ETag)>,
}

/// Validates `job.sources[validated..]` one after another, each with its
/// own metered stat (one control-plane operation per source, like S3
/// UploadPartCopy) whose ETag must match, then assembles the object.
fn concat_at_destination<B: Backend>(
    sim: &mut B,
    job: ConcatAt,
    validated: usize,
    cb: impl FnOnce(&mut B, Result<ETag, ()>) + 'static,
) {
    if let Some((key, expect)) = job.sources.get(validated).cloned() {
        sim.stat_object(
            job.exec,
            job.region,
            job.bucket.clone(),
            key,
            move |sim, stat| match stat {
                Ok(stat) if stat.etag == expect => {
                    concat_at_destination(sim, job, validated + 1, cb);
                }
                _ => cb(sim, Err(())),
            },
        );
        return;
    }
    // The assembly reads each source's recipe server-side, guarded by its
    // ETag again: a source may change between its stat and the assembly.
    let mut contents = Vec::with_capacity(job.sources.len());
    for (key, expect) in &job.sources {
        match sim.read_full_now(job.region, &job.bucket, key) {
            Ok((content, etag)) if etag == *expect => contents.push(content),
            _ => {
                cb(sim, Err(()));
                return;
            }
        }
    }
    // The assembly itself runs inside the destination region (server-side,
    // like S3 UploadPartCopy), so no byte crosses the WAN. It lands even if
    // the orchestrator dies meanwhile; a dead orchestrator never sees the
    // reply, and its platform retry re-applies the hint.
    let local = Exec::Platform {
        region: job.region,
        mbps: 1000.0,
    };
    let exec = job.exec;
    sim.put_object(
        local,
        job.region,
        job.bucket,
        job.key,
        Content::concat(contents.iter()),
        move |sim, applied| {
            if let Exec::Function(h) = exec {
                if sim.remaining_exec_time(h).is_none() {
                    return;
                }
            }
            cb(sim, applied.map(|a| a.etag).map_err(|_| ()));
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_copy() {
        let op = ChangeOp::Copy {
            src_key: "a".into(),
            src_etag: ETag(42),
        };
        assert_eq!(decode(&encode(&op)), Some(op));
    }

    #[test]
    fn encode_decode_concat() {
        let op = ChangeOp::Concat {
            sources: vec![("a".into(), ETag(1)), ("b".into(), ETag(2))],
        };
        assert_eq!(decode(&encode(&op)), Some(op));
    }

    #[test]
    fn decode_rejects_malformed() {
        let mut item = Item::new();
        item.insert("op".into(), Value::Str("teleport".into()));
        assert_eq!(decode(&item), None);
        let empty_concat = encode(&ChangeOp::Concat { sources: vec![] });
        assert_eq!(decode(&empty_concat), None);
    }

    #[test]
    fn entry_keys_disambiguate() {
        assert_ne!(entry_key("b", "k", ETag(1)), entry_key("b", "k", ETag(2)));
        assert_ne!(entry_key("b", "k1", ETag(1)), entry_key("b", "k2", ETag(1)));
        assert_ne!(entry_key("b1", "k", ETag(1)), entry_key("b2", "k", ETag(1)));
    }
}
