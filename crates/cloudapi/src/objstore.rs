//! Simulated object storage (S3 / Blob Storage / GCS surface).
//!
//! Object *content* is modelled as a **recipe** — a list of byte slices of
//! immutable blobs — rather than actual bytes. A fresh PUT mints a new
//! [`BlobId`]; a ranged GET returns the sub-slice; multipart completion
//! concatenates part recipes. Two objects are byte-identical iff their
//! normalized recipes are equal, which lets tests detect the paper's
//! Figure 14 corruption (an object assembled from parts of *different*
//! source versions) exactly.
//!
//! This module is pure state (no simulator dependency): timing, notification
//! scheduling, and cost metering live in the simulator's `cloudsim::world`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use simkernel::SimTime;

/// Identity of an immutable blob of bytes (one per distinct written content).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobId(pub u64);

/// A contiguous byte range of a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slice {
    /// The source blob.
    pub blob: BlobId,
    /// Starting byte offset within the blob.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// The content of an object: an ordered list of slices.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Content {
    slices: Vec<Slice>,
}

impl Content {
    /// A brand-new blob of `size` bytes (what a simple PUT writes).
    pub fn fresh(blob: BlobId, size: u64) -> Content {
        if size == 0 {
            return Content { slices: vec![] };
        }
        Content {
            slices: vec![Slice {
                blob,
                offset: 0,
                len: size,
            }],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.slices.iter().map(|s| s.len).sum()
    }

    /// The normalized slice list (adjacent slices of the same blob with
    /// contiguous offsets are merged), so equivalent byte sequences compare
    /// equal regardless of how they were assembled.
    pub fn normalized(&self) -> Content {
        let mut out: Vec<Slice> = Vec::with_capacity(self.slices.len());
        for s in &self.slices {
            if s.len == 0 {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.blob == s.blob && last.offset + last.len == s.offset {
                    last.len += s.len;
                    continue;
                }
            }
            out.push(*s);
        }
        Content { slices: out }
    }

    /// Byte-equality of two contents.
    pub fn same_bytes(&self, other: &Content) -> bool {
        self.normalized() == other.normalized()
    }

    /// Reads the byte range `[offset, offset + len)`.
    ///
    /// Returns `None` if the range exceeds the content size.
    pub fn read_range(&self, offset: u64, len: u64) -> Option<Content> {
        if offset + len > self.size() {
            return None;
        }
        let mut out = Vec::new();
        let mut skip = offset;
        let mut want = len;
        for s in &self.slices {
            if want == 0 {
                break;
            }
            if skip >= s.len {
                skip -= s.len;
                continue;
            }
            let take = (s.len - skip).min(want);
            out.push(Slice {
                blob: s.blob,
                offset: s.offset + skip,
                len: take,
            });
            skip = 0;
            want -= take;
        }
        debug_assert_eq!(want, 0);
        Some(Content { slices: out }.normalized())
    }

    /// Concatenates contents in order (multipart completion, COPY-concat).
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Content>) -> Content {
        let mut slices = Vec::new();
        for p in parts {
            slices.extend_from_slice(&p.slices);
        }
        Content { slices }.normalized()
    }

    /// The raw slices (normalized form not guaranteed).
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// True when all bytes come from a single blob, covering a prefix-free
    /// contiguous range — i.e. the content was *not* stitched from multiple
    /// writes. Consistency tests use this to assert a replicated object is
    /// not a Figure-14 hybrid.
    pub fn is_single_source(&self) -> bool {
        self.normalized().slices.len() <= 1
    }
}

/// A platform-generated content hash, compared with `==` like S3 ETags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ETag(pub u64);

impl ETag {
    /// Computes the ETag of a content recipe (FNV-1a over normalized slices).
    pub fn of(content: &Content) -> ETag {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let norm = content.normalized();
        mix(norm.slices.len() as u64);
        for s in &norm.slices {
            mix(s.blob.0);
            mix(s.offset);
            mix(s.len);
        }
        ETag(h)
    }
}

impl fmt::Display for ETag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{:016x}\"", self.0)
    }
}

/// One stored version of an object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectVersion {
    /// Content hash.
    pub etag: ETag,
    /// Content recipe.
    pub content: Content,
    /// When this version became current (PUT completion time).
    pub created_at: SimTime,
    /// Monotone per-bucket write sequence number (ordering for locks).
    pub seq: u64,
}

/// The kind of change a notification reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An object version was created.
    Put,
    /// An object was deleted.
    Delete,
}

/// The JSON-shaped notification payload the cloud generates on writes.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectEvent {
    /// Bucket name.
    pub bucket: String,
    /// Object key.
    pub key: String,
    /// Change kind.
    pub kind: EventKind,
    /// ETag of the new version (PUT) or of the deleted version (DELETE).
    pub etag: ETag,
    /// Object size in bytes (0 for DELETE).
    pub size: u64,
    /// When the write completed (the notification's embedded timestamp).
    pub event_time: SimTime,
    /// The version's write sequence number.
    pub seq: u64,
}

/// Identifier of a registered notification handler (held by the world).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NotificationTarget(pub u64);

/// A bucket.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Each live key's current version.
    objects: HashMap<String, ObjectVersion>,
    /// Notification subscriptions.
    pub notification_targets: Vec<NotificationTarget>,
    next_seq: u64,
}

/// Errors from object-storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The bucket does not exist.
    NoSuchBucket,
    /// The object does not exist.
    NoSuchKey,
    /// Conditional request failed: current ETag differs from expected.
    PreconditionFailed {
        /// The ETag the object currently has.
        current: ETag,
    },
    /// The requested byte range is outside the object.
    InvalidRange,
    /// The multipart upload id is unknown (or already completed/aborted).
    NoSuchUpload,
    /// The service (or the region hosting it) is temporarily unavailable —
    /// the hard-error face of a fault-domain outage window.
    Unavailable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchBucket => write!(f, "no such bucket"),
            StoreError::NoSuchKey => write!(f, "no such key"),
            StoreError::PreconditionFailed { current } => {
                write!(f, "precondition failed (current etag {current})")
            }
            StoreError::InvalidRange => write!(f, "invalid range"),
            StoreError::NoSuchUpload => write!(f, "no such multipart upload"),
            StoreError::Unavailable => write!(f, "service unavailable"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An in-flight multipart upload.
#[derive(Debug, Clone)]
struct MultipartState {
    bucket: String,
    key: String,
    parts: BTreeMap<u32, Content>,
}

/// Object metadata returned by stat requests.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStat {
    /// Current ETag.
    pub etag: ETag,
    /// Current size.
    pub size: u64,
    /// Current version's creation time.
    pub created_at: SimTime,
    /// Current version's write sequence number.
    pub seq: u64,
}

/// The per-region object store.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    buckets: HashMap<String, Bucket>,
    multiparts: HashMap<u64, MultipartState>,
    next_upload_id: u64,
}

/// Outcome of a successful PUT, with the notifications to fan out.
#[derive(Debug, Clone, PartialEq)]
pub struct PutApplied {
    /// The new version's ETag.
    pub etag: ETag,
    /// The notification event to deliver to each subscribed target.
    pub event: ObjectEvent,
    /// Subscribed targets at write time.
    pub targets: Vec<NotificationTarget>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Creates a bucket (idempotent).
    pub fn create_bucket(&mut self, name: &str) {
        self.buckets.entry(name.to_string()).or_default();
    }

    /// Subscribes a notification target to a bucket's write events.
    pub fn subscribe(
        &mut self,
        bucket: &str,
        target: NotificationTarget,
    ) -> Result<(), StoreError> {
        self.bucket_mut(bucket)?.notification_targets.push(target);
        Ok(())
    }

    fn bucket(&self, name: &str) -> Result<&Bucket, StoreError> {
        self.buckets.get(name).ok_or(StoreError::NoSuchBucket)
    }

    fn bucket_mut(&mut self, name: &str) -> Result<&mut Bucket, StoreError> {
        self.buckets.get_mut(name).ok_or(StoreError::NoSuchBucket)
    }

    /// Applies a completed PUT: the new version becomes current immediately.
    ///
    /// Concurrent PUTs are resolved by apply order (last completion wins),
    /// which reproduces the nondeterminism of Figure 13.
    pub fn apply_put(
        &mut self,
        bucket: &str,
        key: &str,
        content: Content,
        now: SimTime,
    ) -> Result<PutApplied, StoreError> {
        let b = self.bucket_mut(bucket)?;
        b.next_seq += 1;
        let seq = b.next_seq;
        let etag = ETag::of(&content);
        let size = content.size();
        let version = ObjectVersion {
            etag,
            content,
            created_at: now,
            seq,
        };
        b.objects.insert(key.to_string(), version);
        let targets = b.notification_targets.clone();
        Ok(PutApplied {
            etag,
            event: ObjectEvent {
                bucket: bucket.to_string(),
                key: key.to_string(),
                kind: EventKind::Put,
                etag,
                size,
                event_time: now,
                seq,
            },
            targets,
        })
    }

    /// Applies a DELETE.
    pub fn apply_delete(
        &mut self,
        bucket: &str,
        key: &str,
        now: SimTime,
    ) -> Result<PutApplied, StoreError> {
        let b = self.bucket_mut(bucket)?;
        let current = b.objects.remove(key).ok_or(StoreError::NoSuchKey)?;
        b.next_seq += 1;
        let seq = b.next_seq;
        let targets = b.notification_targets.clone();
        Ok(PutApplied {
            etag: current.etag,
            event: ObjectEvent {
                bucket: bucket.to_string(),
                key: key.to_string(),
                kind: EventKind::Delete,
                etag: current.etag,
                size: 0,
                event_time: now,
                seq,
            },
            targets,
        })
    }

    /// Stats the current version of an object.
    pub fn stat(&self, bucket: &str, key: &str) -> Result<ObjectStat, StoreError> {
        let cur = self
            .bucket(bucket)?
            .objects
            .get(key)
            .ok_or(StoreError::NoSuchKey)?;
        Ok(ObjectStat {
            etag: cur.etag,
            size: cur.content.size(),
            created_at: cur.created_at,
            seq: cur.seq,
        })
    }

    /// Reads `[offset, offset + len)` of the current version, optionally
    /// requiring the current ETag to match (`If-Match` semantics).
    pub fn read_range(
        &self,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
        if_match: Option<ETag>,
    ) -> Result<(Content, ETag), StoreError> {
        let cur = self
            .bucket(bucket)?
            .objects
            .get(key)
            .ok_or(StoreError::NoSuchKey)?;
        if let Some(expect) = if_match {
            if expect != cur.etag {
                return Err(StoreError::PreconditionFailed { current: cur.etag });
            }
        }
        let content = cur
            .content
            .read_range(offset, len)
            .ok_or(StoreError::InvalidRange)?;
        Ok((content, cur.etag))
    }

    /// Reads the whole current version.
    pub fn read_full(&self, bucket: &str, key: &str) -> Result<(Content, ETag), StoreError> {
        let stat = self.stat(bucket, key)?;
        self.read_range(bucket, key, 0, stat.size, None)
    }

    /// Server-side COPY within this region: writes `src_key`'s current
    /// content to `dst_key` without any data leaving the store.
    ///
    /// With `if_match`, fails unless the source's current ETag matches —
    /// the guard changelog propagation relies on (§5.4).
    pub fn copy_object(
        &mut self,
        bucket: &str,
        src_key: &str,
        dst_key: &str,
        if_match: Option<ETag>,
        now: SimTime,
    ) -> Result<PutApplied, StoreError> {
        let (content, _etag) = {
            let stat = self.stat(bucket, src_key)?;
            if let Some(expect) = if_match {
                if expect != stat.etag {
                    return Err(StoreError::PreconditionFailed { current: stat.etag });
                }
            }
            self.read_range(bucket, src_key, 0, stat.size, None)?
        };
        self.apply_put(bucket, dst_key, content, now)
    }

    /// Starts a multipart upload, returning its id.
    pub fn create_multipart(&mut self, bucket: &str, key: &str) -> Result<u64, StoreError> {
        self.bucket(bucket)?;
        self.next_upload_id += 1;
        let id = self.next_upload_id;
        self.multiparts.insert(
            id,
            MultipartState {
                bucket: bucket.to_string(),
                key: key.to_string(),
                parts: BTreeMap::new(),
            },
        );
        Ok(id)
    }

    /// Uploads one part (parts may arrive in any order; re-upload replaces).
    pub fn upload_part(
        &mut self,
        upload_id: u64,
        part_number: u32,
        content: Content,
    ) -> Result<(), StoreError> {
        let mp = self
            .multiparts
            .get_mut(&upload_id)
            .ok_or(StoreError::NoSuchUpload)?;
        mp.parts.insert(part_number, content);
        Ok(())
    }

    /// Completes a multipart upload: assembles parts in part-number order and
    /// applies the resulting PUT.
    pub fn complete_multipart(
        &mut self,
        upload_id: u64,
        now: SimTime,
    ) -> Result<PutApplied, StoreError> {
        let mp = self
            .multiparts
            .remove(&upload_id)
            .ok_or(StoreError::NoSuchUpload)?;
        let content = Content::concat(mp.parts.values());
        self.apply_put(&mp.bucket, &mp.key, content, now)
    }

    /// Aborts a multipart upload, discarding its parts.
    pub fn abort_multipart(&mut self, upload_id: u64) -> Result<(), StoreError> {
        self.multiparts
            .remove(&upload_id)
            .map(|_| ())
            .ok_or(StoreError::NoSuchUpload)
    }

    /// Upload ids of multipart uploads that are still open (created but
    /// neither completed nor aborted), sorted ascending.
    ///
    /// An open upload after a workload quiesces is a leak: real stores keep
    /// billing for the staged parts until an abort or a lifecycle rule
    /// reaps them. Quiescence oracles (`crates/simcheck`) assert emptiness.
    pub fn open_multipart_uploads(&self) -> Vec<u64> {
        #[expect(clippy::disallowed_methods, reason = "sorted right below")]
        let mut ids: Vec<u64> = self.multiparts.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn fresh_content_and_etag() {
        let c = Content::fresh(BlobId(1), 100);
        assert_eq!(c.size(), 100);
        assert!(c.is_single_source());
        let c2 = Content::fresh(BlobId(1), 100);
        assert_eq!(ETag::of(&c), ETag::of(&c2));
        let c3 = Content::fresh(BlobId(2), 100);
        assert_ne!(ETag::of(&c), ETag::of(&c3));
    }

    #[test]
    fn read_range_slices_correctly() {
        let c = Content::fresh(BlobId(1), 100);
        let r = c.read_range(10, 20).unwrap();
        assert_eq!(r.size(), 20);
        assert_eq!(
            r.slices(),
            &[Slice {
                blob: BlobId(1),
                offset: 10,
                len: 20
            }]
        );
        assert!(c.read_range(90, 20).is_none());
        assert_eq!(c.read_range(0, 0).unwrap().size(), 0);
    }

    #[test]
    fn concat_of_contiguous_ranges_normalizes_to_original() {
        let c = Content::fresh(BlobId(7), 64);
        let a = c.read_range(0, 32).unwrap();
        let b = c.read_range(32, 32).unwrap();
        let joined = Content::concat([&a, &b]);
        assert!(joined.same_bytes(&c));
        assert_eq!(ETag::of(&joined), ETag::of(&c));
        assert!(joined.is_single_source());
    }

    #[test]
    fn mixed_blob_assembly_is_detectable() {
        // The Figure 14 scenario: half from v1's blob, half from v2's blob.
        let v1 = Content::fresh(BlobId(1), 64);
        let v2 = Content::fresh(BlobId(2), 64);
        let hybrid = Content::concat([
            &v1.read_range(0, 32).unwrap(),
            &v2.read_range(32, 32).unwrap(),
        ]);
        assert!(!hybrid.is_single_source());
        assert!(!hybrid.same_bytes(&v1));
        assert!(!hybrid.same_bytes(&v2));
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let content = Content::fresh(BlobId(1), 1024);
        let applied = s.apply_put("b", "k", content.clone(), t(5)).unwrap();
        let stat = s.stat("b", "k").unwrap();
        assert_eq!(stat.etag, applied.etag);
        assert_eq!(stat.size, 1024);
        assert_eq!(stat.created_at, t(5));
        let (read, etag) = s.read_full("b", "k").unwrap();
        assert!(read.same_bytes(&content));
        assert_eq!(etag, applied.etag);
    }

    #[test]
    fn missing_bucket_and_key_errors() {
        let mut s = ObjectStore::new();
        assert_eq!(
            s.apply_put("nope", "k", Content::fresh(BlobId(1), 1), t(0)),
            Err(StoreError::NoSuchBucket)
        );
        s.create_bucket("b");
        assert_eq!(s.stat("b", "k"), Err(StoreError::NoSuchKey));
        assert_eq!(s.apply_delete("b", "k", t(0)), Err(StoreError::NoSuchKey));
    }

    #[test]
    fn overwrite_last_completion_wins() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        s.apply_put("b", "k", Content::fresh(BlobId(1), 10), t(1))
            .unwrap();
        let second = s
            .apply_put("b", "k", Content::fresh(BlobId(2), 20), t(2))
            .unwrap();
        let stat = s.stat("b", "k").unwrap();
        assert_eq!(stat.etag, second.etag);
        assert_eq!(stat.size, 20);
        assert!(stat.seq > 1);
    }

    #[test]
    fn if_match_precondition() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let first = s
            .apply_put("b", "k", Content::fresh(BlobId(1), 10), t(1))
            .unwrap();
        assert!(s.read_range("b", "k", 0, 10, Some(first.etag)).is_ok());
        let second = s
            .apply_put("b", "k", Content::fresh(BlobId(2), 10), t(2))
            .unwrap();
        match s.read_range("b", "k", 0, 10, Some(first.etag)) {
            Err(StoreError::PreconditionFailed { current }) => assert_eq!(current, second.etag),
            other => panic!("expected precondition failure, got {other:?}"),
        }
    }

    #[test]
    fn delete_removes_current_version() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        s.apply_put("b", "k", Content::fresh(BlobId(1), 10), t(1))
            .unwrap();
        let del = s.apply_delete("b", "k", t(2)).unwrap();
        assert_eq!(del.event.kind, EventKind::Delete);
        assert_eq!(s.stat("b", "k"), Err(StoreError::NoSuchKey));
    }

    #[test]
    fn multipart_assembles_in_part_order() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let src = Content::fresh(BlobId(9), 96);
        let id = s.create_multipart("b", "k").unwrap();
        // Upload out of order.
        s.upload_part(id, 3, src.read_range(64, 32).unwrap())
            .unwrap();
        s.upload_part(id, 1, src.read_range(0, 32).unwrap())
            .unwrap();
        s.upload_part(id, 2, src.read_range(32, 32).unwrap())
            .unwrap();
        let applied = s.complete_multipart(id, t(10)).unwrap();
        assert_eq!(applied.etag, ETag::of(&src));
        let (content, _) = s.read_full("b", "k").unwrap();
        assert!(content.same_bytes(&src));
        // Upload id is consumed.
        assert_eq!(
            s.complete_multipart(id, t(11)),
            Err(StoreError::NoSuchUpload)
        );
    }

    #[test]
    fn multipart_reupload_replaces_part() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let id = s.create_multipart("b", "k").unwrap();
        s.upload_part(id, 1, Content::fresh(BlobId(1), 10)).unwrap();
        s.upload_part(id, 1, Content::fresh(BlobId(2), 10)).unwrap();
        let applied = s.complete_multipart(id, t(1)).unwrap();
        assert_eq!(applied.etag, ETag::of(&Content::fresh(BlobId(2), 10)));
    }

    #[test]
    fn abort_multipart_discards() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let id = s.create_multipart("b", "k").unwrap();
        s.abort_multipart(id).unwrap();
        assert_eq!(
            s.upload_part(id, 1, Content::fresh(BlobId(1), 1)),
            Err(StoreError::NoSuchUpload)
        );
    }

    #[test]
    fn notifications_list_subscribed_targets() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        s.subscribe("b", NotificationTarget(42)).unwrap();
        s.subscribe("b", NotificationTarget(43)).unwrap();
        let applied = s
            .apply_put("b", "k", Content::fresh(BlobId(1), 10), t(1))
            .unwrap();
        assert_eq!(
            applied.targets,
            vec![NotificationTarget(42), NotificationTarget(43)]
        );
        assert_eq!(applied.event.kind, EventKind::Put);
        assert_eq!(applied.event.size, 10);
    }

    #[test]
    fn write_sequence_is_monotone_per_bucket() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let a = s
            .apply_put("b", "x", Content::fresh(BlobId(1), 1), t(1))
            .unwrap();
        let b = s
            .apply_put("b", "y", Content::fresh(BlobId(2), 1), t(2))
            .unwrap();
        assert!(b.event.seq > a.event.seq);
    }

    #[test]
    fn empty_object_roundtrip() {
        let mut s = ObjectStore::new();
        s.create_bucket("b");
        let applied = s
            .apply_put("b", "empty", Content::fresh(BlobId(1), 0), t(1))
            .unwrap();
        let stat = s.stat("b", "empty").unwrap();
        assert_eq!(stat.size, 0);
        assert_eq!(stat.etag, applied.etag);
    }
}
