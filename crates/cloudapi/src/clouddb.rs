//! Simulated serverless key-value database (DynamoDB / Cosmos DB / Firestore
//! surface).
//!
//! AReplica keeps all cross-function shared state here: the data-part pool,
//! replication locks, changelog hints, and batching state. The store offers
//! items of typed attributes with atomic read-modify-write transactions —
//! the capability DynamoDB provides through conditional updates and
//! transactions, which the paper's Algorithm 1 and 2 rely on.
//!
//! Like [`crate::objstore`], this module is pure state; latency and cost
//! metering are applied by the world wrappers.

use std::collections::{BTreeMap, HashMap};

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (sequence numbers, sizes).
    Uint(u64),
    /// UTF-8 string.
    Str(String),
    /// Boolean flag.
    Bool(bool),
    /// Ordered list of values (the part pool).
    List(Vec<Value>),
}

impl Value {
    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned accessor.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// List accessor.
    pub fn as_list(&self) -> Option<&Vec<Value>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable list accessor.
    pub fn as_list_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }
}

/// An item: a sorted map of attribute name to value.
pub type Item = BTreeMap<String, Value>;

/// The per-region database: named tables of keyed items.
#[derive(Debug, Clone, Default)]
pub struct KvDb {
    tables: HashMap<String, HashMap<String, Item>>,
    /// Read operations applied (for metering assertions in tests).
    pub reads: u64,
    /// Write operations applied.
    pub writes: u64,
}

impl KvDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        KvDb::default()
    }

    /// Reads an item (cloned, like a network read).
    pub fn get(&mut self, table: &str, key: &str) -> Option<Item> {
        self.reads += 1;
        self.tables.get(table).and_then(|t| t.get(key)).cloned()
    }

    /// Unconditionally writes an item.
    pub fn put(&mut self, table: &str, key: &str, item: Item) {
        self.writes += 1;
        self.tables
            .entry(table.to_string())
            .or_default()
            .insert(key.to_string(), item);
    }

    /// Deletes an item; returns whether it existed.
    pub fn delete(&mut self, table: &str, key: &str) -> bool {
        self.writes += 1;
        self.tables
            .get_mut(table)
            .is_some_and(|t| t.remove(key).is_some())
    }

    /// Atomic read-modify-write on one item slot.
    ///
    /// `f` receives the current item (or `None`), may mutate/insert/remove it
    /// by editing the `Option`, and returns a result passed back to the
    /// caller. This is the primitive Algorithm 1's part claiming and
    /// Algorithm 2's lock acquisition are built on; the simulated apply is a
    /// single event, so it is serializable by construction. An existing row
    /// is handed to `f` and written back in place; only a new row allocates
    /// its key.
    pub fn transact<T>(
        &mut self,
        table: &str,
        key: &str,
        f: impl FnOnce(&mut Option<Item>) -> T,
    ) -> T {
        self.reads += 1;
        self.writes += 1;
        let t = match self.tables.get_mut(table) {
            Some(t) => t,
            None => self.tables.entry(table.to_string()).or_default(),
        };
        match t.get_mut(key) {
            Some(row) => {
                let mut slot = Some(std::mem::take(row));
                let result = f(&mut slot);
                match slot {
                    Some(item) => *row = item,
                    None => {
                        t.remove(key);
                    }
                }
                result
            }
            None => {
                let mut slot = None;
                let result = f(&mut slot);
                if let Some(item) = slot {
                    t.insert(key.to_string(), item);
                }
                result
            }
        }
    }

    /// Number of items in a table.
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, |t| t.len())
    }

    /// Background TTL expiry: removes and returns the item iff `guard`
    /// accepts it. TTL reaping is not a billed request, so the op counters
    /// are untouched.
    pub fn expire_if(
        &mut self,
        table: &str,
        key: &str,
        guard: impl FnOnce(&Item) -> bool,
    ) -> Option<Item> {
        let t = self.tables.get_mut(table)?;
        if guard(t.get(key)?) {
            t.remove(key)
        } else {
            None
        }
    }

    /// Read-only snapshot of a table, sorted by key (inspection/invariant
    /// checks; not metered as reads).
    pub fn table_items(&self, table: &str) -> Vec<(String, Item)> {
        #[expect(clippy::disallowed_methods, reason = "sorted by key right below")]
        let mut items: Vec<(String, Item)> = self
            .tables
            .get(table)
            .map(|t| t.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(k: &str, v: Value) -> Item {
        let mut i = Item::new();
        i.insert(k.to_string(), v);
        i
    }

    #[test]
    fn get_put_delete_roundtrip() {
        let mut db = KvDb::new();
        assert_eq!(db.get("t", "a"), None);
        db.put("t", "a", item("x", Value::Int(1)));
        assert_eq!(db.get("t", "a").unwrap()["x"], Value::Int(1));
        assert!(db.delete("t", "a"));
        assert!(!db.delete("t", "a"));
        assert_eq!(db.get("t", "a"), None);
    }

    #[test]
    fn tables_are_isolated() {
        let mut db = KvDb::new();
        db.put("t1", "k", item("v", Value::Bool(true)));
        assert_eq!(db.get("t2", "k"), None);
        assert_eq!(db.table_len("t1"), 1);
        assert_eq!(db.table_len("t2"), 0);
    }

    #[test]
    fn transact_creates_and_mutates() {
        let mut db = KvDb::new();
        // Create through the transaction.
        let created = db.transact("t", "ctr", |slot| {
            assert!(slot.is_none());
            *slot = Some(item("n", Value::Uint(1)));
            true
        });
        assert!(created);
        // Mutate in place.
        let n = db.transact("t", "ctr", |slot| {
            let it = slot.as_mut().unwrap();
            let n = it["n"].as_uint().unwrap() + 1;
            it.insert("n".into(), Value::Uint(n));
            n
        });
        assert_eq!(n, 2);
        assert_eq!(db.get("t", "ctr").unwrap()["n"], Value::Uint(2));
    }

    #[test]
    fn transact_can_remove() {
        let mut db = KvDb::new();
        db.put("t", "k", item("v", Value::Int(1)));
        db.transact("t", "k", |slot| {
            *slot = None;
        });
        assert_eq!(db.get("t", "k"), None);
    }

    #[test]
    fn transact_updates_in_place_deletes_and_leaves_a_missing_row_missing() {
        let mut db = KvDb::new();
        db.put("t", "a", item("v", Value::Int(1)));
        db.put("t", "b", item("v", Value::Int(2)));
        // An update in place keeps the row and leaves its neighbour alone.
        let was = db.transact("t", "a", |slot| {
            let it = slot.as_mut().unwrap();
            it.insert("w".into(), Value::Bool(true));
            it["v"].clone()
        });
        assert_eq!(was, Value::Int(1));
        let mut updated = item("v", Value::Int(1));
        updated.insert("w".into(), Value::Bool(true));
        let b = item("v", Value::Int(2));
        assert_eq!(
            db.table_items("t"),
            vec![("a".to_string(), updated), ("b".to_string(), b)]
        );
        // A delete of an existing row.
        db.transact("t", "b", |slot| assert!(slot.take().is_some()));
        assert_eq!(db.get("t", "b"), None);
        assert_eq!(db.table_len("t"), 1);
        // A missing row, in a table that exists and in one that does not,
        // that the transaction does not insert stays missing.
        for table in ["t", "u"] {
            assert!(!db.transact(table, "c", |slot| slot.is_some()));
            assert_eq!(db.get(table, "c"), None);
        }
        assert_eq!((db.table_len("t"), db.table_len("u")), (1, 0));
        assert_eq!(db.table_items("u"), vec![]);
        // Two puts and four transactions write; the transactions and three
        // gets read.
        assert_eq!((db.reads, db.writes), (7, 6));
    }

    #[test]
    fn transact_pop_models_part_claiming() {
        let mut db = KvDb::new();
        db.put(
            "pool",
            "task1",
            item("parts", Value::List((0..4).map(Value::Uint).collect())),
        );
        let mut claimed = Vec::new();
        loop {
            let part = db.transact("pool", "task1", |slot| {
                slot.as_mut()
                    .and_then(|it| it.get_mut("parts"))
                    .and_then(Value::as_list_mut)
                    .and_then(Vec::pop)
            });
            match part {
                Some(Value::Uint(p)) => claimed.push(p),
                Some(_) => panic!("wrong type"),
                None => break,
            }
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn op_counters_track_usage() {
        let mut db = KvDb::new();
        db.put("t", "a", Item::new());
        db.get("t", "a");
        db.transact("t", "a", |_| ());
        assert_eq!(db.writes, 2);
        assert_eq!(db.reads, 2);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(-1).as_int(), Some(-1));
        assert_eq!(Value::Uint(7).as_uint(), Some(7));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_str(), None);
        let mut l = Value::List(vec![Value::Int(1)]);
        l.as_list_mut().unwrap().push(Value::Int(2));
        assert_eq!(l.as_list().unwrap().len(), 2);
    }
}
