//! The `jit-db`-backed snapshot store: re-serves survive restarts.
//!
//! Every [`SessionSnapshot`] is stored as **one row** holding its
//! canonical [`crate::wire`] encoding — the same bytes a `Returning`
//! request or a response carries — written through the SQL engine's
//! programmatic row API (one atomic delete+insert batch per save) and
//! read back with one prepared `SELECT … WHERE user_id = ?`, compiled
//! once at open. Floats are raw IEEE-754 bits inside that encoding, so
//! NaN payloads and `-0.0` survive bit-exactly.
//!
//! Two durability tiers share the code path:
//!
//! * [`DbSnapshotStore::open`] — the backing [`Database`] is the
//!   medium; keep its `Arc` alive across a restart.
//! * [`DbSnapshotStore::open_durable`] — a
//!   [`DurableDatabase`] is the medium; every
//!   save commits one write-ahead-log record, so snapshots survive a
//!   process **kill**, not just a drop. A save is crash-atomic: after
//!   recovery the store holds either the old snapshot or the new one,
//!   never a torn mix.
//!
//! Layout:
//!
//! | table | row per | columns |
//! |---|---|---|
//! | `jit_snapshots` | snapshot | `user_id TEXT, schema_digest TEXT, snapshot TEXT` |
//!
//! `snapshot` is the lowercase hex of the wire bytes: the engine has no
//! BLOB type, and TEXT hex needs no engine change. A save is one
//! `DeleteEq` plus a one-row insert, so what it logs is proportional to
//! the one snapshot saved, whatever else the store holds; the in-memory
//! delete still walks the table, one row per stored user. Each row
//! records the feature schema's content digest, and loads under a
//! different schema fail with [`StoreError::SchemaMismatch`] rather than
//! risk a wrong replay. A database whose `jit_snapshots` table has any
//! other columns (an older layout) is refused at open with
//! [`StoreError::LayoutMismatch`]; it is not migrated.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::store::{SnapshotStore, StoreError};
use crate::wire;
use jit_core::SessionSnapshot;
use jit_data::FeatureSchema;
use jit_db::{ColumnType, Database, DurableDatabase, Prepared, Value, WalOp};
use jit_math::digest::Digest;
use std::fmt;
use std::sync::Arc;

const TABLE: &str = "jit_snapshots";

const COLUMNS: [(&str, ColumnType); 3] = [
    ("user_id", ColumnType::Text),
    ("schema_digest", ColumnType::Text),
    ("snapshot", ColumnType::Text),
];

/// The read-path statements, compiled once at open. All are
/// single-table selects in the shape the engine's direct-scan plan
/// covers, so executing them never touches the SQL front end.
struct Stmts {
    row: Prepared,
    exists: Prepared,
    user_ids: Prepared,
}

impl Stmts {
    fn compile(db: &Database) -> Result<Stmts, StoreError> {
        Ok(Stmts {
            row: db.prepare(
                "SELECT schema_digest, snapshot FROM jit_snapshots WHERE user_id = ?",
            )?,
            exists: db
                .prepare("SELECT user_id FROM jit_snapshots WHERE user_id = ?")?,
            user_ids: db
                .prepare("SELECT user_id FROM jit_snapshots ORDER BY user_id")?,
        })
    }
}

/// The SQL-engine-backed [`SnapshotStore`].
pub struct DbSnapshotStore {
    db: Arc<Database>,
    /// When set, writes commit through the write-ahead log instead of
    /// mutating `db` directly (`db` is then the WAL's in-memory state).
    wal: Option<Arc<DurableDatabase>>,
    schema: FeatureSchema,
    schema_digest: Digest,
    stmts: Stmts,
    /// Serializes the multi-statement save/load/remove sequences: the
    /// database locks per statement, and without a WAL a save's delete
    /// and insert are two statements, so without this a concurrent
    /// `load` could find the user absent between them. Per-store, so
    /// the sharded dispatcher's one-store-per-shard layout keeps
    /// cross-shard parallelism.
    op_lock: parking_lot::Mutex<()>,
}

impl DbSnapshotStore {
    /// Opens a store over `db`, creating the snapshot table when absent
    /// (re-opening an already-populated database is the restart path).
    ///
    /// # Errors
    /// [`StoreError::LayoutMismatch`] when `jit_snapshots` exists with
    /// other columns.
    pub fn open(db: Arc<Database>, schema: &FeatureSchema) -> Result<Self, StoreError> {
        if !has_snapshot_table(&db)? {
            db.create_table(TABLE, owned_columns())?;
        }
        Self::with_backing(db, None, schema)
    }

    /// A store over a fresh private database.
    pub fn in_new_database(schema: &FeatureSchema) -> Result<Self, StoreError> {
        Self::open(Arc::new(Database::new()), schema)
    }

    /// Opens a store whose writes commit through `wal`'s write-ahead
    /// log: each save/remove is one crash-atomic logged batch, and a
    /// store reopened over the recovered log re-serves bit-identically.
    /// A missing snapshot table is created (and logged) on open.
    ///
    /// # Errors
    /// [`StoreError::LayoutMismatch`] when `jit_snapshots` exists with
    /// other columns.
    pub fn open_durable(
        wal: Arc<DurableDatabase>,
        schema: &FeatureSchema,
    ) -> Result<Self, StoreError> {
        let db = Arc::clone(wal.database());
        if !has_snapshot_table(&db)? {
            wal.commit(&[WalOp::CreateTable {
                name: TABLE.to_string(),
                columns: owned_columns(),
            }])?;
        }
        Self::with_backing(db, Some(wal), schema)
    }

    fn with_backing(
        db: Arc<Database>,
        wal: Option<Arc<DurableDatabase>>,
        schema: &FeatureSchema,
    ) -> Result<Self, StoreError> {
        // Every read and the replace-on-save delete filter on `user_id`.
        // Indexes are in-memory acceleration, not logged state: they are
        // (re)declared on every open, including reopens over recovered
        // WALs, and never change results.
        db.create_index(TABLE, "user_id")?;
        let stmts = Stmts::compile(&db)?;
        Ok(DbSnapshotStore {
            db,
            wal,
            schema: schema.clone(),
            schema_digest: schema.content_digest(),
            stmts,
            op_lock: parking_lot::Mutex::new(()),
        })
    }

    /// The backing database (the durable medium — keep a clone of the
    /// `Arc` to survive a service restart).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The write-ahead log behind this store, when opened durable.
    pub fn wal(&self) -> Option<&Arc<DurableDatabase>> {
        self.wal.as_ref()
    }

    /// Runs a prepared read with the user id bound.
    fn query(
        &self,
        stmt: &Prepared,
        user_id: &str,
    ) -> Result<jit_db::ResultSet, StoreError> {
        Ok(self.db.execute_prepared(stmt, &[Value::from(user_id)])?)
    }

    /// Replaces one user's row with `row`, or deletes it when `row` is
    /// `None`. Durable stores commit the delete and the insert as one
    /// WAL record, so a crash recovers either the old snapshot or the
    /// new one; the ops are validated before any byte is logged.
    /// Without a WAL they are two statements, kept whole by `op_lock`.
    fn replace_row(
        &self,
        id: Value,
        row: Option<Vec<Value>>,
    ) -> Result<(), StoreError> {
        let Some(wal) = &self.wal else {
            self.db.delete_eq(TABLE, "user_id", &id)?;
            if let Some(row) = row {
                self.db.insert_rows(TABLE, vec![row])?;
            }
            return Ok(());
        };
        let mut ops = vec![WalOp::DeleteEq {
            table: TABLE.to_string(),
            column: "user_id".to_string(),
            value: id,
        }];
        ops.extend(row.map(|row| WalOp::InsertRows {
            table: TABLE.to_string(),
            rows: vec![row],
        }));
        wal.commit(&ops)?;
        Ok(())
    }

    /// Checks a decoded snapshot's vectors against the store's schema:
    /// a well-formed encoding of the wrong width must not be served.
    fn check_dims(&self, snapshot: &SessionSnapshot) -> Result<(), &'static str> {
        let dim = self.schema.dim();
        if snapshot.request.profile.len() != dim {
            return Err("profile dimension");
        }
        if snapshot.temporal_inputs().iter().any(|x| x.len() != dim) {
            return Err("temporal-input dimension");
        }
        if snapshot.candidates().iter().any(|c| c.profile.len() != dim) {
            return Err("candidate profile dimension");
        }
        Ok(())
    }
}

fn owned_columns() -> Vec<(String, ColumnType)> {
    COLUMNS.iter().map(|(c, ty)| (c.to_string(), *ty)).collect()
}

fn render_layout(columns: &[(String, ColumnType)]) -> String {
    let columns: Vec<String> =
        columns.iter().map(|(name, ty)| format!("{name} {ty}")).collect();
    format!("{TABLE}({})", columns.join(", "))
}

/// `true` when `db` already holds the snapshot table in this store's
/// layout, `false` when it has none.
///
/// # Errors
/// [`StoreError::LayoutMismatch`] when the table exists with other
/// columns.
fn has_snapshot_table(db: &Database) -> Result<bool, StoreError> {
    let Some(found) = db.table_schema(TABLE) else {
        return Ok(false);
    };
    let expected = owned_columns();
    if found.columns == expected {
        return Ok(true);
    }
    Err(StoreError::LayoutMismatch {
        expected: render_layout(&expected),
        found: render_layout(&found.columns),
    })
}

fn hex_digit(nibble: u8) -> char {
    char::from(if nibble < 10 { b'0' + nibble } else { b'a' + nibble - 10 })
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(hex_digit(b >> 4));
        out.push(hex_digit(b & 0xf));
    }
    out
}

fn hex_value(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        _ => None,
    }
}

/// Parses [`to_hex`] output; `None` for odd length or any character
/// outside `[0-9a-f]`.
fn from_hex(text: &str) -> Option<Vec<u8>> {
    let pairs = text.as_bytes().chunks_exact(2);
    if !pairs.remainder().is_empty() {
        return None;
    }
    pairs
        .map(|pair| match pair {
            [hi, lo] => Some(hex_value(*hi)? << 4 | hex_value(*lo)?),
            _ => None,
        })
        .collect()
}

impl fmt::Debug for DbSnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbSnapshotStore")
            .field("schema_digest", &self.schema_digest)
            .finish_non_exhaustive()
    }
}

fn corrupt(user_id: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { user_id: user_id.to_string(), detail: detail.into() }
}

impl SnapshotStore for DbSnapshotStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        let _guard = self.op_lock.lock();
        let id = Value::from(user_id);
        let row = vec![
            id.clone(),
            Value::from(self.schema_digest.to_hex()),
            Value::from(to_hex(&wire::snapshot_to_bytes(snapshot))),
        ];
        self.replace_row(id, Some(row))
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        let _guard = self.op_lock.lock();
        let rs = self.query(&self.stmts.row, user_id)?;
        let Some(row) = rs.rows.first() else {
            return Ok(None);
        };
        let [Value::Text(digest_hex), Value::Text(snapshot_hex)] = row.as_slice()
        else {
            return Err(corrupt(user_id, "snapshot row is not two text values"));
        };
        let found = Digest::from_hex(digest_hex)
            .ok_or_else(|| corrupt(user_id, "unparseable schema digest"))?;
        if found != self.schema_digest {
            return Err(StoreError::SchemaMismatch {
                expected: self.schema_digest,
                found,
            });
        }
        let bytes = from_hex(snapshot_hex)
            .ok_or_else(|| corrupt(user_id, "snapshot is not lowercase hex"))?;
        let snapshot = wire::snapshot_from_bytes(&bytes, &self.schema)
            .map_err(|e| corrupt(user_id, e.to_string()))?;
        self.check_dims(&snapshot).map_err(|what| corrupt(user_id, what))?;
        Ok(Some(snapshot))
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        let _guard = self.op_lock.lock();
        let existed = !self.query(&self.stmts.exists, user_id)?.is_empty();
        if existed {
            self.replace_row(Value::from(user_id), None)?;
        }
        Ok(existed)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        let _guard = self.op_lock.lock();
        let rs = self.db.execute_prepared(&self.stmts.user_ids, &[])?;
        rs.rows
            .iter()
            .map(|r| match r.first() {
                Some(Value::Text(s)) => Ok(s.clone()),
                other => Err(StoreError::Corrupt {
                    user_id: other.map(Value::to_string).unwrap_or_default(),
                    detail: "non-text user id".to_string(),
                }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{from_hex, to_hex};

    #[test]
    fn hex_round_trips_and_refuses_non_canonical_text() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = to_hex(&bytes);
        assert_eq!(text.len(), 512);
        assert!(text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
        assert_eq!(from_hex(&text), Some(bytes));
        assert_eq!(from_hex(""), Some(Vec::new()));
        for bad in ["0", "abc", "0g", "AB", "+1", "0 "] {
            assert_eq!(from_hex(bad), None, "{bad:?}");
        }
    }
}
