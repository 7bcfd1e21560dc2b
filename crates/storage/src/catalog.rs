//! The table catalog.
//!
//! A catalog maps names to shared, immutable tables (`Arc<Table>`).
//! Cloning a catalog copies the names and bumps reference counts, so two
//! catalogs — a published database version and the next one a writer is
//! building — share every table until one of them writes to it:
//! [`Catalog::table_mut`] and [`Catalog::apply`] copy a table exactly when
//! another catalog still holds it, and mutate in place otherwise. Tables
//! share their rows ([`SharedRow`](crate::SharedRow)), so that copy is
//! one pointer per row, and a write allocates only the rows it names.
//! Which tables a write changed is therefore readable off the two catalogs
//! ([`Catalog::changes_since`]): an entry the write touched no longer
//! points at the allocation the base catalog holds.
//!
//! A table changed only by [`Catalog::apply`] also records how: the
//! [`Edit`]s applied since it was copied from the allocation it shared,
//! its *origin*. When that origin is the allocation the base catalog
//! holds, the change is those edits, a few rows, not the whole table.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{Edit, Table};
use crate::wal::WalOp;

/// A named collection of tables.
///
/// Uses a `BTreeMap` so iteration order (and hence anything derived from it,
/// e.g. candidate-database enumeration order) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Entry>,
}

/// One table of a catalog and, while every change to it since its last
/// copy was an edit, those edits.
#[derive(Debug, Clone)]
struct Entry {
    table: Arc<Table>,
    journal: Option<Arc<Journal>>,
}

/// The edits that turn the table `origin` names into the entry's table.
///
/// `origin` is weak, so a journal never keeps an old version's rows
/// alive; but while it exists the allocation is not reused, and it is
/// never mutated in place either: `Arc::make_mut` moves a table that a
/// weak pointer still names to a new allocation before writing to it. So
/// an entry of another catalog at `origin`'s address holds exactly the
/// rows the edits start from.
#[derive(Debug, Clone, Default)]
struct Journal {
    origin: Weak<Table>,
    edits: Vec<Edit>,
}

impl Entry {
    fn new(table: Table) -> Entry {
        Entry {
            table: Arc::new(table),
            journal: None,
        }
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a new empty table with the given schema.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<&mut Table, StorageError> {
        let name = name.into().to_ascii_lowercase();
        if self.tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        let entry = Entry::new(Table::new(name.clone(), schema));
        Ok(Arc::make_mut(
            &mut self.tables.entry(name).or_insert(entry).table,
        ))
    }

    /// Register an already-populated table (replacing any previous one with
    /// the same name is an error).
    pub fn add_table(&mut self, table: Table) -> Result<(), StorageError> {
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        self.replace_table(table);
        Ok(())
    }

    /// Replace a table unconditionally (used when swapping in candidate
    /// databases during naive clean-answer evaluation).
    pub fn replace_table(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Entry::new(table));
    }

    /// Fetch a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.shared(name).map(Arc::as_ref)
    }

    /// The shared allocation behind a table name: same allocation, same rows.
    pub fn shared(&self, name: &str) -> Result<&Arc<Table>, StorageError> {
        let key = name.to_ascii_lowercase();
        self.tables
            .get(&key)
            .map(|e| &e.table)
            .ok_or(StorageError::NoSuchTable(key))
    }

    fn entry_mut(&mut self, name: &str) -> Result<&mut Entry, StorageError> {
        let key = name.to_ascii_lowercase();
        self.tables
            .get_mut(&key)
            .ok_or(StorageError::NoSuchTable(key))
    }

    /// Mutable access to a table by name. A table another catalog still
    /// shares is copied first (that catalog keeps the rows it had); a
    /// table only this catalog holds is handed out as is. What the caller
    /// does with it is not recorded, so the table's change is its whole
    /// image from now on.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let entry = self.entry_mut(name)?;
        entry.journal = None;
        Ok(Arc::make_mut(&mut entry.table))
    }

    /// Perform `edit` on a table ([`Table::apply`], copying the table first
    /// when another catalog still shares it) and record it, so that
    /// [`Catalog::changes_since`] can name the change as its edits. Returns
    /// the edit as applied, its rows conformed to the schema. On `Err` the
    /// edit was checked and refused before anything was copied or
    /// recorded: the entry is as it was.
    pub fn apply(&mut self, name: &str, mut edit: Edit) -> Result<&Edit, StorageError> {
        let entry = self.entry_mut(name)?;
        entry.table.check(&mut edit)?;
        // The first edit since this catalog was cloned starts the edits at
        // the allocation the other catalog keeps. Once no catalog holds
        // the origin, none can be diffed against it: keep only this edit,
        // under no origin.
        let shared = Arc::strong_count(&entry.table) > 1;
        let live = entry
            .journal
            .as_ref()
            .is_some_and(|j| j.origin.strong_count() > 0);
        if shared || !live {
            let origin = if shared {
                Arc::downgrade(&entry.table)
            } else {
                Weak::new()
            };
            entry.journal = Some(Arc::new(Journal {
                origin,
                edits: Vec::new(),
            }));
        }
        Arc::make_mut(&mut entry.table).splice(&edit);
        let journal = Arc::make_mut(entry.journal.get_or_insert_with(Default::default));
        journal.edits.push(edit);
        Ok(&journal.edits[journal.edits.len() - 1])
    }

    /// True when a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Remove a table. Catalogs that share it keep it.
    pub fn drop_table(&mut self, name: &str) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        self.tables
            .remove(&key)
            .map(drop)
            .ok_or(StorageError::NoSuchTable(key))
    }

    /// The changes that turn `base` into `self`, in name order: for every
    /// table `base` lacks or holds as a different allocation, a
    /// [`WalOp::Edit`] with the edits [`Catalog::apply`] recorded when they
    /// start at the allocation `base` holds, else a [`WalOp::Put`] of the
    /// whole table; then a [`WalOp::Drop`] for every name only `base` has.
    /// Both catalogs are alive while compared, so two entries are the same
    /// allocation only if neither catalog wrote to the table since one
    /// was cloned from the other.
    pub fn changes_since<'a>(&'a self, base: &'a Catalog) -> Vec<WalOp<'a>> {
        let mut ops = Vec::new();
        for (name, entry) in &self.tables {
            let was = base.tables.get(name).map(|e| &e.table);
            if was.is_some_and(|was| Arc::ptr_eq(was, &entry.table)) {
                continue;
            }
            ops.push(match (&entry.journal, was) {
                (Some(j), Some(was)) if std::ptr::eq(j.origin.as_ptr(), Arc::as_ptr(was)) => {
                    WalOp::Edit(name, &j.edits)
                }
                _ => WalOp::Put(&entry.table),
            });
        }
        let drops = base
            .tables
            .keys()
            .filter(|name| !self.tables.contains_key(*name))
            .map(|name| WalOp::Drop(name));
        ops.extend(drops);
        ops
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|e| e.table.as_ref())
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total rows across all tables (reported by the data generator).
    pub fn total_rows(&self) -> usize {
        self.tables().map(Table::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn create_lookup_drop() {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("a", DataType::Int)]).unwrap();
        cat.create_table("T", schema.clone()).unwrap();
        assert!(cat.contains("t"));
        assert!(cat.table("T").is_ok());
        assert!(matches!(
            cat.create_table("t", schema),
            Err(StorageError::TableExists(_))
        ));
        cat.drop_table("T").unwrap();
        assert!(!cat.contains("t"));
        assert!(matches!(cat.table("t"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn names_sorted() {
        let mut cat = Catalog::new();
        for n in ["zeta", "alpha", "mid"] {
            cat.create_table(n, Schema::default()).unwrap();
        }
        assert_eq!(cat.table_names(), vec!["alpha", "mid", "zeta"]);
    }

    fn int_table(name: &str, values: &[i64]) -> Table {
        let mut t = Table::new(name, Schema::from_pairs([("a", DataType::Int)]).unwrap());
        t.insert_all(values.iter().map(|v| vec![(*v).into()]))
            .unwrap();
        t
    }

    /// `changes_since` as `+name` for a put, `~name` for an edit frame
    /// and `-name` for a drop.
    fn changes(next: &Catalog, base: &Catalog) -> Vec<String> {
        next.changes_since(base)
            .iter()
            .map(|op| match op {
                WalOp::Put(t) => format!("+{}", t.name()),
                WalOp::Edit(name, _) => format!("~{name}"),
                WalOp::Drop(name) => format!("-{name}"),
            })
            .collect()
    }

    fn address(cat: &Catalog, name: &str) -> *const Table {
        cat.table(name).unwrap()
    }

    #[test]
    fn a_clone_shares_every_table_and_a_write_unshares_only_its_own() {
        let mut base = Catalog::new();
        base.add_table(int_table("a", &[1])).unwrap();
        base.add_table(int_table("b", &[2])).unwrap();
        let mut next = base.clone();
        assert_eq!(changes(&next, &base), Vec::<String>::new());
        assert_eq!(address(&next, "a"), address(&base, "a"));

        next.table_mut("A").unwrap().insert(vec![3.into()]).unwrap();
        assert_eq!(changes(&next, &base), ["+a"]);
        assert_eq!(address(&next, "b"), address(&base, "b"));
        // The catalog it was cloned from still reads the rows it had.
        assert_eq!(base.table("a").unwrap().rows(), [vec![1.into()]]);
        assert_eq!(next.table("a").unwrap().len(), 2);
    }

    #[test]
    fn every_kind_of_write_shows_in_the_change_set() {
        let mut base = Catalog::new();
        for name in ["keep", "swap", "gone"] {
            base.add_table(int_table(name, &[1])).unwrap();
        }
        let mut next = base.clone();
        next.create_table("made", Schema::default()).unwrap();
        next.add_table(int_table("added", &[])).unwrap();
        next.replace_table(int_table("swap", &[1]));
        next.drop_table("gone").unwrap();
        assert_eq!(
            changes(&next, &base),
            ["+added", "+made", "+swap", "-gone"],
            "equal rows under a new allocation still count as a write"
        );
        // Dropping a shared table copied nothing and took nothing away.
        assert_eq!(base.table("gone").unwrap().len(), 1);
        assert_eq!(changes(&base, &next), ["+gone", "+swap", "-added", "-made"]);
    }

    /// An edit appending `v` to `name`.
    fn append(cat: &Catalog, name: &str, v: i64) -> Edit {
        let len = cat.table(name).unwrap().len();
        Edit {
            inserted: vec![(len, vec![v.into()].into())],
            ..Edit::default()
        }
    }

    #[test]
    fn an_edited_table_changes_by_its_edits_since_the_version_it_shared() {
        let mut base = Catalog::new();
        base.add_table(int_table("a", &[1])).unwrap();
        base.add_table(int_table("b", &[2])).unwrap();
        let mut next = base.clone();
        next.apply("a", append(&next, "a", 3)).unwrap();
        let replace = Edit {
            changed: vec![(0, Some(vec![9.into()].into()))],
            ..Edit::default()
        };
        next.apply("A", replace).unwrap();
        assert_eq!(changes(&next, &base), ["~a"]);
        // Replaying the edits on the rows the base kept gives next's.
        let ops = next.changes_since(&base);
        let [WalOp::Edit("a", edits)] = &ops[..] else {
            panic!("{ops:?}")
        };
        let mut replayed = base.table("a").unwrap().clone();
        for edit in edits.iter() {
            replayed.apply(&mut edit.clone()).unwrap();
        }
        assert_eq!(replayed.rows(), next.table("a").unwrap().rows());
        assert_eq!(base.table("a").unwrap().rows(), [vec![1.into()]]);

        // A later version's edits start at `next`, not at `base`.
        let mut later = next.clone();
        later.apply("a", append(&later, "a", 4)).unwrap();
        assert_eq!(changes(&later, &next), ["~a"]);
        assert_eq!(changes(&later, &base), ["+a"]);
        // A change through `table_mut` is not recorded: the image it is.
        later
            .table_mut("a")
            .unwrap()
            .insert(vec![5.into()])
            .unwrap();
        assert_eq!(changes(&later, &next), ["+a"]);
    }

    #[test]
    fn a_table_edits_start_at_is_never_written_in_place() {
        // Once `next` copied `a`, the base is its only owner. Writing to it
        // moves it to a new allocation, so `next`'s edits, which start at
        // the rows it had, no longer match it.
        let mut base = Catalog::new();
        base.add_table(int_table("a", &[1])).unwrap();
        let mut next = base.clone();
        next.apply("a", append(&next, "a", 2)).unwrap();
        base.apply("a", append(&base, "a", 7)).unwrap();
        assert_eq!(changes(&next, &base), ["+a"]);
        let mut base = Catalog::new();
        base.add_table(int_table("a", &[1])).unwrap();
        let mut next = base.clone();
        next.apply("a", append(&next, "a", 2)).unwrap();
        base.table_mut("a").unwrap().insert(vec![7.into()]).unwrap();
        assert_eq!(changes(&next, &base), ["+a"]);
    }

    #[test]
    fn a_catalog_with_no_other_owner_mutates_in_place() {
        let mut cat = Catalog::new();
        cat.add_table(int_table("t", &[1])).unwrap();
        let before = address(&cat, "t");
        cat.table_mut("t").unwrap().insert(vec![2.into()]).unwrap();
        assert_eq!(address(&cat, "t"), before);

        // Once a clone is dropped the survivor is the only owner again.
        let clone = cat.clone();
        drop(clone);
        cat.table_mut("t").unwrap().insert(vec![3.into()]).unwrap();
        assert_eq!(address(&cat, "t"), before);
        assert_eq!(cat.table("t").unwrap().len(), 3);
    }

    #[test]
    fn replace_table_overwrites() {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs([("a", DataType::Int)]).unwrap();
        cat.create_table("t", schema.clone()).unwrap();
        let mut t2 = Table::new("t", schema);
        t2.insert(vec![1.into()]).unwrap();
        cat.replace_table(t2);
        assert_eq!(cat.table("t").unwrap().len(), 1);
    }
}
