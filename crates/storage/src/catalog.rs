//! The table catalog.
//!
//! A catalog maps names to shared, immutable tables (`Arc<Table>`).
//! Cloning a catalog copies the names and bumps reference counts, so two
//! catalogs — a published database version and the next one a writer is
//! building — share every table until one of them writes to it:
//! [`Catalog::table_mut`] copies a table exactly when another catalog
//! still holds it, and mutates in place otherwise. Which tables a write
//! changed is therefore readable off the two catalogs
//! ([`Catalog::changes_since`]): an entry the write touched no longer
//! points at the allocation the base catalog holds.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::Table;
use crate::wal::WalOp;

/// A named collection of tables.
///
/// Uses a `BTreeMap` so iteration order (and hence anything derived from it,
/// e.g. candidate-database enumeration order) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
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
        let table = Arc::new(Table::new(name.clone(), schema));
        Ok(Arc::make_mut(self.tables.entry(name).or_insert(table)))
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
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Fetch a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.shared(name).map(Arc::as_ref)
    }

    /// The shared allocation behind a table name: same allocation, same rows.
    pub fn shared(&self, name: &str) -> Result<&Arc<Table>, StorageError> {
        let key = name.to_ascii_lowercase();
        self.tables.get(&key).ok_or(StorageError::NoSuchTable(key))
    }

    /// Mutable access to a table by name. A table another catalog still
    /// shares is copied first (that catalog keeps the rows it had); a
    /// table only this catalog holds is handed out as is.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let key = name.to_ascii_lowercase();
        self.tables
            .get_mut(&key)
            .map(Arc::make_mut)
            .ok_or(StorageError::NoSuchTable(key))
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

    /// The changes that turn `base` into `self`: a [`WalOp::Put`] for every
    /// table `base` lacks or holds as a different allocation, then a
    /// [`WalOp::Drop`] for every name only `base` has (each in name order).
    /// Both catalogs are alive while compared, so two entries are the same
    /// allocation only if neither catalog wrote to the table since one
    /// was cloned from the other.
    pub fn changes_since<'a>(&'a self, base: &'a Catalog) -> Vec<WalOp<'a>> {
        let unchanged = |name: &String, table: &Arc<Table>| {
            base.tables
                .get(name)
                .is_some_and(|was| Arc::ptr_eq(was, table))
        };
        let puts = self
            .tables
            .iter()
            .filter(|(name, table)| !unchanged(name, table))
            .map(|(_, table)| WalOp::Put(table));
        let drops = base
            .tables
            .keys()
            .filter(|name| !self.tables.contains_key(*name))
            .map(|name| WalOp::Drop(name));
        puts.chain(drops).collect()
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(Arc::as_ref)
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

    /// `changes_since` as `+name` for a put and `-name` for a drop.
    fn changes(next: &Catalog, base: &Catalog) -> Vec<String> {
        next.changes_since(base)
            .iter()
            .map(|op| match op {
                WalOp::Put(t) => format!("+{}", t.name()),
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
