//! [`Database`]: the catalog plus physical storage for every table.

use crate::heap::{HeapLoader, HeapTable};
use crate::index::OrderedIndex;
use fto_catalog::{Catalog, TableStats};
use fto_common::{FtoError, IndexId, Result, Row, TableId};
use std::collections::HashMap;

/// A complete in-memory database: schema, heaps, and indexes.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    heaps: HashMap<TableId, HeapTable>,
    indexes: HashMap<IndexId, OrderedIndex>,
}

impl Database {
    /// Wraps a catalog with empty storage.
    pub fn new(catalog: Catalog) -> Database {
        Database {
            catalog,
            heaps: HashMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the schema (for creating tables/indexes before
    /// loading).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Loads rows into a table: [`Database::loader`], one push per row,
    /// [`Database::finish_load`].
    pub fn load_table(&mut self, table: TableId, rows: Vec<Row>) -> Result<()> {
        let mut loader = self.loader(table)?;
        rows.into_iter().try_for_each(|row| loader.push(row))?;
        self.finish_load(loader)
    }

    /// A loader for `table`'s heap, building every column as the type the
    /// catalog declares for it. It holds no borrow of the database, so a
    /// generator can fill several tables in one interleaved pass without
    /// ever holding a table's worth of rows.
    pub fn loader(&self, table: TableId) -> Result<HeapLoader> {
        let def = self.catalog.table(table)?;
        let types: Vec<_> = def.columns.iter().map(|c| c.data_type).collect();
        Ok(HeapLoader::new(table, &types, def.row_width()))
    }

    /// Installs a loaded heap (replacing the table's previous contents):
    /// clusters it if the table has a clustered index, builds every
    /// declared index, and refreshes statistics.
    pub fn finish_load(&mut self, loader: HeapLoader) -> Result<()> {
        let table = loader.table();
        let def = self.catalog.table(table)?;
        let mut heap = loader.finish()?;
        if !heap
            .types()
            .iter()
            .eq(def.columns.iter().map(|c| &c.data_type))
        {
            return Err(FtoError::Catalog(format!(
                "loader of column types {:?} does not match table '{}'",
                heap.types(),
                def.name
            )));
        }
        if let Some(cix) = self.catalog.indexes_for(table).find(|ix| ix.clustered) {
            heap.cluster_by(&cix.key)?;
        }

        for ixdef in self.catalog.indexes_for(table) {
            let (ordinals, dirs): (Vec<usize>, Vec<_>) = ixdef.key.iter().copied().unzip();
            let ix = OrderedIndex::build(&heap, &ordinals, &dirs)?;
            self.indexes.insert(ixdef.id, ix);
        }

        // Refresh statistics (the engine's RUNSTATS).
        let stats = TableStats::from_chunks(heap.chunks(), heap.types(), heap.rows_per_page())?;
        self.catalog.set_stats(table, stats);

        self.heaps.insert(table, heap);
        Ok(())
    }

    /// The heap for a table (must be loaded).
    pub fn heap(&self, table: TableId) -> Result<&HeapTable> {
        self.heaps
            .get(&table)
            .ok_or_else(|| FtoError::Exec(format!("table {table} has no data loaded")))
    }

    /// The physical structure of an index (must be built).
    pub fn index(&self, index: IndexId) -> Result<&OrderedIndex> {
        self.indexes
            .get(&index)
            .ok_or_else(|| FtoError::Exec(format!("index {index} not built")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_catalog::{ColumnDef, KeyDef};
    use fto_common::{DataType, Direction, Value};

    fn make_db() -> (Database, TableId) {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                vec![KeyDef::primary([0])],
            )
            .unwrap();
        (Database::new(cat), t)
    }

    fn row2(a: i64, b: i64) -> Row {
        vec![Value::Int(a), Value::Int(b)].into_boxed_slice()
    }

    #[test]
    fn load_clusters_by_primary_key() {
        let (mut db, t) = make_db();
        db.load_table(t, vec![row2(3, 30), row2(1, 10), row2(2, 20)])
            .unwrap();
        let heap = db.heap(t).unwrap();
        let keys: Vec<i64> = heap
            .to_rows()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn load_builds_indexes_and_stats() {
        let (mut db, t) = make_db();
        let ix2 = db
            .catalog_mut()
            .create_index("t_v", t, vec![(1, Direction::Asc)], false, false)
            .unwrap();
        db.load_table(t, vec![row2(1, 30), row2(2, 10)]).unwrap();
        let ix = db.index(ix2).unwrap();
        let vs: Vec<i64> = (0..ix.len())
            .map(|pos| ix.keys()[0].value(pos).as_int().unwrap())
            .collect();
        assert_eq!(vs, vec![10, 30]);
        assert_eq!(ix.rids(), &[1, 0]);
        let stats = db.catalog().stats(t);
        assert_eq!(stats.row_count, 2);
        assert_eq!(stats.columns[1].ndv, 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (mut db, t) = make_db();
        let bad: Row = vec![Value::Int(1)].into_boxed_slice();
        assert!(db.load_table(t, vec![bad]).is_err());
    }

    #[test]
    fn foreign_loader_rejected() {
        let (mut db, t) = make_db();
        // Another arity, and the right arity with another type.
        for types in [&[DataType::Int; 3][..], &[DataType::Int, DataType::Double]] {
            let loader = HeapLoader::new(t, types, 24);
            assert!(db.finish_load(loader).is_err());
            assert!(db.heap(t).is_err());
        }
    }

    #[test]
    fn ill_typed_load_is_refused_and_installs_nothing() {
        let (mut db, t) = make_db();
        db.load_table(t, vec![row2(1, 1)]).unwrap();
        let bad: Row = vec![Value::Int(2), Value::Double(2.0)].into_boxed_slice();
        let err = db.load_table(t, vec![row2(3, 3), bad]).unwrap_err();
        assert!(matches!(&err, FtoError::Catalog(m) if m.contains("column 1 row 1")));
        // The previous contents, statistics included, are untouched.
        assert_eq!(db.heap(t).unwrap().to_rows(), vec![row2(1, 1)]);
        assert_eq!(db.catalog().stats(t).row_count, 1);
    }

    #[test]
    fn unloaded_table_errors() {
        let (db, t) = make_db();
        assert!(db.heap(t).is_err());
        assert!(db.index(IndexId(99)).is_err());
    }

    #[test]
    fn reload_replaces_data() {
        let (mut db, t) = make_db();
        db.load_table(t, vec![row2(1, 1)]).unwrap();
        db.load_table(t, vec![row2(5, 5), row2(4, 4)]).unwrap();
        assert_eq!(db.heap(t).unwrap().row_count(), 2);
        assert_eq!(db.catalog().stats(t).row_count, 2);
    }
}
