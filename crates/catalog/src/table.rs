//! Table, column, and key definitions.

use fto_common::{DataType, IndexId, TableId};

/// A column definition within a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (lower-cased at creation).
    pub name: String,
    /// Declared type: the type of every non-NULL value the column holds
    /// (the loader refuses any other) and of every stream column that
    /// carries it.
    pub data_type: DataType,
}

impl ColumnDef {
    /// Creates a column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            data_type,
        }
    }
}

/// A key (uniqueness constraint) over a table.
///
/// In the paper, "key" always means a set of columns whose values determine
/// the whole record; the primary flag only influences which index the
/// storage layer clusters by default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyDef {
    /// Column ordinals (positions in the table's column list).
    pub columns: Vec<usize>,
    /// True for the table's primary key.
    pub primary: bool,
}

impl KeyDef {
    /// Creates a non-primary unique key.
    pub fn unique(columns: impl Into<Vec<usize>>) -> Self {
        KeyDef {
            columns: columns.into(),
            primary: false,
        }
    }

    /// Creates the primary key.
    pub fn primary(columns: impl Into<Vec<usize>>) -> Self {
        KeyDef {
            columns: columns.into(),
            primary: true,
        }
    }
}

/// A table definition.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// The table's id in the catalog.
    pub id: TableId,
    /// Table name (lower-cased).
    pub name: String,
    /// Columns, in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Keys (uniqueness constraints).
    pub keys: Vec<KeyDef>,
    /// Indexes defined over this table.
    pub indexes: Vec<IndexId>,
}

impl TableDef {
    /// Ordinal of the named column, if it exists.
    pub fn column_ordinal(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lname)
    }

    /// The primary key, if declared.
    pub fn primary_key(&self) -> Option<&KeyDef> {
        self.keys.iter().find(|k| k.primary)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Estimated width in bytes of one row, from declared column types.
    pub fn row_width(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.data_type {
                DataType::Int | DataType::Double => 8,
                DataType::Str => 24,
                DataType::Date => 4,
                DataType::Bool => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TableDef {
        TableDef {
            id: TableId(0),
            name: "orders".into(),
            columns: vec![
                ColumnDef::new("o_orderkey", DataType::Int),
                ColumnDef::new("o_custkey", DataType::Int),
                ColumnDef::new("o_comment", DataType::Str),
            ],
            keys: vec![KeyDef::primary([0]), KeyDef::unique([1, 0])],
            indexes: vec![],
        }
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = table();
        assert_eq!(t.column_ordinal("O_CUSTKEY"), Some(1));
        assert_eq!(t.column_ordinal("o_orderkey"), Some(0));
        assert_eq!(t.column_ordinal("nope"), None);
    }

    #[test]
    fn primary_key() {
        let t = table();
        assert_eq!(t.primary_key().unwrap().columns, vec![0]);
        assert!(!t.keys[1].primary);
    }

    #[test]
    fn row_width_from_types() {
        let t = table();
        assert_eq!(t.row_width(), 8 + 8 + 24);
        assert_eq!(t.arity(), 3);
    }
}
