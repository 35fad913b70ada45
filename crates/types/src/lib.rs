//! # fedwf-types
//!
//! Foundation crate of the *fedwf* workspace: the dynamically typed value
//! model, schemas, rows and tables shared by the relational storage engine,
//! the SQL layer, the workflow engine and the application systems, plus the
//! workspace-wide error type.
//!
//! The type lattice intentionally mirrors the small set of SQL types the
//! paper's examples use (`INT`, `BIGINT`, `DOUBLE`, `VARCHAR`, `BOOLEAN`),
//! including the explicit `INT -> BIGINT` widening cast that the *simple
//! case* mapping of Section 3 demonstrates with `BIGINT(GN.Number)`.

pub mod batch;
pub mod cast;
pub mod check;
pub mod error;
pub mod ident;
pub mod params;
pub mod rng;
pub mod row;
pub mod sync;
pub mod txn;
pub mod value;
pub mod wire;

pub use batch::{ColumnBatch, ColumnBuilder, ColumnData, ColumnVec};
pub use cast::{cast_value, implicit_cast, CastError};
pub use error::{ErrorLayer, FedError, FedResult, ResultExt};
pub use ident::{Ident, QualifiedName};
pub use params::Params;
pub use row::{Column, Row, Schema, SchemaRef, Table};
pub use txn::{CommitMode, TxnId, TXN_EPOCH_ZERO, TXN_INFINITY};
pub use value::{DataType, JoinKeyRef, Value, ValueKey};
pub use wire::{crc32, WireReader, WireWriter};
