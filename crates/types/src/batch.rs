//! Typed columnar batches for the vectorized executor.
//!
//! A [`ColumnBatch`] is the column-oriented counterpart of a `Vec<Row>`
//! batch: one typed vector per column (`Vec<i32>`, `Vec<i64>`, `Vec<f64>`,
//! offsets-into-bytes for VARCHAR) plus a validity bitmap marking non-NULL
//! slots. Values never carry per-row allocations while they flow through
//! the pipeline; `Row`s are materialized only at pipeline breakers and at
//! the client boundary ([`ColumnBatch::to_rows`]).
//!
//! Expression outputs whose type cannot be pinned statically (e.g. `ABS`
//! preserves its input type even though its declared type is DOUBLE) land
//! in the heterogeneous [`ColumnData::Values`] fallback, which keeps the
//! batch shape without constraining the value types. A typed builder that
//! observes a value of the wrong type degrades to that fallback instead of
//! failing, so columnar construction is always total.

use std::sync::Arc;

use crate::row::{Row, SchemaRef, Table};
use crate::value::{DataType, JoinKeyRef, Value};

/// Per-column storage: typed vectors for the SQL scalar types, an
/// offsets-into-bytes encoding for VARCHAR, and a boxed-value fallback for
/// heterogeneous expression outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i32>),
    BigInt(Vec<i64>),
    Double(Vec<f64>),
    Boolean(Vec<bool>),
    /// `offsets.len() == len + 1`; string `i` is `bytes[offsets[i]..offsets[i+1]]`.
    Varchar {
        offsets: Vec<u32>,
        bytes: Vec<u8>,
    },
    /// Heterogeneous fallback: one boxed [`Value`] per row (NULLs inline).
    Values(Vec<Value>),
}

/// One column of a batch: data plus a validity bitmap (bit set = non-NULL).
/// NULL slots hold an arbitrary default in the typed vectors; the bitmap is
/// authoritative. The `Values` fallback stores `Value::Null` inline and
/// keeps its bitmap consistent anyway so consumers can branch on either.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    pub data: ColumnData,
    /// One bit per row, little-endian within each `u64` word.
    pub validity: Vec<u64>,
}

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

fn bitmap_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// An all-ones validity bitmap for `len` rows (high bits of the last word
/// zeroed, matching what the builder produces for all-valid input).
fn full_bitmap(len: usize) -> Vec<u64> {
    let mut bits = vec![0u64; bitmap_words(len)];
    for i in 0..len {
        bit_set(&mut bits, i);
    }
    bits
}

impl ColumnVec {
    /// Whether row `i` is non-NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        bit_get(&self.validity, i)
    }

    /// The VARCHAR payload of row `i` without materializing a `Value`.
    /// `None` when the row is NULL or the column is not VARCHAR-encoded.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Varchar { offsets, bytes } => {
                let (a, b) = (offsets[i] as usize, offsets[i + 1] as usize);
                // SAFETY: the builder only ever appends whole `&str` slices
                // and records offsets at their ends, so every offset pair
                // brackets valid UTF-8. Re-validating here would put an
                // O(len) scan in the per-row boundary path.
                Some(unsafe { std::str::from_utf8_unchecked(&bytes[a..b]) })
            }
            ColumnData::Values(vals) => vals[i].as_str(),
            _ => None,
        }
    }

    /// Whether every one of the first `len` slots is non-NULL — the gate
    /// for bulk kernels that skip per-row validity checks.
    pub fn all_valid(&self, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let words = bitmap_words(len);
        for (w, bits) in self.validity.iter().enumerate().take(words) {
            let expect = if (w + 1) * 64 <= len {
                u64::MAX
            } else {
                (1u64 << (len % 64)) - 1
            };
            if bits & expect != expect {
                return false;
            }
        }
        true
    }

    /// Row `i`'s join key, read without boxing the value: always equal to
    /// `self.value_at(i).join_key_ref()`.
    pub fn join_key_ref(&self, i: usize) -> Option<JoinKeyRef<'_>> {
        if !self.is_valid(i) {
            return None;
        }
        Some(match &self.data {
            ColumnData::Int(v) => JoinKeyRef::num(v[i] as f64),
            ColumnData::BigInt(v) => JoinKeyRef::num(v[i] as f64),
            ColumnData::Double(v) => JoinKeyRef::num(v[i]),
            ColumnData::Boolean(v) => JoinKeyRef::Bool(v[i]),
            ColumnData::Varchar { .. } => {
                JoinKeyRef::Str(self.str_at(i).expect("valid varchar slot"))
            }
            ColumnData::Values(vals) => return vals[i].join_key_ref(),
        })
    }

    /// Materialize row `i` as a boxed [`Value`] (allocates for VARCHAR).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::BigInt(v) => Value::BigInt(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Boolean(v) => Value::Boolean(v[i]),
            ColumnData::Varchar { .. } => {
                Value::Varchar(Arc::from(self.str_at(i).expect("valid varchar slot")))
            }
            ColumnData::Values(vals) => vals[i].clone(),
        }
    }

    /// Boxed values for rows `sel[..take]` (or `0..take` without a
    /// selection), dispatching on the column type once instead of per
    /// value. `len` is the column's logical row count (for the all-valid
    /// fast paths). This is the row-materialization boundary's bulk form
    /// of [`ColumnVec::value_at`].
    pub fn values_selected(&self, len: usize, sel: Option<&[u32]>, take: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(take);
        match (&self.data, self.all_valid(len)) {
            (ColumnData::Int(v), true) => match sel {
                Some(s) => out.extend(s[..take].iter().map(|&i| Value::Int(v[i as usize]))),
                None => out.extend(v[..take].iter().map(|&x| Value::Int(x))),
            },
            (ColumnData::BigInt(v), true) => match sel {
                Some(s) => out.extend(s[..take].iter().map(|&i| Value::BigInt(v[i as usize]))),
                None => out.extend(v[..take].iter().map(|&x| Value::BigInt(x))),
            },
            (ColumnData::Double(v), true) => match sel {
                Some(s) => out.extend(s[..take].iter().map(|&i| Value::Double(v[i as usize]))),
                None => out.extend(v[..take].iter().map(|&x| Value::Double(x))),
            },
            (ColumnData::Boolean(v), true) => match sel {
                Some(s) => out.extend(s[..take].iter().map(|&i| Value::Boolean(v[i as usize]))),
                None => out.extend(v[..take].iter().map(|&x| Value::Boolean(x))),
            },
            (ColumnData::Varchar { offsets, bytes }, true) => {
                for k in 0..take {
                    let i = sel.map_or(k, |s| s[k] as usize);
                    let (a, b) = (offsets[i] as usize, offsets[i + 1] as usize);
                    // SAFETY: builders only ever append whole `&str`
                    // slices, so any offset pair bounds valid UTF-8.
                    let s = unsafe { std::str::from_utf8_unchecked(&bytes[a..b]) };
                    out.push(Value::str(s));
                }
            }
            _ => {
                for k in 0..take {
                    let i = sel.map_or(k, |s| s[k] as usize);
                    out.push(self.value_at(i));
                }
            }
        }
        out
    }

    /// Column footprint for the `bytes_materialized` accounting: the typed
    /// vector's logical payload plus the validity bitmap. The boxed
    /// fallback is priced like the rows it stands in for.
    pub fn approx_bytes(&self, len: usize) -> usize {
        let data = match &self.data {
            ColumnData::Int(_) => 4 * len,
            ColumnData::BigInt(_) | ColumnData::Double(_) => 8 * len,
            ColumnData::Boolean(_) => len,
            ColumnData::Varchar { offsets, bytes } => 4 * offsets.len() + bytes.len(),
            ColumnData::Values(vals) => vals.iter().map(Value::approx_bytes).sum(),
        };
        data + 8 * self.validity.len()
    }

    /// Rows `sel` of this column, in `sel` order, as a new column. `len`
    /// is the column's logical row count (for the all-valid bulk paths).
    pub fn gather(&self, sel: &[u32], len: usize) -> ColumnVec {
        // Fully valid columns gather with straight indexed copies — no
        // per-row bitmap reads, no builder dispatch.
        if self.all_valid(len) {
            let validity = full_bitmap(sel.len());
            match &self.data {
                ColumnData::Int(v) => {
                    return ColumnVec {
                        data: ColumnData::Int(sel.iter().map(|&i| v[i as usize]).collect()),
                        validity,
                    }
                }
                ColumnData::BigInt(v) => {
                    return ColumnVec {
                        data: ColumnData::BigInt(sel.iter().map(|&i| v[i as usize]).collect()),
                        validity,
                    }
                }
                ColumnData::Double(v) => {
                    return ColumnVec {
                        data: ColumnData::Double(sel.iter().map(|&i| v[i as usize]).collect()),
                        validity,
                    }
                }
                ColumnData::Boolean(v) => {
                    return ColumnVec {
                        data: ColumnData::Boolean(sel.iter().map(|&i| v[i as usize]).collect()),
                        validity,
                    }
                }
                ColumnData::Varchar { offsets, bytes } => {
                    let total: usize = sel
                        .iter()
                        .map(|&i| (offsets[i as usize + 1] - offsets[i as usize]) as usize)
                        .sum();
                    let mut no = Vec::with_capacity(sel.len() + 1);
                    no.push(0u32);
                    let mut nb = Vec::with_capacity(total);
                    for &i in sel {
                        let (a, b) = (
                            offsets[i as usize] as usize,
                            offsets[i as usize + 1] as usize,
                        );
                        nb.extend_from_slice(&bytes[a..b]);
                        no.push(nb.len() as u32);
                    }
                    return ColumnVec {
                        data: ColumnData::Varchar {
                            offsets: no,
                            bytes: nb,
                        },
                        validity,
                    };
                }
                ColumnData::Values(_) => {}
            }
        }
        let mut b = ColumnBuilder::with_capacity(self.builder_type(), sel.len());
        match &self.data {
            ColumnData::Int(v) => {
                for &i in sel {
                    let i = i as usize;
                    if self.is_valid(i) {
                        b.push_int(v[i]);
                    } else {
                        b.push_null();
                    }
                }
            }
            ColumnData::BigInt(v) => {
                for &i in sel {
                    let i = i as usize;
                    if self.is_valid(i) {
                        b.push_bigint(v[i]);
                    } else {
                        b.push_null();
                    }
                }
            }
            ColumnData::Double(v) => {
                for &i in sel {
                    let i = i as usize;
                    if self.is_valid(i) {
                        b.push_double(v[i]);
                    } else {
                        b.push_null();
                    }
                }
            }
            _ => {
                for &i in sel {
                    let i = i as usize;
                    match self.str_at(i) {
                        Some(s) => b.push_str(s),
                        None => b.push(&self.value_at(i)),
                    }
                }
            }
        }
        b.finish()
    }

    fn builder_type(&self) -> Option<DataType> {
        match &self.data {
            ColumnData::Int(_) => Some(DataType::Int),
            ColumnData::BigInt(_) => Some(DataType::BigInt),
            ColumnData::Double(_) => Some(DataType::Double),
            ColumnData::Boolean(_) => Some(DataType::Boolean),
            ColumnData::Varchar { .. } => Some(DataType::Varchar),
            ColumnData::Values(_) => None,
        }
    }
}

/// Incremental, type-degrading column constructor. Starts out typed (when
/// a [`DataType`] is known) and falls back to [`ColumnData::Values`] the
/// first time a value of another type arrives.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Vec<u64>,
    len: usize,
}

impl ColumnBuilder {
    pub fn new(dt: Option<DataType>) -> ColumnBuilder {
        Self::with_capacity(dt, 0)
    }

    pub fn with_capacity(dt: Option<DataType>, cap: usize) -> ColumnBuilder {
        let data = match dt {
            Some(DataType::Int) => ColumnData::Int(Vec::with_capacity(cap)),
            Some(DataType::BigInt) => ColumnData::BigInt(Vec::with_capacity(cap)),
            Some(DataType::Double) => ColumnData::Double(Vec::with_capacity(cap)),
            Some(DataType::Boolean) => ColumnData::Boolean(Vec::with_capacity(cap)),
            Some(DataType::Varchar) => ColumnData::Varchar {
                offsets: {
                    let mut o = Vec::with_capacity(cap + 1);
                    o.push(0);
                    o
                },
                // Payload size is unknowable up front; seed with a small
                // per-row guess so early appends skip the doubling churn.
                bytes: Vec::with_capacity(cap.saturating_mul(8)),
            },
            None => ColumnData::Values(Vec::with_capacity(cap)),
        };
        ColumnBuilder {
            data,
            validity: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn grow_validity(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.validity.len() {
            self.validity.push(0);
        }
        if valid {
            bit_set(&mut self.validity, self.len);
        }
        self.len += 1;
    }

    /// Append a NULL (typed vectors get a default slot; the fallback gets
    /// an inline `Value::Null`).
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::BigInt(v) => v.push(0),
            ColumnData::Double(v) => v.push(0.0),
            ColumnData::Boolean(v) => v.push(false),
            ColumnData::Varchar { offsets, bytes } => offsets.push(bytes.len() as u32),
            ColumnData::Values(vals) => vals.push(Value::Null),
        }
        self.grow_validity(false);
    }

    #[inline]
    pub fn push_int(&mut self, x: i32) {
        if let ColumnData::Int(v) = &mut self.data {
            v.push(x);
            self.grow_validity(true);
        } else {
            self.push(&Value::Int(x));
        }
    }

    #[inline]
    pub fn push_bigint(&mut self, x: i64) {
        if let ColumnData::BigInt(v) = &mut self.data {
            v.push(x);
            self.grow_validity(true);
        } else {
            self.push(&Value::BigInt(x));
        }
    }

    #[inline]
    pub fn push_double(&mut self, x: f64) {
        if let ColumnData::Double(v) = &mut self.data {
            v.push(x);
            self.grow_validity(true);
        } else {
            self.push(&Value::Double(x));
        }
    }

    #[inline]
    pub fn push_bool(&mut self, x: bool) {
        if let ColumnData::Boolean(v) = &mut self.data {
            v.push(x);
            self.grow_validity(true);
        } else {
            self.push(&Value::Boolean(x));
        }
    }

    /// Append a string without routing through a boxed [`Value`].
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        if let ColumnData::Varchar { offsets, bytes } = &mut self.data {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len() as u32);
            self.grow_validity(true);
        } else {
            self.push(&Value::str(s));
        }
    }

    /// Append any value; a type mismatch degrades the column to the boxed
    /// fallback (rebuilding what was accumulated so far) instead of erring.
    pub fn push(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return;
            }
            (ColumnData::Int(col), Value::Int(x)) => col.push(*x),
            (ColumnData::BigInt(col), Value::BigInt(x)) => col.push(*x),
            (ColumnData::Double(col), Value::Double(x)) => col.push(*x),
            (ColumnData::Boolean(col), Value::Boolean(x)) => col.push(*x),
            (ColumnData::Varchar { offsets, bytes }, Value::Varchar(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            (ColumnData::Values(vals), v) => vals.push(v.clone()),
            _ => {
                self.degrade();
                if let ColumnData::Values(vals) = &mut self.data {
                    vals.push(v.clone());
                } else {
                    unreachable!("degrade produces the boxed fallback");
                }
            }
        }
        self.grow_validity(true);
    }

    /// Rebuild the accumulated column as [`ColumnData::Values`].
    fn degrade(&mut self) {
        let snapshot = ColumnVec {
            data: std::mem::replace(&mut self.data, ColumnData::Values(Vec::new())),
            validity: self.validity.clone(),
        };
        let vals: Vec<Value> = (0..self.len).map(|i| snapshot.value_at(i)).collect();
        self.data = ColumnData::Values(vals);
    }

    pub fn finish(self) -> ColumnVec {
        ColumnVec {
            data: self.data,
            validity: self.validity,
        }
    }
}

/// A batch of rows in columnar layout. Columns are reference-counted so
/// projection and column-identity expressions are refcount bumps, never
/// copies.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Arc<ColumnVec>>,
}

impl ColumnBatch {
    pub fn new(len: usize, columns: Vec<Arc<ColumnVec>>) -> ColumnBatch {
        debug_assert!(columns
            .iter()
            .all(|c| c.validity.len() == bitmap_words(len)));
        ColumnBatch { len, columns }
    }

    /// A zero-column batch of `len` rows — the columnar seed row is
    /// `ColumnBatch::empty_rows(1)`.
    pub fn empty_rows(len: usize) -> ColumnBatch {
        ColumnBatch {
            len,
            columns: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> Option<&Arc<ColumnVec>> {
        self.columns.get(i)
    }

    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Materialize row `i` (the boundary operation the batch layout exists
    /// to defer).
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Materialize into a [`Table`] (client boundary). The schema is the
    /// caller's: batches do not carry names.
    pub fn to_table(&self, schema: SchemaRef) -> Table {
        let mut t = Table::new(schema);
        for i in 0..self.len {
            t.push_unchecked(self.row(i));
        }
        t
    }

    /// Columnar encoding of a materialized table, typed by its schema.
    pub fn from_table(table: &Table) -> ColumnBatch {
        let types: Vec<DataType> = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.data_type)
            .collect();
        Self::from_rows(&types, table.rows())
    }

    /// Columnar encoding of a row set with known column types.
    pub fn from_rows(types: &[DataType], rows: &[Row]) -> ColumnBatch {
        let mut builders: Vec<ColumnBuilder> = types
            .iter()
            .map(|dt| ColumnBuilder::with_capacity(Some(*dt), rows.len()))
            .collect();
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row.values()) {
                b.push(v);
            }
        }
        ColumnBatch {
            len: rows.len(),
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
        }
    }

    /// Rows `sel`, in order, as a new batch (the selection-vector apply).
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            len: sel.len(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(sel, self.len)))
                .collect(),
        }
    }

    /// The columns of `self` followed by those of `other`, row for row —
    /// a join's output layout. Both batches must hold the same rows.
    pub fn concat_columns(mut self, other: ColumnBatch) -> ColumnBatch {
        assert_eq!(self.len, other.len, "concatenated batches differ in rows");
        self.columns.extend(other.columns);
        self
    }

    /// The first `n` rows (LIMIT truncation at a batch boundary).
    pub fn head(&self, n: usize) -> ColumnBatch {
        if n >= self.len {
            return self.clone();
        }
        let sel: Vec<u32> = (0..n as u32).collect();
        self.gather(&sel)
    }

    /// Batch footprint in column-vector bytes (validity bitmaps included) —
    /// what `bytes_materialized` counts for columnar batches.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes(self.len)).sum()
    }

    /// Column-vector bytes of the rows `sel` selects — what a
    /// [`ColumnBatch::gather`] of `sel` would occupy, without building it.
    pub fn approx_bytes_selected(&self, sel: &[u32]) -> usize {
        let fixed = 8 * bitmap_words(sel.len());
        self.columns
            .iter()
            .map(|c| {
                fixed
                    + match &c.data {
                        ColumnData::Int(_) => 4 * sel.len(),
                        ColumnData::BigInt(_) | ColumnData::Double(_) => 8 * sel.len(),
                        ColumnData::Boolean(_) => sel.len(),
                        ColumnData::Varchar { offsets, .. } => {
                            4 * (sel.len() + 1)
                                + sel
                                    .iter()
                                    .map(|&i| {
                                        (offsets[i as usize + 1] - offsets[i as usize]) as usize
                                    })
                                    .sum::<usize>()
                        }
                        ColumnData::Values(vals) => sel
                            .iter()
                            .map(|&i| vals[i as usize].approx_bytes())
                            .sum::<usize>(),
                    }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::Ident;
    use crate::row::{Column, Schema};

    fn batch_of(types: &[DataType], rows: Vec<Vec<Value>>) -> ColumnBatch {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        ColumnBatch::from_rows(types, &rows)
    }

    #[test]
    fn round_trips_rows_including_nulls_and_empty_strings() {
        let b = batch_of(
            &[DataType::Int, DataType::Varchar, DataType::Double],
            vec![
                vec![Value::Int(1), Value::str(""), Value::Double(0.5)],
                vec![Value::Null, Value::str("abc"), Value::Null],
                vec![Value::Int(-7), Value::Null, Value::Double(-1.0)],
            ],
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.value_at(1, 0), Value::str(""));
        assert_eq!(b.value_at(0, 1), Value::Null);
        assert_eq!(b.value_at(1, 2), Value::Null);
        let rows = b.to_rows();
        assert_eq!(rows[2].values()[0], Value::Int(-7));
        assert_eq!(rows[1].values()[1], Value::str("abc"));
    }

    #[test]
    fn gather_applies_a_selection_vector() {
        let b = batch_of(
            &[DataType::Int, DataType::Varchar],
            vec![
                vec![Value::Int(10), Value::str("a")],
                vec![Value::Null, Value::str("")],
                vec![Value::Int(30), Value::Null],
            ],
        );
        let g = b.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value_at(0, 0), Value::Int(30));
        assert_eq!(g.value_at(1, 0), Value::Null);
        assert_eq!(g.value_at(0, 1), Value::Int(10));
        assert_eq!(g.value_at(1, 1), Value::str("a"));
    }

    #[test]
    fn builder_degrades_to_boxed_values_on_type_mismatch() {
        let mut b = ColumnBuilder::new(Some(DataType::Double));
        b.push(&Value::Double(1.5));
        b.push(&Value::Int(2)); // ABS(INT) stays INT despite a DOUBLE decl
        b.push(&Value::Null);
        let col = b.finish();
        assert!(matches!(col.data, ColumnData::Values(_)));
        assert_eq!(col.value_at(0), Value::Double(1.5));
        assert_eq!(col.value_at(1), Value::Int(2));
        assert_eq!(col.value_at(2), Value::Null);
    }

    #[test]
    fn approx_bytes_counts_columns_and_validity() {
        let b = batch_of(
            &[DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        // 2 * 4 data bytes + one u64 validity word.
        assert_eq!(b.approx_bytes(), 8 + 8);
    }

    #[test]
    fn to_table_matches_schema() {
        let schema = std::sync::Arc::new(Schema::new(vec![Column::new(
            Ident::new("n"),
            DataType::BigInt,
        )]));
        let b = batch_of(&[DataType::BigInt], vec![vec![Value::BigInt(42)]]);
        let t = b.to_table(schema);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.rows()[0].values()[0], Value::BigInt(42));
    }

    #[test]
    fn head_truncates_at_batch_boundaries() {
        let b = batch_of(
            &[DataType::Int],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        );
        assert_eq!(b.head(2).len(), 2);
        assert_eq!(b.head(9).len(), 3);
        assert_eq!(b.head(2).value_at(0, 1), Value::Int(2));
    }

    #[test]
    fn column_join_keys_match_value_join_keys() {
        let vals = [
            Value::Int(7),
            Value::BigInt(-3),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(1.7e308),
            Value::Boolean(true),
            Value::str("k"),
            Value::Null,
        ];
        // Each value in its own typed column, then all of them in one
        // heterogeneous column.
        let mut batches: Vec<ColumnBatch> = vals
            .iter()
            .map(|v| {
                let ty = v.data_type().unwrap_or(DataType::Int);
                batch_of(&[ty], vec![vec![v.clone()], vec![Value::Null]])
            })
            .collect();
        batches.push(batch_of(
            &[DataType::Int],
            vals.iter().map(|v| vec![v.clone()]).collect(),
        ));
        assert!(matches!(
            batches.last().unwrap().columns()[0].data,
            ColumnData::Values(_)
        ));
        for batch in &batches {
            let col = &batch.columns()[0];
            for i in 0..batch.len() {
                let v = col.value_at(i);
                assert_eq!(col.join_key_ref(i), v.join_key_ref(), "{v:?}");
            }
        }
    }
}
