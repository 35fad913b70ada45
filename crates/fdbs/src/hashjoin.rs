//! The equi-join every executor composes through: a build side kept in the
//! layout it arrived in, indexed by a head/next chain.
//!
//! A build side that crosses the storage or SQL/MED boundary as a
//! [`ColumnBatch`] stays one. Its keys are read straight out of the column
//! vectors as borrowed [`JoinKeyRef`]s, so indexing allocates nothing per row,
//! and only the build rows a probe actually matches are ever boxed (row
//! probes, [`HashJoin::push_rows`]) or gathered (columnar probes,
//! [`HashJoin::probe_cols`]). Independent-UDTF results arrive as rows and
//! stay rows.
//!
//! Key semantics are [`JoinKeyRef`]'s with the naive path's errors
//! ([`checked`]): NULL joins nothing, every numeric compares as f64
//! (`-0.0` equals `0.0`), and NaN is a hard "cannot compare" error —
//! raised by the build (in build order) before any probe row, then by
//! probe rows in order.

use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use fedwf_sim::{CostModel, Meter};
use fedwf_types::{ColumnBatch, FedError, FedResult, JoinKeyRef, Row, Value};

use crate::exec::charge_join;
use crate::expr::BoundExpr;
use crate::vexpr::VCol;

/// A hash-join build side in the layout it arrived in.
pub(crate) enum BuildSide {
    Rows(Vec<Row>),
    Cols(ColumnBatch),
}

impl BuildSide {
    pub(crate) fn len(&self) -> usize {
        match self {
            BuildSide::Rows(rows) => rows.len(),
            BuildSide::Cols(batch) => batch.len(),
        }
    }

    /// The build side as boxed rows (a cross product's right side).
    pub(crate) fn into_rows(self) -> Vec<Row> {
        match self {
            BuildSide::Rows(rows) => rows,
            BuildSide::Cols(batch) => batch.to_rows(),
        }
    }

    fn key_at(&self, row: usize, col: usize) -> FedResult<Option<JoinKeyRef<'_>>> {
        checked(match self {
            BuildSide::Rows(rows) => rows[row].values()[col].join_key_ref(),
            BuildSide::Cols(batch) => batch.columns()[col].join_key_ref(row),
        })
    }

    /// `left` extended by build row `i` — the only place a columnar build
    /// row is ever boxed.
    fn concat_row(&self, left: &Row, i: usize) -> Row {
        match self {
            BuildSide::Rows(rows) => left.concat(&rows[i]),
            BuildSide::Cols(batch) => {
                let mut values = Vec::with_capacity(left.len() + batch.width());
                values.extend_from_slice(left.values());
                values.extend(batch.columns().iter().map(|c| c.value_at(i)));
                Row::new(values)
            }
        }
    }
}

/// The "cannot compare" error a NaN join key raises on every path.
pub(crate) fn nan_key_error() -> FedError {
    FedError::execution(format!(
        "cannot compare {} in a join key",
        Value::Double(f64::NAN)
    ))
}

/// A join key with the naive path's error semantics: NULL joins nothing
/// (`None`), NaN is a hard comparison error (the naive path's `sql_cmp`
/// raises "cannot compare" for it on every pairing).
pub(crate) fn checked(key: Option<JoinKeyRef<'_>>) -> FedResult<Option<JoinKeyRef<'_>>> {
    match key {
        Some(JoinKeyRef::NaN) => Err(nan_key_error()),
        key => Ok(key),
    }
}

/// End of a chain.
const NONE: u32 = u32::MAX;

/// Head/next chained hash index over a build side: `heads[b]` is the
/// first build row whose key hash lands in bucket `b`, `next[row]` the
/// following one. Chains run in build order; a bucket may hold several
/// keys, so every chain step re-checks key equality. Keys are table data,
/// so they are hashed with the standard library's randomly keyed hasher:
/// no input can be crafted to pile onto one chain.
struct JoinIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// Bucket count minus one (the count is a power of two).
    mask: u64,
    state: RandomState,
}

impl JoinIndex {
    fn build(build: &BuildSide, cols: &[usize]) -> FedResult<JoinIndex> {
        let n = build.len();
        // Row ids and bucket ids are u32, NONE excluded from both.
        assert!(
            n < 1 << 30,
            "hash-join build side of {n} rows exceeds u32 ids"
        );
        let buckets = (2 * n).next_power_of_two().max(16);
        let mask = buckets as u64 - 1;
        let state = RandomState::new();
        // First pass, in build order (so the first NaN key fails the build
        // exactly where it always did): park each row's bucket in `next`,
        // NONE for a NULL key.
        let mut next = vec![NONE; n];
        'rows: for (i, slot) in next.iter_mut().enumerate() {
            let mut h = state.build_hasher();
            for &c in cols {
                match build.key_at(i, c)? {
                    Some(k) => k.hash(&mut h),
                    None => continue 'rows,
                }
            }
            *slot = (h.finish() & mask) as u32;
        }
        // Second pass, in reverse: swap each row's bucket for its successor
        // by prepending the row to that bucket's chain, which leaves every
        // chain in build order.
        let mut heads = vec![NONE; buckets];
        for (i, link) in next.iter_mut().enumerate().rev() {
            if *link != NONE {
                let bucket = *link as usize;
                *link = heads[bucket];
                heads[bucket] = i as u32;
            }
        }
        Ok(JoinIndex {
            heads,
            next,
            mask,
            state,
        })
    }

    /// Build rows whose key equals `key`, in build order.
    fn matches<'s>(
        &'s self,
        build: &'s BuildSide,
        cols: &'s [usize],
        key: &'s [JoinKeyRef<'s>],
    ) -> impl Iterator<Item = usize> + 's {
        let mut h = self.state.build_hasher();
        for k in key {
            k.hash(&mut h);
        }
        let mut at = self.heads[(h.finish() & self.mask) as usize];
        std::iter::from_fn(move || {
            while at != NONE {
                let i = at as usize;
                at = self.next[i];
                let equal = cols
                    .iter()
                    .zip(key)
                    .all(|(&c, k)| matches!(build.key_at(i, c), Ok(Some(b)) if b == *k));
                if equal {
                    return Some(i);
                }
            }
            None
        })
    }
}

/// The hash-join operator: build side, its key columns (in the build's
/// possibly pruned layout), the probe expressions, and the lazily built
/// index. Output order matches `cross` + filter exactly: probe-major,
/// build rows in build order.
pub(crate) struct HashJoin<'p> {
    pub(crate) build: BuildSide,
    build_cols: Vec<usize>,
    pub(crate) probe: &'p [BoundExpr],
    /// Built on the first non-empty probe batch, mirroring the naive
    /// path's empty-input short-circuit: build keys are never evaluated
    /// when no probe row arrives.
    index: Option<JoinIndex>,
    out_count: usize,
}

impl<'p> HashJoin<'p> {
    pub(crate) fn new(build: BuildSide, build_cols: Vec<usize>, probe: &'p [BoundExpr]) -> Self {
        HashJoin {
            build,
            build_cols,
            probe,
            index: None,
            out_count: 0,
        }
    }

    /// Whether a probe batch of `rows` rows can match nothing, so no key
    /// on either side may be evaluated.
    pub(crate) fn short_circuits(&self, rows: usize) -> bool {
        rows == 0 || self.build.len() == 0
    }

    fn ensure_index(&mut self) -> FedResult<()> {
        if self.index.is_none() {
            self.index = Some(JoinIndex::build(&self.build, &self.build_cols)?);
        }
        Ok(())
    }

    /// Probe with boxed rows. Probe keys evaluate lazily left to right, so
    /// a NULL component skips the rest of the row's key (and its errors).
    pub(crate) fn push_rows(&mut self, batch: Vec<Row>, params: &[Value]) -> FedResult<Vec<Row>> {
        if self.short_circuits(batch.len()) {
            return Ok(Vec::new());
        }
        self.ensure_index()?;
        let index = self.index.as_ref().expect("index built above");
        let mut out = Vec::new();
        'rows: for left in &batch {
            let mut vals = Vec::with_capacity(self.probe.len());
            for p in self.probe {
                let v = p.eval(left.values(), params)?;
                if checked(v.join_key_ref())?.is_none() {
                    continue 'rows;
                }
                vals.push(v);
            }
            let key: Vec<JoinKeyRef> = vals.iter().filter_map(Value::join_key_ref).collect();
            for bi in index.matches(&self.build, &self.build_cols, &key) {
                out.push(self.build.concat_row(left, bi));
            }
        }
        self.out_count += out.len();
        Ok(out)
    }

    /// Probe with the evaluated key columns of a columnar batch of `len`
    /// rows: the matching `(probe row, build row)` pairs, probe-major.
    pub(crate) fn probe_cols(
        &mut self,
        pcols: &[VCol],
        len: usize,
    ) -> FedResult<(Vec<u32>, Vec<u32>)> {
        self.ensure_index()?;
        let index = self.index.as_ref().expect("index built above");
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let mut key = Vec::with_capacity(pcols.len());
        'rows: for i in 0..len {
            key.clear();
            for pc in pcols {
                let k = checked(match pc {
                    VCol::Const(v) => v.join_key_ref(),
                    VCol::Col(c) => c.join_key_ref(i),
                })?;
                match k {
                    Some(k) => key.push(k),
                    None => continue 'rows,
                }
            }
            for bi in index.matches(&self.build, &self.build_cols, &key) {
                left.push(i as u32);
                right.push(bi as u32);
            }
        }
        self.out_count += left.len();
        Ok((left, right))
    }

    /// Book the composition charge: one record over build + output rows.
    pub(crate) fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        charge_join(meter, cost, self.build.len() + self.out_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::DataType;

    fn rows(keys: &[Value]) -> Vec<Row> {
        keys.iter()
            .map(|k| Row::new(vec![k.clone(), Value::Int(0)]))
            .collect()
    }

    fn build_keys(keys: &[Value]) -> [BuildSide; 2] {
        let r = rows(keys);
        let cols = ColumnBatch::from_rows(&[DataType::Double, DataType::Int], &r);
        [BuildSide::Rows(r), BuildSide::Cols(cols)]
    }

    #[test]
    fn chains_keep_build_order_and_join_key_equality() {
        let keys = [
            Value::Double(1.0),
            Value::Null,
            Value::Double(-0.0),
            Value::Double(1.0),
            Value::Double(0.0),
        ];
        for build in build_keys(&keys) {
            let index = JoinIndex::build(&build, &[0]).unwrap();
            let one = [Value::Int(1).join_key_ref().unwrap()];
            assert_eq!(
                index.matches(&build, &[0], &one).collect::<Vec<_>>(),
                [0, 3]
            );
            let zero = [Value::BigInt(0).join_key_ref().unwrap()];
            assert_eq!(
                index.matches(&build, &[0], &zero).collect::<Vec<_>>(),
                [2, 4]
            );
            let none = [Value::Double(2.5).join_key_ref().unwrap()];
            assert_eq!(index.matches(&build, &[0], &none).count(), 0);
        }
    }

    #[test]
    fn nan_build_key_is_the_naive_paths_error() {
        for build in build_keys(&[Value::Double(1.0), Value::Double(f64::NAN)]) {
            let err = JoinIndex::build(&build, &[0]).err().expect("NaN key");
            assert_eq!(err.to_string(), nan_key_error().to_string());
        }
    }

    #[test]
    fn keys_sharing_a_bucket_are_told_apart() {
        // 300 distinct keys in 1 024 buckets: dozens of buckets hold more
        // than one key, and each key still finds exactly its own rows.
        let keys: Vec<Value> = (0..600)
            .map(|i| Value::str(format!("k{}", i % 300)))
            .collect();
        let r: Vec<Row> = keys.iter().map(|k| Row::new(vec![k.clone()])).collect();
        let build = BuildSide::Cols(ColumnBatch::from_rows(&[DataType::Varchar], &r));
        let index = JoinIndex::build(&build, &[0]).unwrap();
        for k in 0..300 {
            let name = format!("k{k}");
            let key = [JoinKeyRef::Str(&name)];
            let got: Vec<usize> = index.matches(&build, &[0], &key).collect();
            assert_eq!(got, [k, k + 300], "{name}");
        }
    }
}
