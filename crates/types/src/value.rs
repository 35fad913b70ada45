//! The dynamically typed SQL value model.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// SQL data types supported across the federation.
///
/// The set matches what the paper's examples exercise: the application
/// systems hand back `INT` stock numbers, `VARCHAR` component names and
/// decisions, and the *simple case* of Section 3 converts `INT` to `BIGINT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer (`INT`).
    Int,
    /// 64-bit signed integer (`BIGINT`).
    BigInt,
    /// 64-bit IEEE float (`DOUBLE`).
    Double,
    /// Variable length character string (`VARCHAR`).
    Varchar,
    /// Boolean (`BOOLEAN`).
    Boolean,
}

impl DataType {
    /// SQL spelling of the type, as it appears in `CREATE FUNCTION`/`CREATE
    /// TABLE` statements.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::BigInt => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Varchar => "VARCHAR",
            DataType::Boolean => "BOOLEAN",
        }
    }

    /// Parse a SQL type name (case-insensitive). Accepts common synonyms.
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" => Some(DataType::Int),
            "BIGINT" | "LONG" => Some(DataType::BigInt),
            "DOUBLE" | "FLOAT" | "REAL" => Some(DataType::Double),
            "VARCHAR" | "CHAR" | "STRING" | "TEXT" => Some(DataType::Varchar),
            "BOOLEAN" | "BOOL" => Some(DataType::Boolean),
            _ => None,
        }
    }

    /// Whether the type is numeric (participates in arithmetic and in the
    /// numeric widening lattice `INT < BIGINT < DOUBLE`).
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::BigInt | DataType::Double)
    }

    /// Position in the numeric widening lattice; `None` for non-numerics.
    pub fn numeric_rank(&self) -> Option<u8> {
        match self {
            DataType::Int => Some(0),
            DataType::BigInt => Some(1),
            DataType::Double => Some(2),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single SQL value. `Null` is typeless, as in SQL.
///
/// String payloads are `Arc<str>`, so cloning a value — and therefore
/// sharing a row between a stored table, a hash-join build side, and a
/// result set — bumps a refcount instead of copying bytes. The same shared
/// payload backs [`ValueKey::Str`], so hashing a string column for a
/// join/DISTINCT/GROUP BY key allocates nothing per row.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i32),
    BigInt(i64),
    Double(f64),
    Varchar(Arc<str>),
    Boolean(bool),
}

impl Value {
    /// The concrete type of the value, `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::BigInt(_) => Some(DataType::BigInt),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Boolean(_) => Some(DataType::Boolean),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Varchar(s.into())
    }

    /// Approximate in-memory footprint, used by the executor's
    /// `bytes_materialized` accounting: the enum slot plus the length of
    /// any string payload (counted once per logical row that buffers it,
    /// even though the bytes themselves are shared).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Varchar(s) => s.len(),
                _ => 0,
            }
    }

    /// Numeric view as f64, if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::BigInt(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view as i64, if the value is an integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::BigInt(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(&**s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued-logic equality: `Null = anything` is unknown
    /// (`None`); numeric comparison is performed across numeric types.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison with numeric widening; `None` if either side is null
    /// or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Varchar(a), Varchar(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total ordering used by index structures: NULL sorts first, then
    /// booleans, then numerics, then strings. Unlike [`Value::sql_cmp`]
    /// this never fails, which is what a B-tree needs.
    pub fn index_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Boolean(_) => 1,
                Value::Int(_) | Value::BigInt(_) | Value::Double(_) => 2,
                Value::Varchar(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
            (Value::Varchar(a), Value::Varchar(b)) => a.cmp(b),
            (a, b) if class(a) == 2 && class(b) == 2 => {
                // Compare integers exactly when possible; fall back to f64.
                // NaN sorts after every other numeric so the order stays
                // total (a tie would violate antisymmetry vs. real numbers).
                match (a.as_i64(), b.as_i64()) {
                    (Some(x), Some(y)) => x.cmp(&y),
                    _ => {
                        let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                        match (x.is_nan(), y.is_nan()) {
                            (true, true) => Ordering::Equal,
                            (true, false) => Ordering::Greater,
                            (false, true) => Ordering::Less,
                            (false, false) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                        }
                    }
                }
            }
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// Hashable grouping key, equality-consistent with [`Value::index_cmp`]:
    /// two values compare `Equal` under `index_cmp` iff their group keys are
    /// equal. NULLs group together, `Int(1)`/`BigInt(1)`/`Double(1.0)` land
    /// in one group, and NaN groups with NaN (matching the totalized
    /// `index_cmp`).
    ///
    /// Caveat: `index_cmp` itself is lossy (hence non-transitive) for
    /// integers beyond 2^53 compared against `Double`s; the key uses exact
    /// integer identity there, which is the self-consistent reading.
    pub fn group_key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Boolean(b) => ValueKey::Bool(*b),
            Value::Int(v) => ValueKey::Int(*v as i64),
            Value::BigInt(v) => ValueKey::Int(*v),
            Value::Double(d) => {
                if d.is_nan() {
                    ValueKey::NaN
                } else if d.fract() == 0.0
                    && *d >= -9_223_372_036_854_775_808.0
                    && *d < 9_223_372_036_854_775_808.0
                {
                    // Integral doubles in i64 range compare Equal to the
                    // matching integer under index_cmp, so share its key.
                    ValueKey::Int(*d as i64)
                } else {
                    ValueKey::Float(canonical_f64_bits(*d))
                }
            }
            Value::Varchar(s) => ValueKey::Str(s.clone()),
        }
    }

    /// Borrowed equi-join key, equality-consistent with [`Value::sql_eq`]:
    /// `a.sql_eq(b) == Some(true)` iff both keys are `Some` and equal.
    /// `None` for NULL (which joins nothing under 3VL). This is the one
    /// definition of the join-key rule; see [`JoinKeyRef`].
    pub fn join_key_ref(&self) -> Option<JoinKeyRef<'_>> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(b) => JoinKeyRef::Bool(*b),
            Value::Int(v) => JoinKeyRef::num(*v as f64),
            Value::BigInt(v) => JoinKeyRef::num(*v as f64),
            Value::Double(d) => JoinKeyRef::num(*d),
            Value::Varchar(s) => JoinKeyRef::Str(s),
        })
    }

    /// Owned [`Value::join_key_ref`], for hash tables that outlive the
    /// value: NaN maps to `Some(ValueKey::NaN)`, and a string key shares
    /// the value's payload.
    pub fn join_key(&self) -> Option<ValueKey> {
        Some(match self.join_key_ref()? {
            JoinKeyRef::Bool(b) => ValueKey::Bool(b),
            JoinKeyRef::Num(bits) => ValueKey::Float(bits),
            JoinKeyRef::NaN => ValueKey::NaN,
            JoinKeyRef::Str(_) => match self {
                Value::Varchar(s) => ValueKey::Str(s.clone()),
                _ => unreachable!("only VARCHAR values have string join keys"),
            },
        })
    }

    /// Render the value the way a result-table printer would.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(v) => v.to_string(),
            Value::BigInt(v) => v.to_string(),
            Value::Double(v) => format!("{v}"),
            Value::Varchar(s) => s.to_string(),
            Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

/// `-0.0` and `+0.0` compare equal everywhere, so they must share bits.
fn canonical_f64_bits(d: f64) -> u64 {
    if d == 0.0 {
        0.0f64.to_bits()
    } else {
        d.to_bits()
    }
}

/// A borrowed equi-join key ([`Value::join_key_ref`],
/// [`ColumnVec::join_key_ref`](crate::ColumnVec::join_key_ref)): hashing a
/// join side read straight out of a column batch allocates nothing.
///
/// All numerics collapse to canonical f64 bits because `sql_cmp` compares
/// numerics as f64 (so `BigInt(1) = Double(1.0)` joins, and `-0.0` joins
/// `0.0`). NaN gets a key of its own so hashing stays consistent with
/// comparison; callers that need `sql_cmp`'s "incomparable" error for it
/// must check for [`JoinKeyRef::NaN`] themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKeyRef<'a> {
    Bool(bool),
    /// Canonical f64 bits of a non-NaN numeric.
    Num(u64),
    NaN,
    Str(&'a str),
}

impl JoinKeyRef<'_> {
    /// The key of a numeric, compared as f64.
    pub fn num(x: f64) -> Self {
        if x.is_nan() {
            JoinKeyRef::NaN
        } else {
            JoinKeyRef::Num(canonical_f64_bits(x))
        }
    }
}

/// A hashable stand-in for a [`Value`], produced by [`Value::group_key`]
/// (index_cmp-consistent) or [`Value::join_key`] (sql_eq-consistent).
/// Used as the key type of grouping, DISTINCT, and hash-join tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    Null,
    Bool(bool),
    /// Exact integer identity (group keys for INT/BIGINT and integral
    /// DOUBLEs).
    Int(i64),
    /// Canonicalized f64 bits (join keys for all numerics; group keys for
    /// non-integral DOUBLEs).
    Float(u64),
    /// NaN, kept apart from every `Float` so hashing stays consistent with
    /// comparison.
    NaN,
    /// Shares the value's `Arc<str>` payload — building a key from a string
    /// column bumps a refcount instead of copying the bytes.
    Str(Arc<str>),
}

impl PartialEq for Value {
    /// Structural equality (used by tests and containers), *not* SQL
    /// equality: `Null == Null` here, and `Int(1) != BigInt(1)`.
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (BigInt(a), BigInt(b)) => a == b,
            (Double(a), Double(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Varchar(a), Varchar(b)) => a == b,
            (Boolean(a), Boolean(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::BigInt(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_parse_round_trip() {
        for dt in [
            DataType::Int,
            DataType::BigInt,
            DataType::Double,
            DataType::Varchar,
            DataType::Boolean,
        ] {
            assert_eq!(DataType::parse(dt.sql_name()), Some(dt));
        }
        assert_eq!(DataType::parse("integer"), Some(DataType::Int));
        assert_eq!(DataType::parse("LONG"), Some(DataType::BigInt));
        assert_eq!(DataType::parse("no-such-type"), None);
    }

    #[test]
    fn numeric_rank_orders_widening_lattice() {
        assert!(DataType::Int.numeric_rank() < DataType::BigInt.numeric_rank());
        assert!(DataType::BigInt.numeric_rank() < DataType::Double.numeric_rank());
        assert_eq!(DataType::Varchar.numeric_rank(), None);
    }

    #[test]
    fn sql_eq_crosses_numeric_types() {
        assert_eq!(Value::Int(7).sql_eq(&Value::BigInt(7)), Some(true));
        assert_eq!(Value::Int(7).sql_eq(&Value::Double(7.0)), Some(true));
        assert_eq!(Value::Int(7).sql_eq(&Value::Int(8)), Some(false));
    }

    #[test]
    fn sql_eq_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert_eq!(Value::Boolean(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn index_cmp_is_total_and_null_first() {
        assert_eq!(Value::Null.index_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(2).index_cmp(&Value::BigInt(2)), Ordering::Equal);
        assert_eq!(
            Value::str("a").index_cmp(&Value::Int(999)),
            Ordering::Greater
        );
    }

    #[test]
    fn structural_eq_distinguishes_types() {
        assert_ne!(Value::Int(1), Value::BigInt(1));
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }

    #[test]
    fn index_cmp_nan_sorts_last_among_numerics() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.index_cmp(&Value::Double(1e300)), Ordering::Greater);
        assert_eq!(Value::Double(1e300).index_cmp(&nan), Ordering::Less);
        assert_eq!(nan.index_cmp(&nan), Ordering::Equal);
        // Still below strings: the class ladder wins over the NaN rule.
        assert_eq!(nan.index_cmp(&Value::str("a")), Ordering::Less);
    }

    #[test]
    fn group_key_matches_index_cmp_equality() {
        let samples = [
            Value::Null,
            Value::Boolean(true),
            Value::Int(1),
            Value::BigInt(1),
            Value::Double(1.0),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(1.5),
            Value::Double(f64::NAN),
            Value::str("1"),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.group_key() == b.group_key(),
                    a.index_cmp(b) == Ordering::Equal,
                    "group_key/index_cmp disagree on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn join_key_matches_sql_eq() {
        let samples = [
            Value::Boolean(false),
            Value::Int(7),
            Value::BigInt(7),
            Value::Double(7.0),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(2.5),
            Value::str("7"),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.join_key() == b.join_key(),
                    a.sql_eq(b) == Some(true),
                    "join_key/sql_eq disagree on {a:?} vs {b:?}"
                );
            }
        }
        assert_eq!(Value::Null.join_key(), None);
        assert_eq!(
            Value::Double(f64::NAN).join_key(),
            Some(ValueKey::NaN),
            "NaN key must exist so exec can detect and reject it"
        );
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::str("x").render(), "x");
        assert_eq!(Value::Boolean(false).render(), "FALSE");
    }
}
