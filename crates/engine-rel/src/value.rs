//! Tuple values, including the blob type that carries image volumes.

use marray::NdArray;
use std::sync::Arc;

/// Column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Serialized array blob — "users .. directly manipulate NumPy arrays
    /// .. by storing them as blobs".
    Blob,
}

/// One field of a tuple.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer field.
    Int(i64),
    /// Float field.
    Float(f64),
    /// String field.
    Str(Arc<str>),
    /// Array blob field (shared, so tuple copies are cheap).
    Blob(Arc<NdArray<f64>>),
}

impl Value {
    /// The value's type tag.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Blob(_) => ValueType::Blob,
        }
    }

    /// Integer accessor (panics on type mismatch — queries are typed by
    /// construction).
    // scilint: allow(F001, typed Value accessor panics on a column type mismatch, the simulated engine's schema contract)
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {:?}", other.value_type()),
        }
    }

    /// Blob accessor.
    // scilint: allow(F001, typed Value accessor panics on a column type mismatch, the simulated engine's schema contract)
    pub fn as_blob(&self) -> &Arc<NdArray<f64>> {
        match self {
            Value::Blob(v) => v,
            other => panic!("expected Blob, got {:?}", other.value_type()),
        }
    }

    /// Serialized size in bytes. Blobs charge their stored footprint, so a
    /// compressed plane crossing a worker boundary costs its encoded
    /// bytes, not its dense shape.
    pub fn nbytes(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::Blob(b) => b.stored_nbytes(),
        }
    }

    /// Build a blob value.
    pub fn blob(array: NdArray<f64>) -> Value {
        Value::Blob(Arc::new(array))
    }
}

/// A tuple is a row of values.
pub type Tuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_types() {
        assert_eq!(Value::Int(7).as_int(), 7);
        let b = Value::blob(NdArray::zeros(&[2, 2]));
        assert_eq!(b.as_blob().len(), 4);
        assert_eq!(b.value_type(), ValueType::Blob);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        Value::Float(1.0).as_int();
    }

    #[test]
    fn nbytes() {
        assert_eq!(Value::Int(1).nbytes(), 8);
        assert_eq!(Value::Str(Arc::from("abcd")).nbytes(), 4);
        assert_eq!(Value::blob(NdArray::zeros(&[10])).nbytes(), 80);
    }
}
