//! Runtime values of the minilang interpreter.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A heap identity. Every object and list gets a unique id from the
/// interpreter so the dynamic analysis can name memory precisely
/// (the dynamic counterpart to the optimistic syntactic paths used by the
/// static analysis).
pub(crate) type HeapId = u64;

/// A minilang runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(Rc<str>),
    List(Rc<ListData>),
    Object(Rc<ObjectData>),
}

/// Backing store of a list value.
#[derive(Debug)]
pub struct ListData {
    pub id: HeapId,
    pub items: RefCell<Vec<Value>>,
}

/// Backing store of an object value. The class name is a shared `Rc<str>`
/// so allocating an object bumps a refcount instead of copying a string.
#[derive(Debug)]
pub struct ObjectData {
    pub id: HeapId,
    pub class: Rc<str>,
    pub fields: RefCell<FieldTable>,
}

/// Field storage of an object: a compact ordered table.
///
/// minilang objects have a handful of fields, so a vector with linear scan
/// beats a hash map on every axis that matters here — no hashing on access,
/// one allocation for the table instead of one per key, and inserting an
/// already-interned name (`FieldTable::set_interned`) is a refcount bump.
/// Entries keep insertion order; `set` on an existing name replaces in
/// place, so objects of the same class share a layout.
#[derive(Debug, Default)]
pub struct FieldTable {
    entries: Vec<(Rc<str>, Value)>,
}

impl FieldTable {
    pub fn with_capacity(n: usize) -> FieldTable {
        FieldTable { entries: Vec::with_capacity(n) }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Lookup with a pre-interned key. Objects the VM allocates share their
    /// key `Rc`s with the compiled name pool, so the common case is one
    /// pointer comparison per entry; content equality is the fallback.
    pub(crate) fn get_interned(&self, name: &Rc<str>) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| Rc::ptr_eq(k, name) || k.as_ref() == name.as_ref())
            .map(|(_, v)| v)
    }

    pub(crate) fn get_mut_interned(&mut self, name: &Rc<str>) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| Rc::ptr_eq(k, name) || k.as_ref() == name.as_ref())
            .map(|(_, v)| v)
    }

    /// Offset-validated lookup for the VM's field inline cache: the value
    /// at entry `idx` iff that entry's key is `name`. A cached offset is a
    /// hint, not a fact — fields can be added at runtime, so two objects
    /// of one class may lay the same name out at different offsets — and
    /// the key re-check is what makes a stale hint a miss instead of a
    /// wrong answer.
    pub(crate) fn get_at(&self, idx: usize, name: &Rc<str>) -> Option<&Value> {
        match self.entries.get(idx) {
            Some((k, v)) if Rc::ptr_eq(k, name) || k.as_ref() == name.as_ref() => Some(v),
            _ => None,
        }
    }

    /// Like [`FieldTable::get_interned`], but also returns the entry
    /// offset so the caller can cache it for [`FieldTable::get_at`].
    pub(crate) fn get_interned_at(&self, name: &Rc<str>) -> Option<(usize, &Value)> {
        self.entries
            .iter()
            .enumerate()
            .find(|(_, (k, _))| Rc::ptr_eq(k, name) || k.as_ref() == name.as_ref())
            .map(|(i, (_, v))| (i, v))
    }

    /// Insert or replace, allocating a new interned key on first insert.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.get_mut(name) {
            Some(slot) => *slot = value,
            None => self.entries.push((Rc::from(name), value)),
        }
    }

    /// Insert or replace with a pre-interned key: lookup is pointer-first
    /// and a miss clones the `Rc` instead of copying the string.
    pub(crate) fn set_interned(&mut self, name: &Rc<str>, value: Value) {
        match self.get_mut_interned(name) {
            Some(slot) => *slot = value,
            None => self.entries.push((name.clone(), value)),
        }
    }
}

impl Value {
    /// Make a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Truthiness: only `true` is true; anything else is a type error at
    /// the use site, so this returns `None` for non-bools.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as f64 for mixed arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Object(_) => "object",
        }
    }

    /// Equality as the `==` operator sees it: structural for primitives,
    /// reference identity for lists and objects.
    pub(crate) fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                *a as f64 == *b
            }
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a.id == b.id,
            (Value::Object(a), Value::Object(b)) => a.id == b.id,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, item) in l.items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(o) => write!(f, "<{}#{}>", o.class, o.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(id: HeapId, items: Vec<Value>) -> Value {
        Value::List(Rc::new(ListData { id, items: RefCell::new(items) }))
    }

    #[test]
    fn loose_eq_mixes_int_and_float() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.5)));
    }

    #[test]
    fn loose_eq_lists_by_identity() {
        let a = list(1, vec![Value::Int(1)]);
        let b = list(2, vec![Value::Int(1)]);
        assert!(!a.loose_eq(&b));
        assert!(a.loose_eq(&a.clone()));
    }

    #[test]
    fn display_formats_values() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(
            list(1, vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(list(0, vec![]).type_name(), "list");
    }

    #[test]
    fn as_bool_rejects_non_bools() {
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }
}
