//! Attribute collections: provenance as name-value pairs (§II-A).

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered collection of name-value pairs.
///
/// Backed by a `BTreeMap` so iteration order is canonical: encoding the
/// same logical attribute set always produces the same bytes, which is what
/// makes provenance digests — and therefore tuple-set identity — stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Attributes(BTreeMap<String, Value>);

impl Attributes {
    /// An empty collection.
    pub fn new() -> Self {
        Attributes(BTreeMap::new())
    }

    /// Inserts or replaces an attribute, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Inserts or replaces an attribute.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.0.insert(name.into(), value.into())
    }

    /// Looks up an attribute by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }

    /// Removes an attribute.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.0.remove(name)
    }

    /// True when the attribute is present.
    pub fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates in canonical (sorted-name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names only, in canonical order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// The greatest name, which the decoder checks each next name
    /// against.
    pub(crate) fn last_name(&self) -> Option<&str> {
        self.0.keys().next_back().map(String::as_str)
    }

    /// Merges `other` into `self`; on conflict `other` wins. Used when a
    /// derived tuple set inherits, then overrides, parent attributes.
    pub fn merge(&mut self, other: &Attributes) {
        for (k, v) in other.iter() {
            self.0.insert(k.to_owned(), v.clone());
        }
    }

    /// Convenience string accessor.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Convenience integer accessor.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// Convenience time accessor.
    pub fn get_time(&self, name: &str) -> Option<crate::time::Timestamp> {
        self.get(name).and_then(Value::as_time)
    }
}

impl FromIterator<(String, Value)> for Attributes {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Attributes(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Attributes {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Attributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chaining_and_lookup() {
        let a = Attributes::new()
            .with("domain", "traffic")
            .with("count", 42i64)
            .with("calibrated", true);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get_str("domain"), Some("traffic"));
        assert_eq!(a.get_int("count"), Some(42));
        assert_eq!(a.get("calibrated"), Some(&Value::Bool(true)));
        assert!(!a.contains("missing"));
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let a = Attributes::new().with("z", 1i64).with("a", 2i64).with("m", 3i64);
        let names: Vec<_> = a.names().collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn insertion_order_does_not_affect_equality() {
        let a = Attributes::new().with("x", 1i64).with("y", 2i64);
        let b = Attributes::new().with("y", 2i64).with("x", 1i64);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_other_wins_on_conflict() {
        let mut a = Attributes::new().with("k", 1i64).with("only_a", true);
        let b = Attributes::new().with("k", 2i64).with("only_b", false);
        a.merge(&b);
        assert_eq!(a.get_int("k"), Some(2));
        assert!(a.contains("only_a"));
        assert!(a.contains("only_b"));
    }

    #[test]
    fn display_renders_pairs() {
        let a = Attributes::new().with("b", 1i64).with("a", "x");
        assert_eq!(a.to_string(), "{a=\"x\", b=1}");
    }
}
