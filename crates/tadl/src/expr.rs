//! The TADL expression language.
//!
//! The paper adapts the Tunable Architecture Description Language (TADL,
//! Schaefer et al. \[23\]) to describe detected parallel architectures as
//! code annotations, e.g. the pipeline with an internal master/worker from
//! Fig. 3b:
//!
//! ```text
//! (A || B || C+) => D => E
//! ```
//!
//! * `X => Y` — pipeline composition: `Y` consumes what `X` produces,
//! * `X || Y` — master/worker composition: independent items executed in
//!   parallel per stream element,
//! * `X+` — the item is *replicable* (may run concurrently with itself on
//!   consecutive stream elements; the `StageReplication` tuning parameter).

use patty_json::{de, Json};
use std::fmt;

/// A TADL architecture expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TadlExpr {
    /// A named item referring to a labeled source region.
    Item {
        name: String,
        /// `+` suffix: the item may be replicated.
        replicable: bool,
    },
    /// `a => b => c` — stages in a processing chain.
    Pipeline(Vec<TadlExpr>),
    /// `a || b || c` — independent workers under a master.
    Parallel(Vec<TadlExpr>),
}

impl TadlExpr {
    /// A plain item.
    pub fn item(name: impl Into<String>) -> TadlExpr {
        TadlExpr::Item { name: name.into(), replicable: false }
    }

    /// A replicable item (`name+`).
    pub fn replicable(name: impl Into<String>) -> TadlExpr {
        TadlExpr::Item { name: name.into(), replicable: true }
    }

    /// Pipeline composition, flattening nested pipelines.
    pub fn pipeline(parts: Vec<TadlExpr>) -> TadlExpr {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                TadlExpr::Pipeline(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            TadlExpr::Pipeline(flat)
        }
    }

    /// Parallel composition, flattening nested parallels.
    pub fn parallel(parts: Vec<TadlExpr>) -> TadlExpr {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                TadlExpr::Parallel(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            TadlExpr::Parallel(flat)
        }
    }

    /// All item names, left to right.
    pub fn items(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_items(&mut |name, _| out.push(name));
        out
    }

    /// All replicable item names.
    pub fn replicable_items(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_items(&mut |name, rep| {
            if rep {
                out.push(name);
            }
        });
        out
    }

    fn walk_items<'a>(&'a self, f: &mut impl FnMut(&'a str, bool)) {
        match self {
            TadlExpr::Item { name, replicable } => f(name, *replicable),
            TadlExpr::Pipeline(parts) | TadlExpr::Parallel(parts) => {
                for p in parts {
                    p.walk_items(f);
                }
            }
        }
    }

    /// Validate structural well-formedness: unique item names, no empty
    /// compositions, compositions with at least two children.
    pub fn validate(&self) -> Result<(), TadlError> {
        let items = self.items();
        let mut seen = std::collections::BTreeSet::new();
        for i in &items {
            if !seen.insert(*i) {
                return Err(TadlError::new(format!("duplicate item name `{i}`")));
            }
        }
        self.validate_shape()
    }

    fn validate_shape(&self) -> Result<(), TadlError> {
        match self {
            TadlExpr::Item { name, .. } => {
                if name.is_empty() {
                    Err(TadlError::new("empty item name"))
                } else {
                    Ok(())
                }
            }
            TadlExpr::Pipeline(parts) | TadlExpr::Parallel(parts) => {
                if parts.len() < 2 {
                    return Err(TadlError::new("composition needs at least two children"));
                }
                for p in parts {
                    p.validate_shape()?;
                }
                Ok(())
            }
        }
    }

    /// JSON form, one variant key per node:
    /// `{"item": {"name": "...", "replicable": bool}}`,
    /// `{"pipeline": [...]}` or `{"parallel": [...]}`.
    pub fn to_json_value(&self) -> Json {
        match self {
            TadlExpr::Item { name, replicable } => Json::obj().with(
                "item",
                Json::obj().with("name", name.as_str()).with("replicable", *replicable),
            ),
            TadlExpr::Pipeline(parts) => Json::obj().with(
                "pipeline",
                Json::Arr(parts.iter().map(TadlExpr::to_json_value).collect()),
            ),
            TadlExpr::Parallel(parts) => Json::obj().with(
                "parallel",
                Json::Arr(parts.iter().map(TadlExpr::to_json_value).collect()),
            ),
        }
    }

    /// Decode the JSON form produced by [`TadlExpr::to_json_value`].
    pub fn from_json_value(v: &Json) -> Result<TadlExpr, TadlError> {
        let fields = v.as_obj().ok_or_else(|| {
            TadlError::new(format!("expression node must be an object, got {}", v.type_name()))
        })?;
        let [(key, body)] = fields else {
            return Err(TadlError::new(
                "expression node must have exactly one key (item, pipeline or parallel)",
            ));
        };
        match key.as_str() {
            "item" => {
                let name = de::str_field(body, "name", "TADL item")
                    .map_err(TadlError::new)?;
                let replicable = de::bool_field(body, "replicable", "TADL item")
                    .map_err(TadlError::new)?;
                Ok(TadlExpr::Item { name, replicable })
            }
            "pipeline" | "parallel" => {
                let parts = body.as_arr().ok_or_else(|| {
                    TadlError::new(format!("`{key}` must hold an array, got {}", body.type_name()))
                })?;
                let children = parts
                    .iter()
                    .map(TadlExpr::from_json_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(if key == "pipeline" {
                    TadlExpr::Pipeline(children)
                } else {
                    TadlExpr::Parallel(children)
                })
            }
            other => Err(TadlError::new(format!(
                "unknown expression node `{other}` (expected item, pipeline or parallel)"
            ))),
        }
    }
}

impl fmt::Display for TadlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pipeline is the lowest-precedence operator; parenthesize parallel
        // children of pipelines and any nested composition inside parallel.
        fn go(e: &TadlExpr, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
            match e {
                TadlExpr::Item { name, replicable } => {
                    write!(f, "{name}")?;
                    if *replicable {
                        write!(f, "+")?;
                    }
                    Ok(())
                }
                TadlExpr::Pipeline(parts) => {
                    let needs_parens = parent > 0;
                    if needs_parens {
                        write!(f, "(")?;
                    }
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " => ")?;
                        }
                        go(p, f, 1)?;
                    }
                    if needs_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                TadlExpr::Parallel(parts) => {
                    // `||` binds tighter than `=>`, so parens inside a
                    // pipeline are not strictly required — but the paper
                    // writes `(A || B || C+) => D => E`, so we always
                    // parenthesize parallel groups in any composition.
                    let needs_parens = parent > 0;
                    if needs_parens {
                        write!(f, "(")?;
                    }
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " || ")?;
                        }
                        go(p, f, 2)?;
                    }
                    if needs_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

/// An error from parsing or validating TADL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TadlError {
    pub message: String,
}

impl TadlError {
    pub fn new(message: impl Into<String>) -> TadlError {
        TadlError { message: message.into() }
    }
}

impl fmt::Display for TadlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TADL error: {}", self.message)
    }
}

impl std::error::Error for TadlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_example() {
        let e = TadlExpr::pipeline(vec![
            TadlExpr::parallel(vec![
                TadlExpr::item("A"),
                TadlExpr::item("B"),
                TadlExpr::replicable("C"),
            ]),
            TadlExpr::item("D"),
            TadlExpr::item("E"),
        ]);
        assert_eq!(e.to_string(), "(A || B || C+) => D => E");
    }

    #[test]
    fn constructors_flatten() {
        let e = TadlExpr::pipeline(vec![
            TadlExpr::pipeline(vec![TadlExpr::item("A"), TadlExpr::item("B")]),
            TadlExpr::item("C"),
        ]);
        assert_eq!(e, TadlExpr::Pipeline(vec![
            TadlExpr::item("A"),
            TadlExpr::item("B"),
            TadlExpr::item("C"),
        ]));
    }

    #[test]
    fn single_child_composition_collapses() {
        assert_eq!(TadlExpr::pipeline(vec![TadlExpr::item("A")]), TadlExpr::item("A"));
        assert_eq!(TadlExpr::parallel(vec![TadlExpr::item("A")]), TadlExpr::item("A"));
    }

    #[test]
    fn items_in_order() {
        let e = TadlExpr::pipeline(vec![
            TadlExpr::parallel(vec![TadlExpr::item("A"), TadlExpr::replicable("B")]),
            TadlExpr::item("C"),
        ]);
        assert_eq!(e.items(), vec!["A", "B", "C"]);
        assert_eq!(e.replicable_items(), vec!["B"]);
    }

    #[test]
    fn duplicate_names_invalid() {
        let e = TadlExpr::pipeline(vec![TadlExpr::item("A"), TadlExpr::item("A")]);
        assert!(e.validate().is_err());
    }

    #[test]
    fn short_compositions_invalid() {
        let e = TadlExpr::Pipeline(vec![TadlExpr::item("A")]);
        assert!(e.validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        let e = TadlExpr::pipeline(vec![
            TadlExpr::parallel(vec![TadlExpr::item("A"), TadlExpr::item("B")]),
            TadlExpr::replicable("C"),
        ]);
        let json = e.to_json_value().to_string();
        let back = TadlExpr::from_json_value(&patty_json::parse(&json).unwrap()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn json_decode_rejects_malformed_nodes() {
        for bad in [
            r#"{"item": {"name": "A"}}"#,
            r#"{"loop": []}"#,
            r#"{"pipeline": 3}"#,
            r#"{"item": {"name": "A", "replicable": false}, "extra": 1}"#,
            "[]",
        ] {
            let v = patty_json::parse(bad).unwrap();
            assert!(TadlExpr::from_json_value(&v).is_err(), "{bad}");
        }
    }
}
