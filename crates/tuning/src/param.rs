//! Tuning parameters and the tuning configuration file.
//!
//! "The tuning configuration file contains all identified tuning
//! parameters, their current values and code location. Whenever the
//! parallel application is executed, it initializes the parallel patterns
//! with the specified values [...] After program termination, all values
//! in the configuration file can be changed, making the parallel
//! applications automatically tunable on the target hardware without the
//! need to recompile." (Section 2.1, Fig. 3c)

use patty_json::{de, Json};
use std::fmt;

/// The tuning-parameter families Patty derives (Section 2.2, rule PLTP,
/// plus the parameters of the data-parallel-loop and master/worker
/// patterns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Degree of parallelism of a replicable pipeline stage.
    StageReplication,
    /// Restore stream-element order after a replicated stage.
    OrderPreservation,
    /// Execute two adjacent stages in the same thread.
    StageFusion,
    /// Run the whole pattern sequentially (short-stream fallback).
    SequentialExecution,
    /// Worker count of a master/worker or data-parallel loop.
    WorkerCount,
    /// Iteration chunk size of a data-parallel loop.
    ChunkSize,
    /// Elements per channel transaction in a pipeline (grain size).
    BatchSize,
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamKind::StageReplication => "StageReplication",
            ParamKind::OrderPreservation => "OrderPreservation",
            ParamKind::StageFusion => "StageFusion",
            ParamKind::SequentialExecution => "SequentialExecution",
            ParamKind::WorkerCount => "WorkerCount",
            ParamKind::ChunkSize => "ChunkSize",
            ParamKind::BatchSize => "BatchSize",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for ParamKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ParamKind, String> {
        Ok(match s {
            "StageReplication" => ParamKind::StageReplication,
            "OrderPreservation" => ParamKind::OrderPreservation,
            "StageFusion" => ParamKind::StageFusion,
            "SequentialExecution" => ParamKind::SequentialExecution,
            "WorkerCount" => ParamKind::WorkerCount,
            "ChunkSize" => ParamKind::ChunkSize,
            "BatchSize" => ParamKind::BatchSize,
            other => {
                return Err(format!(
                    "unknown parameter kind `{other}` (expected StageReplication, \
                     OrderPreservation, StageFusion, SequentialExecution, WorkerCount, \
                     ChunkSize or BatchSize)"
                ))
            }
        })
    }
}

/// A tuning parameter value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamValue {
    Bool(bool),
    Int(i64),
}

impl ParamValue {
    /// Integer view (`true` = 1).
    pub fn as_i64(&self) -> i64 {
        match self {
            ParamValue::Bool(b) => *b as i64,
            ParamValue::Int(v) => *v,
        }
    }

    /// Boolean view (nonzero = true).
    pub fn as_bool(&self) -> bool {
        match self {
            ParamValue::Bool(b) => *b,
            ParamValue::Int(v) => *v != 0,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(v) => write!(f, "{v}"),
        }
    }
}

impl ParamValue {
    /// JSON form: untagged — booleans as JSON booleans, integers as
    /// JSON integers (the configuration file stays human-editable).
    fn to_json(self) -> Json {
        match self {
            ParamValue::Bool(b) => Json::Bool(b),
            ParamValue::Int(v) => Json::Int(v),
        }
    }

    fn from_json(v: &Json, what: &str) -> Result<ParamValue, String> {
        match v {
            Json::Bool(b) => Ok(ParamValue::Bool(*b)),
            Json::Int(i) => Ok(ParamValue::Int(*i)),
            other => Err(format!(
                "{what}: value must be a boolean or integer, got {}",
                other.type_name()
            )),
        }
    }
}

/// The legal values of a parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamDomain {
    Bool,
    /// Inclusive integer range with a step.
    IntRange { lo: i64, hi: i64, step: i64 },
}

impl ParamDomain {
    /// Enumerate every legal value (bounded; ranges are small by
    /// construction — replication ≤ cores, chunk sizes are powers of two).
    pub fn values(&self) -> Vec<ParamValue> {
        match self {
            ParamDomain::Bool => vec![ParamValue::Bool(false), ParamValue::Bool(true)],
            ParamDomain::IntRange { lo, hi, step } => {
                let step = (*step).max(1);
                let mut out = Vec::new();
                let mut v = *lo;
                while v <= *hi {
                    out.push(ParamValue::Int(v));
                    v += step;
                }
                out
            }
        }
    }

    /// Is `v` a legal value?
    pub fn contains(&self, v: ParamValue) -> bool {
        match (self, v) {
            (ParamDomain::Bool, ParamValue::Bool(_)) => true,
            (ParamDomain::IntRange { lo, hi, step }, ParamValue::Int(x)) => {
                x >= *lo && x <= *hi && (x - lo) % step.max(&1) == 0
            }
            _ => false,
        }
    }

    /// Clamp/snap an arbitrary value into the domain (used by the
    /// continuous tuners).
    pub(crate) fn snap(&self, raw: f64) -> ParamValue {
        match self {
            ParamDomain::Bool => ParamValue::Bool(raw >= 0.5),
            ParamDomain::IntRange { lo, hi, step } => {
                let step = (*step).max(1) as f64;
                let clamped = raw.clamp(*lo as f64, *hi as f64);
                let snapped = *lo + (((clamped - *lo as f64) / step).round() as i64) * step as i64;
                ParamValue::Int(snapped.clamp(*lo, *hi))
            }
        }
    }
}

impl ParamDomain {
    /// JSON form: the string `"bool"` or `{ "lo", "hi", "step" }`.
    fn to_json(&self) -> Json {
        match self {
            ParamDomain::Bool => Json::Str("bool".into()),
            ParamDomain::IntRange { lo, hi, step } => {
                Json::obj().with("lo", *lo).with("hi", *hi).with("step", *step)
            }
        }
    }

    fn from_json(v: &Json, what: &str) -> Result<ParamDomain, String> {
        match v {
            Json::Str(s) if s == "bool" => Ok(ParamDomain::Bool),
            Json::Str(s) => Err(format!(
                "{what}: unknown domain `{s}` (expected \"bool\" or an integer range object)"
            )),
            Json::Obj(_) => {
                let lo = de::i64_field(v, "lo", what)?;
                let hi = de::i64_field(v, "hi", what)?;
                let step = de::i64_field(v, "step", what)?;
                if step < 1 {
                    return Err(format!("{what}: domain step must be >= 1, got {step}"));
                }
                if hi < lo {
                    return Err(format!(
                        "{what}: domain is empty (lo {lo} > hi {hi})"
                    ));
                }
                Ok(ParamDomain::IntRange { lo, hi, step })
            }
            other => Err(format!(
                "{what}: domain must be \"bool\" or an object, got {}",
                other.type_name()
            )),
        }
    }
}

/// One tuning parameter: name, family, code location, domain and current
/// value — one line of the paper's tuning configuration file.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningParam {
    /// Unique name, e.g. `pipeline_main_l4.C.replication`.
    pub name: String,
    pub kind: ParamKind,
    /// Code location, e.g. `main:4`.
    pub location: String,
    pub domain: ParamDomain,
    pub value: ParamValue,
}

impl TuningParam {
    fn to_json_value(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("kind", self.kind.to_string())
            .with("location", self.location.as_str())
            .with("domain", self.domain.to_json())
            .with("value", self.value.to_json())
    }

    fn from_json_value(v: &Json, index: usize) -> Result<TuningParam, String> {
        let what = format!("tuning parameter #{index}");
        if v.as_obj().is_none() {
            return Err(format!("{what}: expected an object, got {}", v.type_name()));
        }
        let name = de::str_field(v, "name", &what)?;
        // Error messages name the parameter once we know it.
        let what = format!("tuning parameter `{name}`");
        let kind: ParamKind = de::str_field(v, "kind", &what)?
            .parse()
            .map_err(|e| format!("{what}: {e}"))?;
        let location = de::str_field(v, "location", &what)?;
        let domain = ParamDomain::from_json(de::field(v, "domain", &what)?, &what)?;
        let value = ParamValue::from_json(de::field(v, "value", &what)?, &what)?;
        if !domain.contains(value) {
            return Err(format!("{what}: value {value} is outside its domain"));
        }
        Ok(TuningParam { name, kind, location, domain, value })
    }
}

/// The tuning configuration file (Fig. 3c): all parameters of one
/// application, serializable to JSON and editable between runs.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TuningConfig {
    /// Application / architecture name.
    pub app: String,
    pub params: Vec<TuningParam>,
}

impl TuningConfig {
    /// New empty configuration.
    pub fn new(app: impl Into<String>) -> TuningConfig {
        TuningConfig { app: app.into(), params: Vec::new() }
    }

    /// Add a parameter.
    pub fn push(&mut self, param: TuningParam) {
        self.params.push(param);
    }

    /// Current value of a named parameter.
    pub fn get(&self, name: &str) -> Option<ParamValue> {
        self.params.iter().find(|p| p.name == name).map(|p| p.value)
    }

    /// Set a parameter's value; fails if unknown or out of domain.
    pub fn set(&mut self, name: &str, value: ParamValue) -> Result<(), String> {
        let p = self
            .params
            .iter_mut()
            .find(|p| p.name == name)
            .ok_or_else(|| format!("unknown tuning parameter `{name}`"))?;
        if !p.domain.contains(value) {
            return Err(format!("value {value} outside domain of `{name}`"));
        }
        p.value = value;
        Ok(())
    }

    /// The configuration as a JSON tree, for embedding in a larger
    /// document without a render-and-parse round trip.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .with("app", self.app.as_str())
            .with(
                "params",
                Json::Arr(self.params.iter().map(TuningParam::to_json_value).collect()),
            )
    }

    /// Serialize to the JSON configuration-file format: the pretty
    /// rendering of [`to_json_value`](TuningConfig::to_json_value).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Parse from the JSON configuration-file format.
    ///
    /// The configuration file is edited by hand between runs (Section
    /// 2.1), so malformed input is reported with a descriptive error —
    /// position information for syntax errors, field/parameter names
    /// for structural ones — never a panic.
    pub fn from_json(json: &str) -> Result<TuningConfig, String> {
        let doc = patty_json::parse(json).map_err(|e| e.to_string())?;
        if doc.as_obj().is_none() {
            return Err(format!(
                "tuning configuration: expected a top-level object, got {}",
                doc.type_name()
            ));
        }
        let app = de::str_field(&doc, "app", "tuning configuration")?;
        let raw = de::arr_field(&doc, "params", "tuning configuration")?;
        let mut params = Vec::with_capacity(raw.len());
        for (i, p) in raw.iter().enumerate() {
            params.push(TuningParam::from_json_value(p, i)?);
        }
        let mut seen = std::collections::BTreeSet::new();
        for p in &params {
            if !seen.insert(p.name.as_str()) {
                return Err(format!(
                    "tuning configuration: duplicate parameter name `{}`",
                    p.name
                ));
            }
        }
        Ok(TuningConfig { app, params })
    }

    /// Total size of the search space (product of domain sizes).
    pub fn space_size(&self) -> u64 {
        self.params
            .iter()
            .map(|p| p.domain.values().len() as u64)
            .product()
    }
}

/// Convenience constructors for the standard parameter shapes.
impl TuningParam {
    /// Stage replication 1..=max_workers.
    pub fn replication(name: impl Into<String>, location: impl Into<String>, max: i64) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::StageReplication,
            location: location.into(),
            domain: ParamDomain::IntRange { lo: 1, hi: max.max(1), step: 1 },
            value: ParamValue::Int(1),
        }
    }

    /// Boolean order-preservation flag (defaults to on: safe until
    /// correctness testing proves order irrelevant).
    pub fn order_preservation(name: impl Into<String>, location: impl Into<String>) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::OrderPreservation,
            location: location.into(),
            domain: ParamDomain::Bool,
            value: ParamValue::Bool(true),
        }
    }

    /// Boolean stage-fusion flag for an adjacent stage pair.
    pub fn stage_fusion(name: impl Into<String>, location: impl Into<String>) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::StageFusion,
            location: location.into(),
            domain: ParamDomain::Bool,
            value: ParamValue::Bool(false),
        }
    }

    /// Boolean sequential-execution fallback.
    pub fn sequential_execution(name: impl Into<String>, location: impl Into<String>) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::SequentialExecution,
            location: location.into(),
            domain: ParamDomain::Bool,
            value: ParamValue::Bool(false),
        }
    }

    /// Worker count 1..=max.
    pub fn worker_count(name: impl Into<String>, location: impl Into<String>, max: i64) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::WorkerCount,
            location: location.into(),
            domain: ParamDomain::IntRange { lo: 1, hi: max.max(1), step: 1 },
            value: ParamValue::Int(1),
        }
    }

    /// Chunk size as powers of two in `1..=max`.
    pub fn chunk_size(name: impl Into<String>, location: impl Into<String>, max: i64) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::ChunkSize,
            location: location.into(),
            // modeled as an exponent range to keep the domain regular
            domain: ParamDomain::IntRange { lo: 0, hi: 63 - (max.max(1)).leading_zeros() as i64, step: 1 },
            value: ParamValue::Int(0),
        }
    }

    /// Pipeline batch size as powers of two in `1..=max` (elements per
    /// channel transaction; same exponent encoding as [`chunk_size`]).
    ///
    /// [`chunk_size`]: TuningParam::chunk_size
    pub fn batch_size(name: impl Into<String>, location: impl Into<String>, max: i64) -> Self {
        TuningParam {
            name: name.into(),
            kind: ParamKind::BatchSize,
            location: location.into(),
            domain: ParamDomain::IntRange { lo: 0, hi: 63 - (max.max(1)).leading_zeros() as i64, step: 1 },
            value: ParamValue::Int(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TuningConfig {
        let mut c = TuningConfig::new("pipeline_main_l4");
        c.push(TuningParam::replication("p3.replication", "main:8", 8));
        c.push(TuningParam::order_preservation("p3.order", "main:8"));
        c.push(TuningParam::stage_fusion("fuse_4_5", "main:10"));
        c.push(TuningParam::sequential_execution("seq", "main:4"));
        c
    }

    #[test]
    fn json_round_trip() {
        let c = demo();
        let json = c.to_json();
        let back = TuningConfig::from_json(&json).unwrap();
        assert_eq!(c, back);
        assert!(json.contains("p3.replication"));
        assert!(json.contains("main:8"));
        assert!(json.contains("StageReplication"));
    }

    #[test]
    fn malformed_config_reports_descriptive_errors() {
        // Syntax error: position, not a panic.
        let err = TuningConfig::from_json("{\n  \"app\": \"x\",").unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        // Wrong top-level shape.
        let err = TuningConfig::from_json("[1, 2]").unwrap_err();
        assert!(err.contains("top-level object"), "{err}");

        // Missing required field.
        let err = TuningConfig::from_json(r#"{"app": "x"}"#).unwrap_err();
        assert!(err.contains("missing required field `params`"), "{err}");

        // Unknown parameter kind names the parameter and the kind.
        let err = TuningConfig::from_json(
            r#"{"app":"x","params":[{"name":"p","kind":"Bogus","location":"main:1",
                "domain":"bool","value":true}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("`p`") && err.contains("Bogus"), "{err}");

        // Value outside its declared domain is rejected at parse time.
        let err = TuningConfig::from_json(
            r#"{"app":"x","params":[{"name":"p","kind":"StageReplication",
                "location":"main:1","domain":{"lo":1,"hi":4,"step":1},"value":9}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("outside its domain"), "{err}");

        // Degenerate domains are rejected.
        let err = TuningConfig::from_json(
            r#"{"app":"x","params":[{"name":"p","kind":"ChunkSize",
                "location":"main:1","domain":{"lo":1,"hi":4,"step":0},"value":1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("step must be >= 1"), "{err}");

        // Duplicate parameter names are rejected.
        let dup = r#"{"app":"x","params":[
            {"name":"p","kind":"StageFusion","location":"main:1","domain":"bool","value":false},
            {"name":"p","kind":"StageFusion","location":"main:2","domain":"bool","value":false}]}"#;
        let err = TuningConfig::from_json(dup).unwrap_err();
        assert!(err.contains("duplicate parameter name `p`"), "{err}");
    }

    #[test]
    fn get_set_respects_domain() {
        let mut c = demo();
        assert_eq!(c.get("p3.replication"), Some(ParamValue::Int(1)));
        c.set("p3.replication", ParamValue::Int(4)).unwrap();
        assert_eq!(c.get("p3.replication"), Some(ParamValue::Int(4)));
        assert!(c.set("p3.replication", ParamValue::Int(99)).is_err());
        assert!(c.set("nope", ParamValue::Int(1)).is_err());
        assert!(c.set("p3.order", ParamValue::Int(1)).is_err(), "type mismatch rejected");
    }

    #[test]
    fn space_size_is_product() {
        // 8 × 2 × 2 × 2
        assert_eq!(demo().space_size(), 64);
    }

    #[test]
    fn domain_enumeration() {
        let d = ParamDomain::IntRange { lo: 1, hi: 7, step: 2 };
        let vals: Vec<i64> = d.values().iter().map(|v| v.as_i64()).collect();
        assert_eq!(vals, vec![1, 3, 5, 7]);
        assert!(d.contains(ParamValue::Int(5)));
        assert!(!d.contains(ParamValue::Int(4)));
        assert!(!d.contains(ParamValue::Int(9)));
    }

    #[test]
    fn snap_clamps_and_rounds() {
        let d = ParamDomain::IntRange { lo: 1, hi: 8, step: 1 };
        assert_eq!(d.snap(3.4), ParamValue::Int(3));
        assert_eq!(d.snap(100.0), ParamValue::Int(8));
        assert_eq!(d.snap(-5.0), ParamValue::Int(1));
        assert_eq!(ParamDomain::Bool.snap(0.7), ParamValue::Bool(true));
    }

    #[test]
    fn defaults_are_safe() {
        let c = demo();
        // order preservation defaults on (safe), fusion/sequential off,
        // replication 1 (no extra parallelism until tuned)
        assert!(c.get("p3.order").unwrap().as_bool());
        assert!(!c.get("fuse_4_5").unwrap().as_bool());
        assert_eq!(c.get("p3.replication").unwrap().as_i64(), 1);
    }
}
