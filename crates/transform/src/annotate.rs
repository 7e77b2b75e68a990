//! TADL code annotation: detection results → annotated source (Fig. 3b),
//! and annotated source → pattern instances (operation mode 2,
//! architecture-based parallel programming).
//!
//! "We insert the code annotations at the exact location where they have
//! been found during pattern detection for the reason of program
//! comprehensibility" (Section 2.1).

use patty_analysis::SemanticModel;
use patty_minilang::ast::{visit_block, Block, FuncDecl, Program, Stmt, StmtKind};
use patty_minilang::pretty::{print_class, print_func};
use patty_minilang::span::{NodeId, Span};
use patty_minilang::{parse, LangError};
use patty_patterns::{PatternInstance, Stage};
use patty_tadl::{parse_region_label, ArchItem, ArchitectureDescription, PatternKind, RegionLabel, TadlExpr};
use patty_tuning::{TuningConfig, TuningParam};
use std::collections::BTreeMap;

/// A program printed once, ready to be annotated one instance at a time.
///
/// Annotating changes one loop, so only the top-level declaration that
/// owns the loop is rebuilt, printed and re-parsed; every other
/// declaration's text is the one printed at construction.
pub struct Annotator<'p> {
    program: &'p Program,
    /// Each top-level declaration's printed text, classes first then free
    /// functions: concatenated, the printed program.
    decl_texts: Vec<String>,
    /// Loop id → index in `decl_texts` of the declaration that owns it.
    loop_owner: BTreeMap<NodeId, usize>,
}

impl<'p> Annotator<'p> {
    /// Print `program` declaration by declaration and check, once, that
    /// the printed program parses.
    pub fn new(program: &'p Program) -> Result<Annotator<'p>, LangError> {
        let mut decl_texts = Vec::with_capacity(program.classes.len() + program.funcs.len());
        let mut loop_owner = BTreeMap::new();
        let mut own_loops = |f: &FuncDecl, decl: usize| {
            visit_block(&f.body, &mut |s: &Stmt| {
                if s.is_loop() {
                    loop_owner.insert(s.id, decl);
                }
            });
        };
        for c in &program.classes {
            c.methods.iter().for_each(|m| own_loops(m, decl_texts.len()));
            decl_texts.push(print_class(c));
        }
        for f in &program.funcs {
            own_loops(f, decl_texts.len());
            decl_texts.push(print_func(f));
        }
        parse(&decl_texts.concat())?;
        Ok(Annotator { program, decl_texts, loop_owner })
    }

    /// The annotated source text for a detected instance: each stage's
    /// statements wrapped in an item region, the whole loop wrapped in the
    /// TADL architecture region.
    pub fn annotate(&self, instance: &PatternInstance) -> Result<String, LangError> {
        let owner = *self
            .loop_owner
            .get(&instance.loop_id)
            .ok_or_else(|| LangError::runtime(0, "loop to annotate not found"))?;
        let classes = self.program.classes.len();
        let text = if owner < classes {
            let mut class = self.program.classes[owner].clone();
            wrap_instance(class.methods.iter_mut().map(|m| &mut m.body), instance);
            print_class(&class)
        } else {
            let mut func = self.program.funcs[owner - classes].clone();
            wrap_instance(std::iter::once(&mut func.body), instance);
            print_func(&func)
        };
        // Re-parse what changed to guarantee the annotation round-trips;
        // the rest was parsed at construction.
        parse(&text)?;
        let mut out = String::with_capacity(
            self.decl_texts.iter().map(String::len).sum::<usize>() + text.len(),
        );
        for (i, decl) in self.decl_texts.iter().enumerate() {
            out.push_str(if i == owner { &text } else { decl });
        }
        Ok(out)
    }
}

/// Produce the annotated source text for one detected instance. One-shot:
/// this prints the whole program for the one instance; annotating several
/// instances of a program goes through one [`Annotator`].
pub fn annotate_source(program: &Program, instance: &PatternInstance) -> Result<String, LangError> {
    Annotator::new(program)?.annotate(instance)
}

/// Wrap the instance's loop, which sits in one of `bodies`, in its regions.
fn wrap_instance<'a>(mut bodies: impl Iterator<Item = &'a mut Block>, instance: &PatternInstance) {
    // The first match is the loop itself: ids are unique in a parsed
    // declaration, and `wrap_loop`'s placeholder nodes come after the search.
    let stmt = bodies
        .find_map(|b| find_stmt_mut(b, instance.loop_id))
        .expect("the owner map names the declaration that holds the loop");
    let mut stages = instance.stages.clone();
    // Item regions must wrap statements in body order.
    stages.sort_by_key(|s| s.stmts.first().copied().unwrap_or(NodeId(u32::MAX)));
    wrap_loop(stmt, &instance.arch.annotation_label(), &stages);
}

/// The statement with this id in `block`, searched pre-order.
fn find_stmt_mut(block: &mut Block, id: NodeId) -> Option<&mut Stmt> {
    for stmt in &mut block.stmts {
        if stmt.id == id {
            return Some(stmt);
        }
        let found = match &mut stmt.kind {
            StmtKind::If { then_blk, else_blk, .. } => find_stmt_mut(then_blk, id)
                .or_else(|| else_blk.as_mut().and_then(|e| find_stmt_mut(e, id))),
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Foreach { body, .. }
            | StmtKind::Block(body)
            | StmtKind::Region { body, .. } => find_stmt_mut(body, id),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Wrap the loop's body statements in item regions and the loop itself in
/// the TADL region. Ids/spans of synthesized nodes are placeholders; the
/// caller re-parses the printed source.
fn wrap_loop(loop_stmt: &mut Stmt, tadl_label: &str, stages: &[Stage]) {
    let stage_of: BTreeMap<NodeId, &Stage> = stages
        .iter()
        .flat_map(|s| s.stmts.iter().map(move |id| (*id, s)))
        .collect();
    if let Some(body) = loop_body_mut(loop_stmt) {
        let old = std::mem::take(&mut body.stmts);
        let mut new_stmts: Vec<Stmt> = Vec::new();
        let mut current: Option<(&Stage, Vec<Stmt>)> = None;
        for stmt in old {
            let stage = stage_of.get(&stmt.id).copied();
            match (&mut current, stage) {
                (Some((cs, acc)), Some(s)) if cs.name == s.name => acc.push(stmt),
                _ => {
                    if let Some((cs, acc)) = current.take() {
                        new_stmts.push(region(&format!("{}:", cs.name), acc));
                    }
                    match stage {
                        Some(s) => current = Some((s, vec![stmt])),
                        None => new_stmts.push(stmt),
                    }
                }
            }
        }
        if let Some((cs, acc)) = current.take() {
            new_stmts.push(region(&format!("{}:", cs.name), acc));
        }
        body.stmts = new_stmts;
    }
    // Wrap the loop in the TADL region.
    let inner = std::mem::replace(
        loop_stmt,
        Stmt { id: NodeId(0), span: Span::DUMMY, kind: StmtKind::Break },
    );
    *loop_stmt = region(tadl_label, vec![inner]);
}

fn region(label: &str, stmts: Vec<Stmt>) -> Stmt {
    Stmt {
        id: NodeId(0),
        span: Span::DUMMY,
        kind: StmtKind::Region {
            label: label.to_string(),
            body: Block { id: NodeId(0), span: Span::DUMMY, stmts },
        },
    }
}

fn loop_body_mut(stmt: &mut Stmt) -> Option<&mut Block> {
    match &mut stmt.kind {
        StmtKind::While { body, .. }
        | StmtKind::For { body, .. }
        | StmtKind::Foreach { body, .. } => Some(body),
        _ => None,
    }
}

/// An architecture found in annotated source (operation mode 2).
#[derive(Clone, Debug)]
pub struct Annotation {
    pub expr: TadlExpr,
    /// The annotated loop.
    pub loop_id: NodeId,
    /// Item name → the item region's statement id (the region statement
    /// is the direct loop-body statement).
    pub items: BTreeMap<String, NodeId>,
    pub func: String,
    pub line: u32,
}

/// Extract all TADL annotations from a (re-parsed) program.
pub fn extract_annotations(program: &Program) -> Result<Vec<Annotation>, String> {
    let mut out = Vec::new();
    for func in program.all_funcs() {
        let qualified = qualified_name(program, func.name.as_str());
        let mut err: Option<String> = None;
        patty_minilang::ast::visit_block(&func.body, &mut |stmt| {
            if err.is_some() {
                return;
            }
            let StmtKind::Region { label, body } = &stmt.kind else { return };
            let parsed = match parse_region_label(label) {
                Ok(p) => p,
                Err(e) => {
                    err = Some(e.to_string());
                    return;
                }
            };
            let RegionLabel::Tadl(expr) = parsed else { return };
            // The TADL region must contain exactly one loop.
            let Some(loop_stmt) = body.stmts.iter().find(|s| s.is_loop()) else {
                err = Some(format!("TADL region `{label}` contains no loop"));
                return;
            };
            let loop_body = loop_stmt.loop_body().expect("is_loop checked");
            let mut items = BTreeMap::new();
            for s in &loop_body.stmts {
                if let StmtKind::Region { label, .. } = &s.kind {
                    if let Ok(RegionLabel::Item(name)) = parse_region_label(label) {
                        items.insert(name, s.id);
                    }
                }
            }
            for name in expr.items() {
                if !items.contains_key(name) {
                    err = Some(format!("TADL item `{name}` has no region in the loop body"));
                    return;
                }
            }
            out.push(Annotation {
                expr,
                loop_id: loop_stmt.id,
                items,
                func: qualified.clone(),
                line: stmt.span.line,
            });
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(out)
}

fn qualified_name(program: &Program, func: &str) -> String {
    for c in &program.classes {
        if c.methods.iter().any(|m| m.name == func) {
            // free functions take precedence in all_funcs ordering; this
            // helper is only used for display
            if program.func(func).is_none() {
                return format!("{}.{}", c.name, func);
            }
        }
    }
    func.to_string()
}

/// Build a pattern instance from an engineer-written annotation
/// (operation mode 2: the annotation *is* the architecture; Patty adds
/// the tuning parameters and validation artifacts automatically —
/// "In contrast to OpenMP, our approach automatically creates correctness
/// and performance tests from a given TADL annotation").
pub fn instance_from_annotation(
    model: &SemanticModel,
    ann: &Annotation,
) -> Result<PatternInstance, String> {
    ann.expr.validate().map_err(|e| e.to_string())?;
    let item_names = ann.expr.items();
    let arch_name = format!("tadl_{}_l{}", ann.func.replace('.', "_"), ann.line);
    let loc = format!("{}:{}", ann.func, ann.line);
    let mut stages = Vec::new();
    let mut items = Vec::new();
    for name in &item_names {
        let stmt_id = *ann.items.get(*name).ok_or_else(|| format!("missing item {name}"))?;
        let stmt = model
            .program
            .find_stmt(stmt_id)
            .ok_or_else(|| format!("stale statement for item {name}"))?;
        let effects = model.effects_of(stmt_id).unwrap_or_default();
        let cost_share = model.stage_cost_share(ann.loop_id, stmt_id);
        let replicable = ann.expr.replicable_items().contains(name);
        stages.push(Stage {
            name: name.to_string(),
            stmts: vec![stmt_id],
            cost_share,
            replicable,
            order_sensitive: effects.io,
        });
        items.push(ArchItem {
            name: name.to_string(),
            line: stmt.span.line,
            source: stmt.describe(&model.program.source),
            cost_share,
            pure_stage: effects.is_observationally_pure(),
        });
    }
    let kind = match &ann.expr {
        TadlExpr::Parallel(_) => PatternKind::MasterWorker,
        TadlExpr::Item { .. } => PatternKind::DataParallelLoop,
        TadlExpr::Pipeline(_) => PatternKind::Pipeline,
    };
    let mut tuning = TuningConfig::new(arch_name.clone());
    for s in &stages {
        if s.replicable {
            tuning.push(TuningParam::replication(
                format!("{arch_name}.{}.replication", s.name),
                loc.clone(),
                8,
            ));
            tuning.push(TuningParam::order_preservation(
                format!("{arch_name}.{}.order", s.name),
                loc.clone(),
            ));
        }
    }
    for w in item_names.windows(2) {
        tuning.push(TuningParam::stage_fusion(
            format!("{arch_name}.fuse.{}_{}", w[0], w[1]),
            loc.clone(),
        ));
    }
    tuning.push(TuningParam::sequential_execution(
        format!("{arch_name}.sequential"),
        loc.clone(),
    ));
    let arch = ArchitectureDescription {
        name: arch_name,
        kind,
        expr: ann.expr.clone(),
        items,
        func: ann.func.clone(),
        line: ann.line,
        stream_length: model.loop_iterations(ann.loop_id),
    };
    arch.validate().map_err(|e| e.to_string())?;
    let est = stages.len() as f64;
    Ok(PatternInstance {
        arch,
        loop_id: ann.loop_id,
        stages,
        tuning,
        est_speedup: est,
        reductions: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::{run, InterpOptions};
    use patty_patterns::{detect_loop, DetectOptions};

    const SRC: &str = r#"
        class Filter { var gain = 2; fn apply(x) { work(200); return x * this.gain; } }
        fn main() {
            var f1 = new Filter();
            var f2 = new Filter();
            var out = [];
            foreach (x in range(0, 8)) {
                var a = f1.apply(x);
                var b = f2.apply(a);
                out.add(b);
            }
            print(len(out));
        }
    "#;

    fn detect(src: &str) -> (SemanticModel, PatternInstance) {
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let l = m.loops[0].clone();
        let inst = detect_loop(&m, &l, &DetectOptions::default()).unwrap();
        (m, inst)
    }

    #[test]
    fn annotated_source_contains_regions_and_reparses() {
        let (m, inst) = detect(SRC);
        let annotated = annotate_source(&m.program, &inst).unwrap();
        assert!(annotated.contains("#region TADL:"), "{annotated}");
        assert!(annotated.contains("#region A:"));
        assert!(annotated.contains("#endregion"));
        parse(&annotated).unwrap();
    }

    #[test]
    fn annotation_preserves_program_behaviour() {
        let (m, inst) = detect(SRC);
        let annotated = annotate_source(&m.program, &inst).unwrap();
        let original = run(&m.program, InterpOptions::default()).unwrap();
        let transformed = run(&parse(&annotated).unwrap(), InterpOptions::default()).unwrap();
        assert_eq!(original.output, transformed.output);
    }

    #[test]
    fn annotations_round_trip_through_extraction() {
        let (m, inst) = detect(SRC);
        let annotated = annotate_source(&m.program, &inst).unwrap();
        let reparsed = parse(&annotated).unwrap();
        let anns = extract_annotations(&reparsed).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].expr, inst.arch.expr);
        assert_eq!(anns[0].items.len(), inst.stages.len());
    }

    #[test]
    fn mode2_engineer_annotation_builds_instance() {
        // An engineer writes the annotation manually (no detection pass).
        let src = r#"
            class F { var g = 2; fn apply(x) { work(100); return x * this.g; } }
            fn main() {
                var f = new F();
                var out = [];
                #region TADL: A+ => B
                foreach (x in range(0, 6)) {
                    #region A:
                    var v = f.apply(x);
                    #endregion
                    #region B:
                    out.add(v);
                    #endregion
                }
                #endregion
                print(len(out));
            }
        "#;
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let anns = extract_annotations(&p).unwrap();
        assert_eq!(anns.len(), 1);
        let inst = instance_from_annotation(&m, &anns[0]).unwrap();
        assert_eq!(inst.arch.expr.to_string(), "A+ => B");
        assert_eq!(inst.stages.len(), 2);
        assert!(inst.stages[0].replicable);
        // tuning parameters generated automatically from the annotation
        assert!(inst.tuning.params.iter().any(|p| p.name.ends_with("A.replication")));
        assert!(inst.tuning.params.iter().any(|p| p.name.ends_with("sequential")));
        assert_eq!(inst.arch.stream_length, 6);
    }

    #[test]
    fn missing_item_region_is_an_error() {
        let src = r#"
            fn main() {
                #region TADL: A => B
                foreach (x in range(0, 3)) {
                    #region A:
                    var v = x;
                    #endregion
                    print(v);
                }
                #endregion
            }
        "#;
        let p = parse(src).unwrap();
        let err = extract_annotations(&p).unwrap_err();
        assert!(err.contains("`B`"), "{err}");
    }

    #[test]
    fn tadl_region_without_loop_is_an_error() {
        let src = "fn main() {\n#region TADL: A => B\nvar x = 1;\n#endregion\n}";
        let p = parse(src).unwrap();
        assert!(extract_annotations(&p).unwrap_err().contains("no loop"));
    }
}
