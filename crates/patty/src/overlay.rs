//! Terminal rendering of pattern overlays.
//!
//! The IDE plugin draws color marks over the code annotations so "the
//! engineer's attention is directly drawn to the detected parallel
//! architecture" (Section 3, R1, Fig. 4b). The CLI equivalent prefixes
//! each source line with the stage it belongs to and summarizes the
//! architecture above the loop.

use patty_patterns::PatternInstance;
use patty_minilang::Program;

/// Render `source` with the instance's stages marked line by line.
pub fn render_overlay(program: &Program, instance: &PatternInstance) -> String {
    let source = &program.source;
    // line → stage marker
    let mut markers: Vec<Option<String>> = vec![None; source.lines().count() + 2];
    for stage in &instance.stages {
        for stmt_id in &stage.stmts {
            if let Some(stmt) = program.find_stmt(*stmt_id) {
                let line = stmt.span.line as usize;
                if line < markers.len() {
                    let suffix = if stage.replicable { "+" } else { "" };
                    markers[line] = Some(format!("{}{}", stage.name, suffix));
                }
            }
        }
    }
    let loop_line = program
        .find_stmt(instance.loop_id)
        .map(|s| s.span.line as usize)
        .unwrap_or(0);

    let mut out = String::new();
    for (i, line) in source.lines().enumerate() {
        let lineno = i + 1;
        if lineno == loop_line {
            out.push_str(&format!(
                "      ┌─ {} :: {}\n",
                instance.arch.kind, instance.arch.expr
            ));
        }
        let mark = markers
            .get(lineno)
            .and_then(|m| m.clone())
            .map(|m| format!("[{m:>2}]"))
            .unwrap_or_else(|| "    ".to_string());
        out.push_str(&format!("{mark} {lineno:>3} | {line}\n"));
    }
    out
}

/// The phases of the process chart (Fig. 1 / Fig. 4a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    ModelCreation,
    PatternAnalysis,
    TunableArchitecture,
    CodeTransform,
}

impl Phase {
    /// All phases in process order.
    pub const ALL: [Phase; 4] = [
        Phase::ModelCreation,
        Phase::PatternAnalysis,
        Phase::TunableArchitecture,
        Phase::CodeTransform,
    ];

    fn title(self) -> &'static str {
        match self {
            Phase::ModelCreation => "1. Model Creation",
            Phase::PatternAnalysis => "2. Pattern Analysis",
            Phase::TunableArchitecture => "3. Tunable Architecture",
            Phase::CodeTransform => "4. Code Transform",
        }
    }

    fn artifact(self) -> &'static str {
        match self {
            Phase::ModelCreation => "semantic model",
            Phase::PatternAnalysis => "pattern instances + tuning params",
            Phase::TunableArchitecture => "TADL annotations + architecture descriptions",
            Phase::CodeTransform => "parallel code + tuning file + unit tests",
        }
    }
}

/// Render the process chart with the current phase highlighted — the
/// CLI's version of Fig. 4a ("The process chart always highlights the
/// current state of processing, its input and output data").
pub fn render_process_chart(current: Phase) -> String {
    let mut out = String::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let marker = match (*phase).cmp(&current) {
            std::cmp::Ordering::Less => "✔",
            std::cmp::Ordering::Equal => "▶",
            std::cmp::Ordering::Greater => " ",
        };
        out.push_str(&format!("{marker} {:<24} → {}\n", phase.title(), phase.artifact()));
        if i + 1 < Phase::ALL.len() {
            out.push_str("  │\n");
        }
    }
    out
}

/// One-line candidate list (the wizard's result view).
pub fn render_candidates(instances: &[PatternInstance]) -> String {
    let mut out = String::new();
    for (i, inst) in instances.iter().enumerate() {
        out.push_str(&format!("{:>2}. {}\n", i + 1, inst.summary()));
    }
    if instances.is_empty() {
        out.push_str("no parallelization candidates found\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_analysis::SemanticModel;
    use patty_minilang::{parse, InterpOptions};
    use patty_patterns::{detect_loop, DetectOptions};

    #[test]
    fn overlay_marks_stage_lines() {
        let src = "class F { var g = 2; fn apply(x) { work(90); return x * this.g; } }\nfn main() {\n    var f = new F();\n    var out = [];\n    foreach (x in range(0, 6)) {\n        var a = f.apply(x);\n        out.add(a);\n    }\n    print(len(out));\n}\n";
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let inst = detect_loop(&m, &m.loops[0].clone(), &DetectOptions::default()).unwrap();
        let overlay = render_overlay(&m.program, &inst);
        assert!(overlay.contains("[A+]") || overlay.contains("[ A]"), "{overlay}");
        assert!(overlay.contains("Pipeline ::"), "{overlay}");
        assert!(overlay.contains("var a = f.apply(x);"));
    }

    #[test]
    fn process_chart_highlights_current_phase() {
        let chart = render_overlay_chart_for_test();
        assert!(chart.contains("✔ 1. Model Creation"));
        assert!(chart.contains("▶ 3. Tunable Architecture"));
        assert!(chart.contains("  4. Code Transform"));
    }

    fn render_overlay_chart_for_test() -> String {
        render_process_chart(Phase::TunableArchitecture)
    }

    #[test]
    fn candidate_list_renders() {
        let src = "class F { var g = 2; fn apply(x) { work(90); return x * this.g; } }\nfn main() { var f = new F(); var out = []; foreach (x in range(0, 6)) { var a = f.apply(x); out.add(a); } print(len(out)); }";
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let insts = patty_patterns::detect_patterns(&m, &DetectOptions::default());
        let listing = render_candidates(&insts);
        assert!(listing.contains("1. Pipeline"));
        assert!(render_candidates(&[]).contains("no parallelization candidates"));
    }
}
