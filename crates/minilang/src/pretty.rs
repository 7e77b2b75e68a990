//! Pretty-printer: AST back to source text.
//!
//! The transformation phase rewrites programs by rebuilding ASTs and
//! printing them, so the printer must produce text that re-parses to an
//! equivalent program (round-trip property, checked by tests and a
//! proptest-style generator in the crate tests).

use crate::ast::*;
use std::fmt::Write;

/// Render a whole program as source text: every class, then every free
/// function, each exactly as [`print_class`] / [`print_func`] render it.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for c in &p.classes {
        out.push_str(&print_class(c));
    }
    for f in &p.funcs {
        out.push_str(&print_func(f));
    }
    out
}

/// Render one top-level class declaration, separator line included.
pub fn print_class(c: &ClassDecl) -> String {
    let mut out = String::new();
    write_class(&mut out, c);
    out.push('\n');
    out
}

/// Render one top-level function declaration, separator line included.
pub fn print_func(f: &FuncDecl) -> String {
    let mut out = String::new();
    write_func(&mut out, f, 0);
    out.push('\n');
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_class(out: &mut String, c: &ClassDecl) {
    let _ = writeln!(out, "class {} {{", c.name);
    for f in &c.fields {
        indent(out, 1);
        match &f.init {
            Some(e) => {
                let _ = writeln!(out, "var {} = {};", f.name, print_expr(e));
            }
            None => {
                let _ = writeln!(out, "var {} = null;", f.name);
            }
        }
    }
    for m in &c.methods {
        write_func(out, m, 1);
    }
    out.push_str("}\n");
}

fn write_func(out: &mut String, f: &FuncDecl, level: usize) {
    indent(out, level);
    let _ = write!(out, "fn {}({})", f.name, f.params.join(", "));
    out.push(' ');
    print_block(out, &f.body, level);
    out.push('\n');
}

/// Render a block at the given indentation level.
pub(crate) fn print_block(out: &mut String, b: &Block, level: usize) {
    out.push_str("{\n");
    for s in &b.stmts {
        print_stmt(out, s, level + 1);
    }
    indent(out, level);
    out.push('}');
}

/// Render a single statement (with trailing newline) at an indent level.
pub fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    match &s.kind {
        StmtKind::VarDecl { name, init } => {
            indent(out, level);
            let _ = writeln!(out, "var {} = {};", name, print_expr(init));
        }
        StmtKind::Assign { target, op, value } => {
            indent(out, level);
            let opstr = match op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
            };
            let _ = writeln!(out, "{} {} {};", print_lvalue(target), opstr, print_expr(value));
        }
        StmtKind::Expr(e) => {
            indent(out, level);
            let _ = writeln!(out, "{};", print_expr(e));
        }
        StmtKind::If { cond, then_blk, else_blk } => {
            indent(out, level);
            let _ = write!(out, "if ({}) ", print_expr(cond));
            print_block(out, then_blk, level);
            if let Some(e) = else_blk {
                out.push_str(" else ");
                print_block(out, e, level);
            }
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            indent(out, level);
            let _ = write!(out, "while ({}) ", print_expr(cond));
            print_block(out, body, level);
            out.push('\n');
        }
        StmtKind::For { init, cond, update, body } => {
            indent(out, level);
            out.push_str("for (");
            if let Some(i) = init {
                out.push_str(print_simple_stmt(i).trim_end_matches('\n'));
            }
            out.push_str("; ");
            if let Some(c) = cond {
                out.push_str(&print_expr(c));
            }
            out.push_str("; ");
            if let Some(u) = update {
                out.push_str(print_simple_stmt(u).trim_end_matches('\n'));
            }
            out.push_str(") ");
            print_block(out, body, level);
            out.push('\n');
        }
        StmtKind::Foreach { var, iter, body } => {
            indent(out, level);
            let _ = write!(out, "foreach ({} in {}) ", var, print_expr(iter));
            print_block(out, body, level);
            out.push('\n');
        }
        StmtKind::Break => {
            indent(out, level);
            out.push_str("break;\n");
        }
        StmtKind::Continue => {
            indent(out, level);
            out.push_str("continue;\n");
        }
        StmtKind::Return(v) => {
            indent(out, level);
            match v {
                Some(e) => {
                    let _ = writeln!(out, "return {};", print_expr(e));
                }
                None => out.push_str("return;\n"),
            }
        }
        StmtKind::Block(b) => {
            indent(out, level);
            print_block(out, b, level);
            out.push('\n');
        }
        StmtKind::Region { label, body } => {
            indent(out, level);
            let _ = writeln!(out, "#region {label}");
            for inner in &body.stmts {
                print_stmt(out, inner, level);
            }
            indent(out, level);
            out.push_str("#endregion\n");
        }
    }
}

/// Render a statement without indentation or trailing newline, for `for`
/// headers (only var-decls, assignments and expressions appear there).
fn print_simple_stmt(s: &Stmt) -> String {
    match &s.kind {
        StmtKind::VarDecl { name, init } => format!("var {} = {}", name, print_expr(init)),
        StmtKind::Assign { target, op, value } => {
            let opstr = match op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
            };
            format!("{} {} {}", print_lvalue(target), opstr, print_expr(value))
        }
        StmtKind::Expr(e) => print_expr(e),
        _ => String::new(),
    }
}

fn print_lvalue(lv: &LValue) -> String {
    match &lv.kind {
        LValueKind::Var(name) => name.clone(),
        LValueKind::Field { base, field } => format!("{}.{}", print_expr(base), field),
        LValueKind::Index { base, index } => {
            format!("{}[{}]", print_expr(base), print_expr(index))
        }
    }
}

/// Render an expression.
pub(crate) fn print_expr(e: &Expr) -> String {
    print_expr_prec(e, 0)
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn print_expr_prec(e: &Expr, min_prec: u8) -> String {
    match &e.kind {
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Float(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        ExprKind::Str(s) => print_str(s),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Null => "null".to_string(),
        ExprKind::Var(name) => name.clone(),
        ExprKind::Unary { op, expr } => {
            let inner = print_expr_prec(expr, 6);
            match op {
                UnOp::Neg => format!("-{inner}"),
                UnOp::Not => format!("!{inner}"),
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let prec = bin_prec(*op);
            let s = format!(
                "{} {} {}",
                print_expr_prec(lhs, prec),
                bin_str(*op),
                // left-assoc: rhs needs strictly higher precedence
                print_expr_prec(rhs, prec + 1)
            );
            if prec < min_prec {
                format!("({s})")
            } else {
                s
            }
        }
        ExprKind::Field { base, field } => {
            format!("{}.{}", print_expr_prec(base, 7), field)
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", print_expr_prec(base, 7), print_expr(index))
        }
        ExprKind::Call { callee, args } => {
            format!("{}({})", callee, print_args(args))
        }
        ExprKind::MethodCall { base, method, args } => {
            format!("{}.{}({})", print_expr_prec(base, 7), method, print_args(args))
        }
        ExprKind::New { class, args } => format!("new {}({})", class, print_args(args)),
        ExprKind::ListLit(items) => format!("[{}]", print_args(items)),
    }
}

/// A string literal as the lexer reads it back: minilang escapes only
/// `"`, `\`, newline and tab, and every other char is written as is.
fn print_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_args(args: &[Expr]) -> String {
    args.iter().map(print_expr).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, InterpOptions};
    use crate::parser::parse;

    /// Round-trip: parse → print → parse → print must be a fixpoint, and
    /// both versions must behave identically.
    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap_or_else(|e| panic!("parse 1: {e}\n{src}"));
        let s1 = print_program(&p1);
        let p2 = parse(&s1).unwrap_or_else(|e| panic!("parse 2: {e}\n{s1}"));
        let s2 = print_program(&p2);
        assert_eq!(s1, s2, "printer not a fixpoint");
        let o1 = run(&p1, InterpOptions::default());
        let o2 = run(&p2, InterpOptions::default());
        match (o1, o2) {
            (Ok(a), Ok(b)) => assert_eq!(a.output, b.output),
            (Err(a), Err(b)) => assert_eq!(a.message, b.message),
            (a, b) => panic!("behaviour diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn round_trips_string_literals_as_written() {
        // Non-ASCII text, and chars Rust's `{:?}` would escape in a way
        // the lexer does not read: a carriage return, a control char, a
        // zero-width space and a combining accent.
        let literal = "\u{e9}t\u{e9} \u{65e5}\u{672c} \u{1f600} \r \u{1} \u{200b} \u{301}";
        let src = format!("fn main() {{ print(\"{literal} \\\" \\\\ \\n \\t\"); }}");
        round_trip(&src);
        let printed = print_program(&parse(&src).unwrap());
        assert!(printed.contains(&format!("print(\"{literal} \\\" \\\\ \\n \\t\")")), "{printed}");
    }

    #[test]
    fn round_trips_expressions() {
        round_trip("fn main() { print(1 + 2 * 3 - (4 + 5) * 6); print((1 + 2) * 3); }");
    }

    #[test]
    fn round_trips_precedence_edge_cases() {
        round_trip("fn main() { print(1 - (2 - 3)); print(10 / (5 / 5)); print(-(1 + 2)); }");
        round_trip("fn main() { print(true || false && false); print((true || false) && false); }");
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            "fn main() { var s = 0; for (var i = 0; i < 9; i = i + 1) { if (i % 3 == 0) { continue; } else { s += i; } } while (s > 20) { s -= 10; break; } print(s); }",
        );
    }

    #[test]
    fn round_trips_classes_and_calls() {
        round_trip(
            r#"
            class Acc { var total = 0; fn add(v) { this.total += v; return this.total; } }
            fn main() {
                var a = new Acc();
                foreach (i in range(0, 5)) { a.add(i * 2); }
                print(a.total);
            }
            "#,
        );
    }

    #[test]
    fn round_trips_regions() {
        round_trip("fn main() {\n#region TADL: A => B\n#region A:\nvar x = 1;\n#endregion\n#region B:\nprint(x);\n#endregion\n#endregion\n}");
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        round_trip(r#"fn main() { print("a\"b\nc"); }"#);
    }

    #[test]
    fn round_trips_lists_and_indexing() {
        round_trip("fn main() { var m = [[1, 2], [3, 4]]; m[0][1] = m[1][0] * 7; print(m[0][1]); }");
    }
}
