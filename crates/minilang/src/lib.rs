//! # patty-minilang
//!
//! The object-oriented source language Patty analyses and rewrites.
//!
//! The PMAM'15 paper implements Patty on top of the C# tool chain inside
//! Visual Studio; this crate is the substitute front end: a small
//! imperative, object-oriented language ("minilang") with
//!
//! * a lexer and recursive-descent parser that also understand the
//!   `#region` / `#endregion` preprocessor directives the paper uses to
//!   embed TADL annotations (Fig. 3b),
//! * a span- and id-carrying AST whose statements are the granularity at
//!   which patterns are detected and stages are formed,
//! * a tree-walking interpreter that doubles as the paper's *dynamic
//!   analysis*: it produces a [`profile::Profile`] with per-statement
//!   runtime shares, observed call edges and exact per-loop access traces,
//! * a pretty-printer so transformed programs are real source text again.
//!
//! ```
//! use patty_minilang::{parse, run, InterpOptions};
//!
//! let program = parse("fn main() { var s = 0; foreach (i in range(0, 5)) { s += i; } print(s); }").unwrap();
//! let outcome = run(&program, InterpOptions::default()).unwrap();
//! assert_eq!(outcome.output, vec!["10"]);
//! assert!(outcome.profile.total_cost > 0);
//! ```

pub mod ast;
mod builtins;
pub mod bytecode;
pub mod error;
pub mod fuse;
pub(crate) mod fxhash;
pub mod interp;
pub mod parser;
pub mod pretty;
pub mod profile;
pub mod resolve;
pub mod span;
pub mod token;
pub mod value;
pub mod vm;

pub use ast::{Block, ClassDecl, Expr, ExprKind, FuncDecl, Program, Stmt, StmtKind};
pub use bytecode::CompiledProgram;
pub use error::LangError;
pub use fuse::{compile_fused, OpCounts};
pub use interp::{run, run_func, Engine, InterpOptions, Outcome};
pub use parser::parse;
pub use pretty::print_program;
pub use profile::{AccessKind, CarriedDep, DepKind, DynLoc, LoopTrace, Profile};
pub use span::{NodeId, Span};
pub use value::Value;
