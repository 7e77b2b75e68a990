//! Regenerates **Figure 3** — the four phase artifacts of pattern-based
//! parallelization on the AviStream program:
//!
//! a) sequential source code,
//! b) annotated sequential source code (TADL regions),
//! c) tuning parameter configuration,
//! d) parallel source code (runtime library instantiation).

use patty_corpus::avistream_program;
use patty_tool::Patty;

fn main() {
    let program = avistream_program();
    let patty = Patty::new();
    let run = patty.run_automatic(program.source).expect("avistream runs");
    let a = &run.artifacts[0];
    let annotated = patty.annotate(&run).expect("avistream annotates");

    println!("== Figure 3a — Sequential Source Code ==\n{}", program.source.trim());
    println!("\n== Figure 3b — Annotated Sequential Source Code ==\n{}", annotated[0].trim());
    println!("\n== Figure 3c — Tuning Parameter Configuration ==\n{}", a.instance.tuning.to_json());
    println!("\n== Figure 3d — Parallel Source Code ==\n{}", a.plan.code.trim());
    println!("\ndetected architecture: {}", a.arch.expr);
    println!("paper reference: (A || B || C+) => D => E with the oil filter replicable");
}
