//! The multi-domain benchmark corpus (Section 5: "a set of benchmark
//! tools from different application domains"), each program carrying
//! ground-truth labels of which loops are appropriate candidates for
//! parallel execution.
//!
//! The corpus deliberately contains all four confusion-matrix cases for
//! the detector: clean hits, true rejections (carried dependencies,
//! control flow, shared-state traps), *misses* (loops a human would
//! parallelize after privatizing an accumulator or restructuring — the
//! optimistic detector keeps the dependence), and *false alarms* (loops
//! whose conflict lies beyond the traced iteration prefix, the inherent
//! blind spot of dynamic analysis the paper concedes in Section 6).

/// The AviStream video-processing program of Fig. 3.
pub const AVISTREAM: &str = r#"
class Filter {
    var gain = 2;
    var cost = 300;
    fn init(g, c) { this.gain = g; this.cost = c; }
    fn apply(x) { work(this.cost); return x * this.gain % 251; }
}
class Converter {
    fn apply(a, b, c) { work(60); return (a + b + c) % 256; }
}
fn main() {
    var cropFilter = new Filter(3, 300);
    var histogramFilter = new Filter(5, 280);
    var oilFilter = new Filter(7, 620);
    var convTo32bpp = new Converter();
    var aviIn = range(0, 24);
    var aviOut = [];
    foreach (i in aviIn) {
        var c = cropFilter.apply(i);
        var h = histogramFilter.apply(i);
        var o = oilFilter.apply(i);
        var r = convTo32bpp.apply(c, h, o);
        aviOut.add(r);
    }
    print(len(aviOut), aviOut[0], aviOut[23]);
}
"#;

/// Desktop-search index generator (Meder & Tichy, ref. \[28\]).
pub(crate) const DESKTOP_SEARCH: &str = r#"
class Tokenizer {
    var sep = " ";
    fn split(doc) { work(120); return doc.split(this.sep); }
}
class StopwordFilter {
    var stop = "the";
    fn filter(tokens) {
        work(80);
        var kept = [];
        foreach (t in tokens) {
            if (t != this.stop) { kept.add(t); }
        }
        return kept;
    }
}
class Index {
    var entries = [];
    fn add(tokens) { foreach (t in tokens) { this.entries.add(t); } }
}
fn makeDoc(i) {
    return "doc" + i + " has the word w" + (i % 5) + " and the tail t" + i;
}
fn main() {
    var docs = [];
    var i = 0;
    while (i < 16) {
        docs.add(makeDoc(i));
        i = i + 1;
    }
    var tokenizer = new Tokenizer();
    var stopwords = new StopwordFilter();
    var index = new Index();
    foreach (d in docs) {
        var toks = tokenizer.split(d);
        var kept = stopwords.filter(toks);
        index.add(kept);
    }
    var hits = 0;
    foreach (e in index.entries) {
        if (e == "w3") {
            hits += 1;
            if (hits > 2) { break; }
        }
    }
    print(len(index.entries), hits);
}
"#;

/// Dense matrix multiplication.
pub(crate) const MATMUL: &str = r#"
fn cell(a, b, i, j, n) {
    var sum = 0;
    for (var k = 0; k < n; k = k + 1) {
        sum += a[i * n + k] * b[k * n + j];
    }
    return sum;
}
fn mulRow(a, b, i, n) {
    var row = [];
    for (var j = 0; j < n; j = j + 1) {
        row.add(cell(a, b, i, j, n));
    }
    return row;
}
fn main() {
    var n = 6;
    var a = [];
    var b = [];
    for (var i = 0; i < 36; i = i + 1) {
        a.add(i % 7);
        b.add(i % 5);
    }
    var c = [0, 0, 0, 0, 0, 0];
    for (var i = 0; i < 6; i = i + 1) {
        c[i] = mulRow(a, b, i, n);
    }
    var trace = 0;
    for (var i = 0; i < 6; i = i + 1) {
        trace += c[i][i];
    }
    print(trace);
}
"#;

/// Word statistics over a token stream.
pub(crate) const WORDSTATS: &str = r#"
class Counters {
    var buckets = [0, 0, 0, 0, 0, 0, 0, 0];
    fn bump(t) {
        var b = t.len() % 8;
        this.buckets[b] = this.buckets[b] + 1;
    }
}
fn weigh(t) { work(40); return t.len() * 3 + 1; }
fn main() {
    var words = "alpha beta gamma delta epsilon zeta eta theta iota kappa la mu".split(" ");
    var counters = new Counters();
    foreach (w in words) {
        counters.bump(w);
    }
    var total = 0;
    foreach (w in words) {
        total += weigh(w);
    }
    var a = [1, 5, 2, 9, 4, 7, 3, 8, 0, 6, 2, 4];
    var b = [4, 2, 8, 1, 6, 3, 9, 2, 5, 1, 7, 0];
    var mins = [];
    for (var i = 0; i < 12; i = i + 1) {
        mins.add(min(a[i], b[i]));
    }
    print(total, counters.buckets[1], mins[3]);
}
"#;

/// A ring-buffer cache simulation — the dynamic analysis' blind spot:
/// conflicts appear only beyond the traced iteration prefix.
pub(crate) const RINGBUFFER: &str = r#"
fn main() {
    var ring = [];
    for (var i = 0; i < 30; i = i + 1) {
        ring.add(0);
    }
    var hits = [];
    for (var i = 0; i < 30; i = i + 1) {
        hits.add(0);
    }
    // Writes wrap around after 30 iterations: iterations 30..39 collide
    // with 0..9, far beyond the traced prefix.
    for (var i = 0; i < 40; i = i + 1) {
        ring[i % 30] = i * 2;
    }
    // The shared total is only touched after iteration 25 — also
    // invisible in the traced prefix.
    var lateTotal = 0;
    for (var i = 0; i < 40; i = i + 1) {
        if (i > 25) { lateTotal = lateTotal + ring[i % 30]; }
        hits[i % 30] = i;
    }
    print(ring[5], lateTotal, hits[3]);
}
"#;

/// N-body simulation step.
pub(crate) const NBODY: &str = r#"
class Body {
    var pos = 0;
    var vel = 0;
    var mass = 1;
    fn init(p, v, m) { this.pos = p; this.vel = v; this.mass = m; }
}
fn force(bodies, i, n) {
    work(80);
    var f = 0;
    for (var j = 0; j < n; j = j + 1) {
        if (j != i) {
            var d = bodies[j].pos - bodies[i].pos;
            if (d != 0) { f += bodies[j].mass * d; }
        }
    }
    return f;
}
fn main() {
    var n = 8;
    var bodies = [];
    for (var i = 0; i < 8; i = i + 1) {
        bodies.add(new Body(i * 10, 8 - i, 1 + i % 3));
    }
    var forces = [0, 0, 0, 0, 0, 0, 0, 0];
    for (var i = 0; i < 8; i = i + 1) {
        forces[i] = force(bodies, i, n);
    }
    for (var i = 0; i < 8; i = i + 1) {
        bodies[i].vel = bodies[i].vel + forces[i] / 100;
    }
    var momentum = 0;
    for (var i = 0; i < 8; i = i + 1) {
        momentum += bodies[i].vel * bodies[i].mass;
    }
    var collided = 0;
    for (var i = 0; i < 7; i = i + 1) {
        if (abs(bodies[i].pos - bodies[i + 1].pos) < 2) {
            collided = 1;
            break;
        }
    }
    print(forces[0], momentum, collided);
}
"#;

/// Image convolution pipeline with an in-place smoothing pass whose
/// element conflict *is* visible in the traced prefix.
pub(crate) const IMAGEPIPE: &str = r#"
class Blur {
    var radius = 1;
    fn apply(v) { work(150); return (v * 3 + this.radius) % 255; }
}
class Sharpen {
    var amount = 2;
    fn apply(v) { work(90); return (v * this.amount + 1) % 255; }
}
fn main() {
    var img = [];
    for (var i = 0; i < 20; i = i + 1) {
        img.add(i * 11 % 200);
    }
    var blur = new Blur();
    var sharpen = new Sharpen();
    var out = [];
    foreach (p in img) {
        var b = blur.apply(p);
        var s = sharpen.apply(b);
        out.add(s);
    }
    // In-place prefix smoothing: reads the element written by the
    // previous iteration (a real carried dependence the dynamic trace
    // observes immediately).
    for (var i = 1; i < 20; i = i + 1) {
        out[i] = (out[i - 1] + out[i]) / 2;
    }
    print(out[0], out[19]);
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::{parse, run, InterpOptions};

    #[test]
    fn all_sources_parse_and_run() {
        for (name, src) in [
            ("avistream", AVISTREAM),
            ("desktop_search", DESKTOP_SEARCH),
            ("matmul", MATMUL),
            ("wordstats", WORDSTATS),
            ("ringbuffer", RINGBUFFER),
            ("nbody", NBODY),
            ("imagepipe", IMAGEPIPE),
        ] {
            let p = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = run(&p, InterpOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.output.is_empty(), "{name} must print");
        }
    }

    #[test]
    fn avistream_output_is_deterministic() {
        let p = parse(AVISTREAM).unwrap();
        let a = run(&p, InterpOptions::default()).unwrap();
        let b = run(&p, InterpOptions::default()).unwrap();
        assert_eq!(a.output, b.output);
        assert!(a.output[0].starts_with("24 "));
    }

    #[test]
    fn matmul_trace_is_correct() {
        let p = parse(MATMUL).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        // reference value computed by the sequential semantics
        let n = 6i64;
        let a: Vec<i64> = (0..36).map(|i| i % 7).collect();
        let b: Vec<i64> = (0..36).map(|i| i % 5).collect();
        let mut trace = 0;
        for i in 0..n {
            let mut sum = 0;
            for k in 0..n {
                sum += a[(i * n + k) as usize] * b[(k * n + i) as usize];
            }
            trace += sum;
        }
        assert_eq!(out.output[0], trace.to_string());
    }
}
