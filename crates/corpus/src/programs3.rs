//! Corpus extension, batch 3: graph, sorting, numeric and text domains.

/// Breadth-first distance labeling on a small graph. Frontier expansion
/// mutates shared `dist`/frontier state — a classic "looks parallel"
/// workload whose per-level inner loop carries real conflicts through
/// `dist`, while the edge-weight audit below is a clean reduction.
pub(crate) const GRAPH_BFS: &str = r#"
class Graph {
    var adj = [];
    fn init(n) {
        for (var i = 0; i < n; i = i + 1) {
            this.adj.add([]);
        }
    }
    fn edge(a, b) {
        this.adj[a].add(b);
        this.adj[b].add(a);
    }
}
fn main() {
    var n = 10;
    var g = new Graph(n);
    for (var i = 0; i < 9; i = i + 1) {
        g.edge(i, i + 1);
    }
    g.edge(0, 5);
    g.edge(2, 7);

    var dist = [];
    for (var i = 0; i < 10; i = i + 1) {
        dist.add(0 - 1);
    }
    dist[0] = 0;
    var frontier = [0];
    var level = 0;
    while (len(frontier) > 0) {
        var next = [];
        foreach (u in frontier) {
            foreach (v in g.adj[u]) {
                if (dist[v] < 0) {
                    dist[v] = level + 1;
                    next.add(v);
                }
            }
        }
        frontier = next;
        level = level + 1;
    }

    // audit: total distance (clean reduction)
    var total = 0;
    foreach (d in dist) {
        total += d;
    }
    print(level, total);
}
"#;

/// Prime sieve plus per-number primality audit: the sieve writes overlap
/// (multiples), the audit is pointwise independent.
pub(crate) const PRIMES: &str = r#"
fn isPrime(n) {
    work(20);
    if (n < 2) { return 0; }
    for (var d = 2; d * d <= n; d = d + 1) {
        if (n % d == 0) { return 0; }
    }
    return 1;
}
fn main() {
    var limit = 40;
    var mark = [];
    for (var i = 0; i < 41; i = i + 1) {
        mark.add(1);
    }
    mark[0] = 0;
    mark[1] = 0;
    // sieve: writes to shared multiples (overlapping strides)
    for (var p = 2; p * p <= limit; p = p + 1) {
        if (mark[p] == 1) {
            for (var m = p * p; m <= limit; m = m + p) {
                mark[m] = 0;
            }
        }
    }
    // pointwise audit (parallel)
    var flags = [];
    for (var i = 0; i < 41; i = i + 1) {
        flags.add(0);
    }
    for (var i = 0; i < 41; i = i + 1) {
        flags[i] = isPrime(i);
    }
    var agreed = 0;
    for (var i = 0; i < 41; i = i + 1) {
        if (flags[i] == mark[i]) { agreed += 1; }
    }
    print(agreed);
}
"#;

/// Polynomial evaluation over a point grid (Horner inside, pointwise
/// outside) and a derivative check.
pub(crate) const POLYEVAL: &str = r#"
class Poly {
    var coeffs = [];
    fn init(cs) { this.coeffs = cs; }
    fn eval(x) {
        work(30);
        var acc = 0;
        foreach (c in this.coeffs) {
            acc = acc * x + c;
        }
        return acc;
    }
}
fn main() {
    var p = new Poly([2, 0, 0 - 3, 1]);
    var ys = [];
    for (var i = 0; i < 16; i = i + 1) {
        ys.add(0);
    }
    // pointwise evaluation (parallel)
    for (var i = 0; i < 16; i = i + 1) {
        ys[i] = p.eval(i - 8);
    }
    // forward differences: reads neighbour written the iteration before
    var diffs = [];
    for (var i = 0; i < 16; i = i + 1) {
        diffs.add(0);
    }
    for (var i = 1; i < 16; i = i + 1) {
        diffs[i] = ys[i] - ys[i - 1];
    }
    var sum = 0;
    foreach (d in diffs) {
        sum += d;
    }
    print(ys[0], ys[15], sum);
}
"#;

/// Moving-average smoothing of a sensor series: window reads only the
/// input (parallel); the cumulative drift is a scan (sequential).
pub(crate) const SENSOR_SMOOTH: &str = r#"
fn window(series, i) {
    work(25);
    var lo = max(0, i - 2);
    var hi = min(len(series) - 1, i + 2);
    var acc = 0;
    var count = 0;
    for (var k = lo; k <= hi; k = k + 1) {
        acc += series[k];
        count += 1;
    }
    return acc / count;
}
fn main() {
    var series = [];
    for (var i = 0; i < 32; i = i + 1) {
        series.add((i * 23 + 11) % 97);
    }
    var smooth = [];
    for (var i = 0; i < 32; i = i + 1) {
        smooth.add(0);
    }
    // windowed smoothing: reads input only (parallel)
    for (var i = 0; i < 32; i = i + 1) {
        smooth[i] = window(series, i);
    }
    // cumulative drift: a prefix scan (sequential)
    var drift = 0;
    var maxDrift = 0;
    for (var i = 0; i < 32; i = i + 1) {
        drift = drift + series[i] - smooth[i];
        maxDrift = max(maxDrift, abs(drift));
    }
    print(smooth[0], smooth[31], maxDrift);
}
"#;

/// Matrix transpose and symmetric check — disjoint index writes vs a
/// reduction over pairs.
pub(crate) const TRANSPOSE: &str = r#"
fn idx(r, c, n) { return r * n + c; }
fn main() {
    var n = 8;
    var m = [];
    for (var i = 0; i < 64; i = i + 1) {
        m.add((i * 7 + 3) % 29);
    }
    var t = [];
    for (var i = 0; i < 64; i = i + 1) {
        t.add(0);
    }
    // transpose: each output cell written once (parallel)
    for (var i = 0; i < 64; i = i + 1) {
        t[i] = m[idx(i % n, i / n, n)];
    }
    // asymmetry measure: reduction
    var asym = 0;
    for (var i = 0; i < 64; i = i + 1) {
        asym += abs(m[i] - t[i]);
    }
    print(asym);
}
"#;

/// Tiny expression tokenizer: the scanner is a stateful character walk
/// (sequential), token classification afterwards is pointwise.
pub(crate) const TOKENIZER: &str = r#"
fn classify(tok) {
    work(35);
    if (tok == "+" || tok == "*" || tok == "-") { return 1; }
    if (tok == "(" || tok == ")") { return 2; }
    return 0;
}
fn main() {
    var text = "12 + ( 34 * 5 ) - 678";
    var toks = text.split(" ");
    var kinds = [];
    for (var i = 0; i < len(toks); i = i + 1) {
        kinds.add(0);
    }
    // pointwise classification (parallel)
    for (var i = 0; i < len(toks); i = i + 1) {
        kinds[i] = classify(toks[i]);
    }
    // paren balance: stateful scan (sequential)
    var depth = 0;
    var balanced = 1;
    foreach (t in toks) {
        if (t == "(") { depth = depth + 1; }
        if (t == ")") {
            depth = depth - 1;
            if (depth < 0) { balanced = 0; }
        }
    }
    if (depth != 0) { balanced = 0; }
    var operators = 0;
    foreach (k in kinds) {
        if (k == 1) { operators += 1; }
    }
    print(balanced, operators);
}
"#;

#[cfg(test)]
mod tests {
    use patty_minilang::{parse, run, InterpOptions};

    #[test]
    fn batch3_programs_parse_and_run() {
        for (name, src) in [
            ("graph_bfs", super::GRAPH_BFS),
            ("primes", super::PRIMES),
            ("polyeval", super::POLYEVAL),
            ("sensor_smooth", super::SENSOR_SMOOTH),
            ("transpose", super::TRANSPOSE),
            ("tokenizer", super::TOKENIZER),
        ] {
            let p = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = run(&p, InterpOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.output.is_empty(), "{name} must print");
        }
    }

    #[test]
    fn primes_audit_agrees_with_sieve() {
        let p = parse(super::PRIMES).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        assert_eq!(out.output[0], "41", "sieve and trial division must agree");
    }

    #[test]
    fn transpose_of_transpose_detects_asymmetry() {
        let p = parse(super::TRANSPOSE).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        let asym: i64 = out.output[0].parse().unwrap();
        assert!(asym > 0, "the matrix is not symmetric");
    }

    #[test]
    fn tokenizer_finds_balance_and_operators() {
        let p = parse(super::TOKENIZER).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        assert_eq!(out.output[0], "1 3");
    }
}
