//! Corpus extension: more application domains for the Section-5
//! detection-quality suite (the paper's suite spans 26,580 LoC of
//! benchmark tools; this module grows ours in the same spirit — every
//! program is a small but complete tool with realistic loop structures,
//! not a synthetic kernel).

/// CSV-style sales analytics: parse → filter → aggregate → report.
pub(crate) const CSV_ANALYTICS: &str = r#"
class Row {
    var region = "";
    var amount = 0;
    var year = 0;
    fn init(r, a, y) { this.region = r; this.amount = a; this.year = y; }
}
class Parser {
    var sep = ",";
    fn parse(line) {
        work(60);
        var parts = line.split(this.sep);
        return new Row(parts[0], int(parts[1]), int(parts[2]));
    }
}
class Report {
    var lines = [];
    fn emit(text) { this.lines.add(text); }
}
fn makeLine(i) {
    var region = "north";
    if (i % 3 == 1) { region = "south"; }
    if (i % 3 == 2) { region = "west"; }
    return region + "," + (i * 13 % 500) + "," + (2010 + i % 6);
}
fn main() {
    var raw = [];
    var i = 0;
    while (i < 18) {
        raw.add(makeLine(i));
        i = i + 1;
    }
    var parser = new Parser();
    var rows = [];
    // parse pipeline: hot pure parse + ordered append
    foreach (line in raw) {
        var row = parser.parse(line);
        rows.add(row);
    }
    // revenue reduction
    var revenue = 0;
    foreach (r in rows) {
        revenue += r.amount;
    }
    // running balance: true sequential chain
    var balance = 100;
    foreach (r in rows) {
        balance = balance + r.amount - balance / 10;
    }
    var report = new Report();
    foreach (r in rows) {
        if (r.year > 2012) {
            report.emit(r.region + ": " + r.amount);
        }
    }
    print(revenue, balance, len(report.lines));
}
"#;

/// Run-length compression and verification.
pub(crate) const RLE_COMPRESS: &str = r#"
fn encode(data) {
    var out = [];
    var i = 0;
    while (i < len(data)) {
        var v = data[i];
        var runLen = 1;
        while (i + runLen < len(data) && data[i + runLen] == v) {
            runLen = runLen + 1;
        }
        out.add(v);
        out.add(runLen);
        i = i + runLen;
    }
    return out;
}
fn decode(enc) {
    var out = [];
    var i = 0;
    while (i < len(enc)) {
        var v = enc[i];
        var n = enc[i + 1];
        for (var k = 0; k < n; k = k + 1) {
            out.add(v);
        }
        i = i + 2;
    }
    return out;
}
fn checksum(xs) {
    var sum = 0;
    foreach (x in xs) {
        sum += x * 7 % 1001;
    }
    return sum;
}
fn main() {
    var blocks = [];
    for (var b = 0; b < 6; b = b + 1) {
        var block = [];
        for (var i = 0; i < 24; i = i + 1) {
            block.add((i + b) / 4);
        }
        blocks.add(block);
    }
    // block-parallel encode: each block is independent
    var encoded = [0, 0, 0, 0, 0, 0];
    for (var b = 0; b < 6; b = b + 1) {
        encoded[b] = encode(blocks[b]);
    }
    var ok = 0;
    for (var b = 0; b < 6; b = b + 1) {
        if (checksum(decode(encoded[b])) == checksum(blocks[b])) {
            ok += 1;
        }
    }
    print(ok, len(encoded[0]));
}
"#;

/// Mandelbrot-style escape-time fractal over an integer grid.
pub(crate) const MANDELBROT: &str = r#"
class Plane {
    var scale = 40;
    fn escape(cx, cy) {
        work(30);
        var x = 0;
        var y = 0;
        var iter = 0;
        while (iter < 12 && x * x + y * y < 4 * this.scale * this.scale) {
            var nx = (x * x - y * y) / this.scale + cx;
            var ny = (2 * x * y) / this.scale + cy;
            x = nx;
            y = ny;
            iter = iter + 1;
        }
        return iter;
    }
}
fn main() {
    var plane = new Plane();
    var w = 12;
    var h = 8;
    var img = [];
    for (var i = 0; i < 96; i = i + 1) {
        img.add(0);
    }
    // pixel-parallel escape computation
    for (var p = 0; p < 96; p = p + 1) {
        img[p] = plane.escape(p % w - 6, p / w - 4);
    }
    var inside = 0;
    foreach (v in img) {
        if (v == 12) { inside += 1; }
    }
    print(inside, img[0], img[95]);
}
"#;

/// Monte-Carlo pi estimation: the RNG makes the draw loop inherently
/// order-sensitive (the deterministic stream must not be consumed
/// concurrently), but the counting over pre-drawn samples is parallel.
pub(crate) const MONTECARLO: &str = r#"
fn main() {
    var xs = [];
    var ys = [];
    // order-sensitive RNG consumption: not a candidate
    for (var i = 0; i < 64; i = i + 1) {
        xs.add(rand(1000));
        ys.add(rand(1000));
    }
    // hit counting over the pre-drawn samples: a reduction
    var hits = 0;
    for (var i = 0; i < 64; i = i + 1) {
        hits += inCircle(xs[i], ys[i]);
    }
    print(hits * 4 / 64);
}
fn inCircle(x, y) {
    work(15);
    var dx = x - 500;
    var dy = y - 500;
    if (dx * dx + dy * dy < 250000) { return 1; }
    return 0;
}
"#;

/// Spell checking against a dictionary: lookup pipeline plus a
/// first-match search (early exit — PLCD).
pub(crate) const SPELLCHECK: &str = r#"
class Dictionary {
    var words = [];
    fn load() {
        var base = "the cat sat on a mat with hat and bat for food".split(" ");
        foreach (w in base) {
            this.words.add(w);
        }
    }
    fn has(w) { work(45); return this.words.contains(w); }
}
fn main() {
    var dict = new Dictionary();
    dict.load();
    var text = "the cat zat on a mqt with hat and bat for fod again".split(" ");
    var flags = [];
    // check pipeline: hot dictionary probe + ordered append
    foreach (w in text) {
        var bad = 0;
        if (!dict.has(w)) { bad = 1; }
        flags.add(bad);
    }
    var errors = 0;
    foreach (f in flags) {
        errors += f;
    }
    // first misspelling (early exit)
    var firstBad = "";
    var i = 0;
    while (i < len(text)) {
        if (flags[i] == 1) {
            firstBad = text[i];
            break;
        }
        i = i + 1;
    }
    print(errors, firstBad);
}
"#;

/// One k-means iteration: assignment is pointwise parallel, the centroid
/// update accumulates into shared sums (parallel only after
/// privatization — a classic detector miss).
pub(crate) const KMEANS: &str = r#"
fn dist(a, b) { work(25); return abs(a - b); }
fn main() {
    var points = [];
    for (var i = 0; i < 30; i = i + 1) {
        points.add(i * 7 % 90);
    }
    var centroids = [10, 45, 80];
    var assign = [];
    for (var i = 0; i < 30; i = i + 1) {
        assign.add(0);
    }
    // assignment step: each point independent
    for (var i = 0; i < 30; i = i + 1) {
        assign[i] = nearest(points[i], centroids);
    }
    // update step: shared per-cluster accumulators
    var sums = [0, 0, 0];
    var counts = [0, 0, 0];
    for (var i = 0; i < 30; i = i + 1) {
        var c = assign[i];
        sums[c] = sums[c] + points[i];
        counts[c] = counts[c] + 1;
    }
    var moved = 0;
    for (var c = 0; c < 3; c = c + 1) {
        if (counts[c] > 0) {
            var next = sums[c] / counts[c];
            if (next != centroids[c]) { moved += 1; }
            centroids[c] = next;
        }
    }
    print(moved, centroids[0], centroids[1], centroids[2]);
}
fn nearest(p, centroids) {
    var best = 0;
    var bestD = dist(p, centroids[0]);
    for (var c = 1; c < 3; c = c + 1) {
        var d = dist(p, centroids[c]);
        if (d < bestD) { bestD = d; best = c; }
    }
    return best;
}
"#;

/// FIR audio filter bank: per-sample convolution is parallel over the
/// output (reads only the input window), the feedback echo is not.
pub(crate) const AUDIOFIR: &str = r#"
class Fir {
    var taps = [3, 5, 7, 5, 3];
    fn apply(signal, i) {
        work(35);
        var acc = 0;
        for (var t = 0; t < 5; t = t + 1) {
            if (i >= t) {
                acc += signal[i - t] * this.taps[t];
            }
        }
        return acc / 23;
    }
}
fn main() {
    var signal = [];
    for (var i = 0; i < 40; i = i + 1) {
        signal.add((i * 17 + 3) % 100);
    }
    var fir = new Fir();
    var filtered = [];
    for (var i = 0; i < 40; i = i + 1) {
        filtered.add(0);
    }
    // convolution: output element i reads only the input — parallel
    for (var i = 0; i < 40; i = i + 1) {
        filtered[i] = fir.apply(signal, i);
    }
    // feedback echo: output feeds back into later outputs — sequential
    var echoed = [];
    for (var i = 0; i < 40; i = i + 1) {
        echoed.add(filtered[i]);
    }
    for (var i = 4; i < 40; i = i + 1) {
        echoed[i] = echoed[i] + echoed[i - 4] / 2;
    }
    var energy = 0;
    foreach (v in echoed) {
        energy += v * v;
    }
    print(energy % 100000);
}
"#;

/// Web-server log triage: parse, sessionize (stateful), rank.
pub(crate) const LOGTRIAGE: &str = r#"
class Entry {
    var path = "";
    var status = 0;
    var ms = 0;
    fn init(p, s, m) { this.path = p; this.status = s; this.ms = m; }
}
class Sessions {
    var current = 0;
    var count = 0;
    fn feed(e) {
        if (e.status >= 400) {
            this.current = 0;
        } else {
            this.current = this.current + 1;
            if (this.current == 3) { this.count = this.count + 1; }
        }
    }
}
fn parseLine(line) {
    work(55);
    var parts = line.split(" ");
    return new Entry(parts[0], int(parts[1]), int(parts[2]));
}
fn makeLogLine(i) {
    var status = 200;
    if (i % 7 == 3) { status = 500; }
    return "/p" + (i % 5) + " " + status + " " + (i * 9 % 300);
}
fn main() {
    var raw = [];
    var i = 0;
    while (i < 20) {
        raw.add(makeLogLine(i));
        i = i + 1;
    }
    // parse pipeline
    var entries = [];
    foreach (line in raw) {
        var e = parseLine(line);
        entries.add(e);
    }
    // sessionization: inherently stateful scan
    var sessions = new Sessions();
    foreach (e in entries) {
        sessions.feed(e);
    }
    // slow-request count: reduction
    var slow = 0;
    foreach (e in entries) {
        if (e.ms > 150) { slow += 1; }
    }
    print(sessions.count, slow);
}
"#;

#[cfg(test)]
mod tests {
    use patty_minilang::{parse, run, InterpOptions};

    #[test]
    fn extension_programs_parse_and_run() {
        for (name, src) in [
            ("csv_analytics", super::CSV_ANALYTICS),
            ("rle_compress", super::RLE_COMPRESS),
            ("mandelbrot", super::MANDELBROT),
            ("montecarlo", super::MONTECARLO),
            ("spellcheck", super::SPELLCHECK),
            ("kmeans", super::KMEANS),
            ("audiofir", super::AUDIOFIR),
            ("logtriage", super::LOGTRIAGE),
        ] {
            let p = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = run(&p, InterpOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.output.is_empty(), "{name} must print");
        }
    }

    #[test]
    fn rle_round_trip_is_verified_inside_the_program() {
        let p = parse(super::RLE_COMPRESS).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        assert!(out.output[0].starts_with("6 "), "all 6 blocks verify: {}", out.output[0]);
    }

    #[test]
    fn spellcheck_finds_the_misspellings() {
        let p = parse(super::SPELLCHECK).unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        assert_eq!(out.output[0], "4 zat", "{}", out.output[0]);
    }
}
