//! Size-scaled programs for the process-model tests: a corpus program
//! grown by appending seeded loop-nest functions, the shape of source a
//! never-seen serve request carries.
#![allow(dead_code)]

/// SplitMix64: the seed picks the fillers' constants, never their length.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn constant(&mut self) -> u64 {
        100 + self.next() % 900
    }
}

/// The loop nest every filler carries, at `pad` spaces of indentation.
fn loop_nest(pad: &str, rng: &mut Rng) -> String {
    let (c0, c2, c3, c4, c5) =
        (rng.constant(), rng.constant(), rng.constant(), rng.constant(), rng.constant());
    format!(
        "{pad}var acc = {c0};\n\
         {pad}for (var i = 0; i < n; i = i + 1) {{\n\
         {pad}    for (var j = 0; j < 5; j = j + 1) {{\n\
         {pad}        acc += (i * {c2} + j) % {c3};\n\
         {pad}    }}\n\
         {pad}    if (acc > {c4}) {{ acc = acc - {c5}; }}\n\
         {pad}}}\n\
         {pad}return acc;\n"
    )
}

/// One free function `fill_k(n)` with a loop nest.
fn filler(id: usize, rng: &mut Rng) -> String {
    format!("fn fill_{id:03}(n) {{\n{}}}\n", loop_nest("    ", rng))
}

/// `base` grown to at least `scale` times its size by appended fillers.
pub fn scaled_source(base: &str, scale: usize, seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut source = base.to_string();
    let mut id = 0;
    while source.len() < base.len() * scale {
        source.push_str(&filler(id, &mut rng));
        id += 1;
    }
    source
}

/// `scaled_source` plus a class whose method carries the same loop nest:
/// the annotated loop then sits in a class, which prints before every
/// free function although it was written last.
pub fn scaled_source_with_method(base: &str, scale: usize, seed: u64) -> String {
    let mut source = scaled_source(base, scale, seed);
    let mut rng = Rng(seed ^ 0xC1A55);
    source.push_str(&format!(
        "class Filler {{\n    var bias = 3;\n    fn fill(n) {{\n{}    }}\n}}\n",
        loop_nest("        ", &mut rng)
    ));
    source
}
