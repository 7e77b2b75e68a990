//! The string codec against references that work a byte at a time.
//!
//! `render` and `parse` scan strings eight bytes at a time; these
//! properties hold them to a plain per-byte escaper and to each other
//! on strings of 0 to 40 bytes, so every escape and every multi-byte
//! char lands at each offset within a word and across word boundaries.

use patty_json::{parse, Json};
use proptest::collection::vec;
use proptest::prelude::*;

/// The escaper the word-at-a-time writer must match byte for byte.
fn escape_per_byte(s: &str) -> String {
    let mut out = vec![b'"'];
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
            b => out.push(b),
        }
    }
    out.push(b'"');
    String::from_utf8(out).expect("escaping keeps UTF-8 whole")
}

/// Chars worth placing at every offset: ASCII, every control byte, the
/// two escaped printables, and 2–4-byte UTF-8 whose continuation bytes
/// are a control byte, `"` or `\` with the high bit set (0x9c, 0xa2,
/// 0xdc), which a scan that forgot the high bit would take for them.
fn piece() -> impl Strategy<Value = char> {
    prop_oneof![
        6 => (b'a'..=b'z').prop_map(char::from),
        1 => Just(' '),
        3 => (0u8..0x20).prop_map(char::from),
        1 => Just('\u{7f}'),
        2 => Just('"'),
        2 => Just('\\'),
        1 => Just('/'),
        1 => Just('é'),
        1 => Just('â'),
        1 => Just('\u{71c}'),
        1 => Just('\u{7ff}'),
        1 => Just('€'),
        1 => Just('\u{201c}'),
        1 => Just('\u{fffd}'),
        1 => Just('😀'),
        1 => Just('\u{10ffff}'),
    ]
}

/// Strings of 0..=40 bytes: chars drawn until the next one would pass
/// the drawn length.
fn text() -> impl Strategy<Value = String> {
    (0usize..=40, vec(piece(), 40)).prop_map(|(len, chars)| {
        let mut s = String::new();
        for c in chars {
            if s.len() + c.len_utf8() > len {
                break;
            }
            s.push(c);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn render_matches_the_per_byte_escaper(s in text()) {
        let rendered = Json::Str(s.clone()).to_string();
        prop_assert_eq!(&rendered, &escape_per_byte(&s));
        // An object key is written by the same escaper.
        let obj = Json::obj().with(s.clone(), Json::Null).to_string();
        prop_assert_eq!(obj, format!("{{{}:null}}", escape_per_byte(&s)));
    }

    #[test]
    fn parse_inverts_render(s in text()) {
        let rendered = Json::Str(s.clone()).to_string();
        prop_assert_eq!(parse(&rendered).unwrap(), Json::Str(s.clone()));
        let pretty = Json::obj().with(s.clone(), vec![s.clone()]);
        prop_assert_eq!(parse(&pretty.to_string_pretty()).unwrap(), pretty);
    }

    #[test]
    fn every_prefix_of_a_rendering_is_a_positioned_error(s in text()) {
        let rendered = Json::Str(s).to_string();
        for cut in (0..rendered.len()).filter(|&i| rendered.is_char_boundary(i)) {
            let prefix = &rendered[..cut];
            let err = match parse(prefix) {
                Ok(v) => return Err(TestCaseError::fail(format!("{prefix:?} parsed as {v:?}"))),
                Err(err) => err,
            };
            // A rendering has no raw newline: line 1, a column inside
            // the prefix or just past it.
            prop_assert_eq!(err.line, 1, "{:?}: {}", prefix, err);
            prop_assert!((1..=cut + 1).contains(&err.column), "{:?}: {}", prefix, err);
        }
    }
}

/// Each escaped byte at each offset of the first three words, between
/// runs of plain ASCII and of multi-byte chars.
#[test]
fn every_escaped_byte_at_every_offset_round_trips() {
    let specials = (0u8..0x20).chain([b'"', b'\\']).map(char::from);
    for special in specials {
        for fill in ['x', 'é', '😀'] {
            for at in 0..24 {
                let s: String = std::iter::repeat_n(fill, at)
                    .chain([special])
                    .chain(std::iter::repeat_n(fill, 24 - at))
                    .collect();
                let rendered = Json::Str(s.clone()).to_string();
                assert_eq!(rendered, escape_per_byte(&s), "{s:?}");
                assert_eq!(parse(&rendered).unwrap(), Json::Str(s.clone()), "{s:?}");
            }
        }
    }
}
