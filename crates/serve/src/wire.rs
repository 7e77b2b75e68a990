//! The byte side of the line protocol: a bounded request-line reader.
//!
//! Requests are read as bytes, never through `read_line` into a
//! `String`: under the TCP read timeout a line arrives in pieces, and a
//! piece may end inside a multi-byte character. UTF-8 is checked once,
//! on the complete line, by the caller.

use std::io::{self, BufRead};

/// Longest request line the service buffers, newline excluded. The
/// largest program the benchmark or the corpus sends is a few tens of
/// KiB once JSON-escaped; a line past the cap is answered with an error
/// and skipped, and the connection keeps serving.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`LineReader::next_line`] found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line<'a> {
    /// One line without its newline. The last line before end of input
    /// counts even when unterminated, as `BufRead::lines` has it.
    Complete(&'a [u8]),
    /// A line longer than [`MAX_LINE_BYTES`]; it was consumed up to and
    /// including its newline and none of it was kept.
    TooLong,
}

pub(crate) struct LineReader<R> {
    inner: R,
    /// The line being assembled; it survives an `Err` from the reader,
    /// so a read timeout in the middle of a line loses nothing.
    line: Vec<u8>,
    /// The line being read has passed the cap: drop bytes until its newline.
    overflow: bool,
    /// `line` was handed out by the previous call and is stale.
    handed_out: bool,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            line: Vec::new(),
            overflow: false,
            handed_out: false,
        }
    }

    /// The next line, `None` at end of input. An `Err` (a read timeout,
    /// say) leaves the partial line in place; call again to go on
    /// reading it.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<Line<'_>>> {
        if std::mem::take(&mut self.handed_out) {
            self.line.clear();
        }
        loop {
            let avail = match self.inner.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if avail.is_empty() {
                if self.line.is_empty() && !self.overflow {
                    return Ok(None);
                }
                break;
            }
            let newline = avail.iter().position(|&b| b == b'\n');
            let chunk = &avail[..newline.unwrap_or(avail.len())];
            if !self.overflow {
                let len = self.line.len() + chunk.len();
                if len > MAX_LINE_BYTES {
                    self.overflow = true;
                    self.line.clear();
                } else {
                    if len > self.line.capacity() {
                        // Grow by doubling, but never past the cap.
                        let target = len.next_power_of_two().min(MAX_LINE_BYTES);
                        self.line.reserve_exact(target - self.line.len());
                    }
                    self.line.extend_from_slice(chunk);
                }
            }
            let used = chunk.len() + usize::from(newline.is_some());
            self.inner.consume(used);
            if newline.is_some() {
                break;
            }
        }
        self.handed_out = true;
        Ok(Some(if std::mem::take(&mut self.overflow) {
            Line::TooLong
        } else {
            Line::Complete(&self.line)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn an_over_long_line_is_skipped_without_being_buffered() {
        let mut input = vec![b'x'; 2 * MAX_LINE_BYTES];
        input.extend_from_slice(b"\nshort\n");
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES));
        input.extend_from_slice(b"\nunterminated");
        // A small read buffer, so that lines are assembled from many pieces.
        let mut reader = LineReader::new(BufReader::with_capacity(4096, &input[..]));
        let mut seen = Vec::new();
        while let Some(line) = reader.next_line().unwrap() {
            seen.push(match line {
                Line::Complete(l) if l.len() > 16 => format!("{} bytes", l.len()),
                Line::Complete(l) => String::from_utf8(l.to_vec()).unwrap(),
                Line::TooLong => "too long".to_string(),
            });
            assert!(reader.line.capacity() <= MAX_LINE_BYTES);
        }
        // A line of exactly the cap still fits.
        assert_eq!(
            seen,
            [
                "too long",
                "short",
                &format!("{MAX_LINE_BYTES} bytes"),
                "unterminated"
            ]
        );
    }

    #[test]
    fn an_over_long_last_line_without_newline_is_reported_once() {
        let input = vec![b'x'; MAX_LINE_BYTES + 1];
        let mut reader = LineReader::new(&input[..]);
        assert_eq!(reader.next_line().unwrap(), Some(Line::TooLong));
        assert_eq!(reader.next_line().unwrap(), None);
    }
}
