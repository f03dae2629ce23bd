//! Incremental I/O buffers for nonblocking connection state machines.
//!
//! [`LineBuf`] accumulates bytes across arbitrary read boundaries and
//! yields complete lines — the parsing half of the line protocol survives
//! commands split anywhere, including mid-token. [`WriteBuf`] is the
//! buffered-write half: replies are appended whole and drained to the
//! socket as far as the kernel accepts, with the unsent tail carried to the
//! next writable event.

use std::io::{self, Read, Write};

/// Read-side accumulator with incremental line extraction.
///
/// `next_line` is O(new bytes) amortized: a `scanned` watermark remembers
/// how far the newline scan got, so a long line arriving one byte at a time
/// is not rescanned from the start on every read.
#[derive(Default)]
pub struct LineBuf {
    buf: Vec<u8>,
    /// Start of unconsumed data.
    pos: usize,
    /// Exclusive end of the region already scanned for `\n`.
    scanned: usize,
}

impl LineBuf {
    pub fn new() -> LineBuf {
        LineBuf::default()
    }

    /// Bytes buffered but not yet returned as lines.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// One nonblocking read from `r` into the buffer. Returns the byte
    /// count (0 = EOF); `WouldBlock` surfaces as an error for the caller's
    /// read loop to stop on.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let mut chunk = [0u8; 4096];
        let n = r.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Next complete line, stripped of `\n`/`\r\n`, lossily decoded.
    /// Returns `None` until a terminator arrives.
    pub fn next_line(&mut self) -> Option<String> {
        let start = self.scanned.max(self.pos);
        match self.buf[start..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = start + off;
                let line = String::from_utf8_lossy(&self.buf[self.pos..end])
                    .trim_end_matches('\r')
                    .to_string();
                self.pos = end + 1;
                self.scanned = self.pos;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Reclaims consumed space once it dominates the buffer.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.scanned -= self.pos;
            self.pos = 0;
        }
    }
}

/// Capacity a drained [`WriteBuf`] keeps.
const KEEP: usize = 16 * 1024;

/// Write-side buffer: append whole replies, flush as far as the kernel
/// accepts, carry the tail.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Unsent bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much as possible without blocking. Returns the bytes
    /// written this call; `Ok(0)` with a non-empty buffer means the socket
    /// is full (`WouldBlock` is absorbed). Other errors surface.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket write returned 0",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.pos == self.buf.len() && self.pos > 4096 {
            self.buf.clear();
            self.pos = 0;
            // One large reply must not pin its size for the connection's
            // life.
            self.buf.shrink_to(KEEP);
        }
        Ok(total)
    }
}

/// Lets a reply be formatted straight into the buffer (`write!`).
impl std::fmt::Write for WriteBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_survive_arbitrary_boundaries() {
        let text = b"OPEN blocks vs2\r\nASSERT item ^n 3\nRUN 100\n";
        for chunk in [1usize, 2, 3, 5, 7, 11, 100] {
            let mut lb = LineBuf::new();
            let mut got = Vec::new();
            for piece in text.chunks(chunk) {
                lb.extend(piece);
                while let Some(l) = lb.next_line() {
                    got.push(l);
                }
            }
            assert_eq!(
                got,
                vec!["OPEN blocks vs2", "ASSERT item ^n 3", "RUN 100"],
                "chunk={chunk}"
            );
            assert!(lb.is_empty());
        }
    }

    #[test]
    fn partial_line_is_held_back() {
        let mut lb = LineBuf::new();
        lb.extend(b"SNAP");
        assert_eq!(lb.next_line(), None);
        lb.extend(b"SHOT?\nRU");
        assert_eq!(lb.next_line().as_deref(), Some("SNAPSHOT?"));
        assert_eq!(lb.next_line(), None);
        assert_eq!(lb.len(), 2);
        lb.extend(b"N 5\n");
        assert_eq!(lb.next_line().as_deref(), Some("RUN 5"));
    }

    proptest::proptest! {
        /// Whatever read boundaries the kernel produces, the extracted line
        /// sequence is identical to a whole-buffer parse.
        #[test]
        fn chunking_is_invariant(cuts in proptest::collection::vec(1usize..24, 1..48)) {
            let text = b"OPEN - vs2\n(literalize a x)\nEND\nBATCH\nASSERT a ^x 1\nEND\nRUN 3\nFIRED?\nCLOSE\n";
            let mut whole = LineBuf::new();
            whole.extend(text);
            let mut want = Vec::new();
            while let Some(l) = whole.next_line() {
                want.push(l);
            }
            let mut lb = LineBuf::new();
            let mut got = Vec::new();
            let mut off = 0;
            let mut cut_iter = cuts.iter().cycle();
            while off < text.len() {
                let n = (*cut_iter.next().unwrap()).min(text.len() - off);
                lb.extend(&text[off..off + n]);
                off += n;
                while let Some(l) = lb.next_line() {
                    got.push(l);
                }
            }
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn write_buf_carries_the_tail() {
        // A writer that accepts at most 3 bytes per call then blocks.
        struct Dribble {
            out: Vec<u8>,
            budget: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(3).min(self.budget);
                self.budget -= n;
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::new();
        wb.push(b"OK 1\nOK 2\n");
        let mut w = Dribble {
            out: Vec::new(),
            budget: 4,
        };
        wb.write_to(&mut w).unwrap();
        assert_eq!(wb.len(), 6);
        w.budget = 100;
        wb.write_to(&mut w).unwrap();
        assert!(wb.is_empty());
        assert_eq!(w.out, b"OK 1\nOK 2\n");
    }
}
