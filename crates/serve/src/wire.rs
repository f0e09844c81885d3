//! Transport and framing: length-prefixed binary frames over TCP or
//! Unix-domain sockets.
//!
//! The workspace has no registry access, so there is no tokio/serde —
//! the transport is hand-rolled over `std::net`/`std::os::unix::net`
//! with blocking I/O and per-connection threads, and every payload is
//! serialized with the little-endian primitives in this module.
//!
//! ## Frame layout
//!
//! ```text
//! ┌─────────┬────────┬───────────┬──────────┬───────────────┐
//! │ magic   │ kind   │ req_id    │ len      │ payload       │
//! │ 4 bytes │ 1 byte │ 8 bytes   │ 4 bytes  │ `len` bytes   │
//! │ "BSK1"  │  u8    │ u64 LE    │ u32 LE   │               │
//! └─────────┴────────┴───────────┴──────────┴───────────────┘
//! ```
//!
//! * `magic` guards against desynchronization and foreign traffic: a
//!   frame that does not start `BSK1` kills the connection cleanly.
//! * `kind` selects the request/response variant (see
//!   [`proto`](crate::proto)).
//! * `req_id` is chosen by the requester and echoed verbatim in the
//!   response, so a connection can carry many in-flight requests
//!   (pipelining) and the requester can match responses out of order.
//! * `len` bounds the payload ([`MAX_FRAME`]); an oversized length is a
//!   protocol error, not an allocation attempt.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// The frame magic: `b"BSK1"`.
pub const MAGIC: [u8; 4] = *b"BSK1";

/// Maximum accepted payload size (64 MiB) — far above any matrix this
/// tier serves, far below an allocation bomb.
pub const MAX_FRAME: u32 = 64 << 20;

/// A serve-tier endpoint address: TCP (`tcp:HOST:PORT`) or a
/// Unix-domain socket path (`uds:/path/to.sock`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// TCP host:port, e.g. `127.0.0.1:4100` (port 0 binds ephemeral).
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl Addr {
    /// Parses `tcp:HOST:PORT` / `uds:PATH`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("uds:") {
            Ok(Addr::Uds(PathBuf::from(rest)))
        } else {
            Err(format!("address '{s}' must start with 'tcp:' or 'uds:'"))
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A listening socket over either transport.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Uds(UnixListener),
}

impl Listener {
    /// Binds `addr` (removing a stale UDS path first).
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp.as_str())?)),
            Addr::Uds(p) => {
                let _ = std::fs::remove_file(p);
                Ok(Listener::Uds(UnixListener::bind(p)?))
            }
        }
    }

    /// The bound address (for `tcp:…:0`, the actual ephemeral port).
    pub fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            Listener::Uds(l) => {
                let sa = l.local_addr()?;
                let p = sa
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix listener"))?;
                Ok(Addr::Uds(p.to_path_buf()))
            }
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Conn::Tcp(s))
            }
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Uds(s))
            }
        }
    }
}

/// One established connection over either transport.
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Uds(UnixStream),
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &Addr) -> io::Result<Conn> {
        match addr {
            Addr::Tcp(hp) => {
                let s = TcpStream::connect(hp.as_str())?;
                s.set_nodelay(true).ok();
                Ok(Conn::Tcp(s))
            }
            Addr::Uds(p) => Ok(Conn::Uds(UnixStream::connect(p)?)),
        }
    }

    /// A second handle to the same socket (for split reader/writer
    /// threads).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Uds(s) => Ok(Conn::Uds(s.try_clone()?)),
        }
    }

    /// Read timeout (None = block forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Uds(s) => s.set_read_timeout(d),
        }
    }

    /// Shuts both directions down, waking any thread blocked on a read.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Writes one frame (header + payload) and flushes nothing — callers
/// batch frames behind a `BufWriter` and flush at their pipeline
/// boundary.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, req_id: u64, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload {} exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&MAGIC)?;
    w.write_all(&[kind])?;
    w.write_all(&req_id.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame into `payload`, returning `(kind, req_id)`;
/// `Err(UnexpectedEof)` on a cleanly closed peer, `Err(InvalidData)` on
/// bad magic or an oversized length.
///
/// `payload` is resized to the frame's length, so a connection that
/// reuses one buffer across frames allocates and zero-fills only when a
/// frame is longer than every frame before it.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<(u8, u64)> {
    let mut head = [0u8; 17];
    r.read_exact(&mut head)?;
    if head[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame magic (desynchronized or foreign peer)",
        ));
    }
    let kind = head[4];
    let mut req_bytes = [0u8; 8];
    req_bytes.copy_from_slice(&head[5..13]);
    let req_id = u64::from_le_bytes(req_bytes);
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&head[13..17]);
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok((kind, req_id))
}

/// Reads one frame into a fresh buffer (see [`read_frame_into`]).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, u64, Vec<u8>)> {
    let mut payload = Vec::new();
    let (kind, req_id) = read_frame_into(r, &mut payload)?;
    Ok((kind, req_id, payload))
}

// --------------------------------------------------- payload codec ----

/// Little-endian payload writer.
#[derive(Default)]
pub struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    /// An empty payload buffer.
    pub fn new() -> Wr {
        Wr::default()
    }
    /// Makes room for `n` more bytes, so a payload of known size is
    /// written without regrowing the buffer.
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }
    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` (LE bit pattern).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends a length-prefixed `usize` slice as `u32`s.
    pub fn idx_slice(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for (dst, &x) in self.grow(4 * v.len()).chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&(x as u32).to_le_bytes());
        }
    }
    /// Appends a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for (dst, &x) in self.grow(8 * v.len()).chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
    /// Extends the buffer by `n` bytes in one step and returns them.
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }
}

/// A `chunks_exact(N)` chunk as an array, for the `from_le_bytes`
/// decoders.
fn le<const N: usize>(c: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(c);
    a
}

/// Little-endian payload reader; every accessor fails loudly on a
/// truncated or oversized payload instead of panicking.
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// `N` payload bytes as an array (for the LE decoders).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(le(self.take(N)?))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| "invalid utf-8 in string field".into())
    }
    /// Reads a slice's `u32` length prefix and checks that `n` elements
    /// of `width` bytes fit in what is left of the payload, before
    /// anything is reserved for them.
    fn slice_len(&mut self, width: usize, what: &str) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / width {
            return Err(format!("{what} slice length {n} exceeds payload"));
        }
        Ok(n)
    }
    /// Reads a length-prefixed index slice.
    pub fn idx_slice(&mut self) -> Result<Vec<usize>, String> {
        let n = self.slice_len(4, "index")?;
        let bytes = self.take(4 * n)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(le(c)) as usize)
            .collect())
    }
    /// Reads a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self) -> Result<Vec<f64>, String> {
        let n = self.f64_len()?;
        let bytes = self.take(8 * n)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(le(c)))
            .collect())
    }
    /// Reads the length prefix of an `f64` slice, checked against the
    /// rest of the payload; [`f64s_into`](Self::f64s_into) then reads
    /// its elements into a buffer the caller already holds.
    pub fn f64_len(&mut self) -> Result<usize, String> {
        self.slice_len(8, "f64")
    }
    /// Reads `out.len()` `f64`s (no length prefix) into `out`.
    pub fn f64s_into(&mut self, out: &mut [f64]) -> Result<(), String> {
        let bytes = self.take(8 * out.len())?;
        for (x, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *x = f64::from_le_bytes(le(c));
        }
        Ok(())
    }
    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "payload has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, 42, b"hello").unwrap();
        write_frame(&mut buf, 7, u64::MAX, b"").unwrap();
        let mut r = &buf[..];
        let (k, id, p) = read_frame(&mut r).unwrap();
        assert_eq!((k, id, p.as_slice()), (3, 42, &b"hello"[..]));
        let (k, id, p) = read_frame(&mut r).unwrap();
        assert_eq!((k, id, p.len()), (7, u64::MAX, 0));
        assert!(r.is_empty());
    }

    #[test]
    fn bad_magic_and_oversize_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"x").unwrap();
        buf[0] = b'Z';
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        let mut huge = MAGIC.to_vec();
        huge.push(1);
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &huge[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 9, b"payload").unwrap();
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn codec_roundtrip_and_truncation() {
        let mut w = Wr::new();
        w.u8(7);
        w.u32(123456);
        w.u64(1 << 40);
        w.f64(-1.5e-3);
        w.str("π shard");
        w.idx_slice(&[0, 3, 5, 9]);
        w.f64_slice(&[1.0, -2.5]);
        let bytes = w.into_bytes();

        let mut r = Rd::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -1.5e-3);
        assert_eq!(r.str().unwrap(), "π shard");
        assert_eq!(r.idx_slice().unwrap(), vec![0, 3, 5, 9]);
        assert_eq!(r.f64_slice().unwrap(), vec![1.0, -2.5]);
        r.finish().unwrap();

        // Any truncation errors instead of panicking.
        for cut in 0..bytes.len() {
            let mut r = Rd::new(&bytes[..cut]);
            let mut failed = false;
            for step in 0..7 {
                let ok = match step {
                    0 => r.u8().is_ok(),
                    1 => r.u32().is_ok(),
                    2 => r.u64().is_ok(),
                    3 => r.f64().is_ok(),
                    4 => r.str().is_ok(),
                    5 => r.idx_slice().is_ok(),
                    _ => r.f64_slice().is_ok(),
                };
                if !ok {
                    failed = true;
                    break;
                }
            }
            assert!(failed || r.finish().is_err(), "cut {cut} decoded fully");
        }
    }

    #[test]
    fn length_bomb_rejected_without_allocation() {
        // A slice header claiming 1 billion (or u32::MAX) entries inside
        // a 12-byte payload must error before reserving memory: a
        // reservation of 32 GiB would abort the test process.
        for claim in [1_000_000_000, u32::MAX] {
            let mut w = Wr::new();
            w.u32(claim);
            w.u64(0);
            let bytes = w.into_bytes();
            assert!(Rd::new(&bytes).idx_slice().is_err(), "{claim}");
            assert!(Rd::new(&bytes).f64_slice().is_err(), "{claim}");
            assert!(Rd::new(&bytes).f64_len().is_err(), "{claim}");
        }
    }

    /// The slice lengths the bulk codec must get right: empty, one
    /// element, either side of a power of two, and a long odd run.
    const LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 4099];

    #[test]
    fn f64_slice_roundtrips_every_bit_pattern() {
        let specials = [
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_dead_beef_0000), // negative NaN, payload
            -0.0,
            0.0,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -1.5e-300,
        ];
        for n in LENGTHS {
            let v: Vec<f64> = (0..n)
                .map(|i| match i % 3 {
                    0 => specials[i / 3 % specials.len()],
                    1 => f64::from_bits((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    _ => i as f64 * -0.25,
                })
                .collect();
            let mut w = Wr::new();
            w.u8(9);
            w.f64_slice(&v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 1 + 4 + 8 * n);
            let mut r = Rd::new(&bytes);
            assert_eq!(r.u8().unwrap(), 9);
            let back = r.f64_slice().unwrap();
            r.finish().unwrap();
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&v), "n = {n}");
            // The per-element layout is the scalar one: LE bits in order.
            for (i, x) in v.iter().enumerate() {
                let at = 1 + 4 + 8 * i;
                assert_eq!(bytes[at..at + 8], x.to_le_bytes(), "n = {n}, i = {i}");
            }
            // The same values read into a caller's buffer.
            let mut r = Rd::new(&bytes[1..]);
            let mut into = vec![7.0; r.f64_len().unwrap()];
            r.f64s_into(&mut into).unwrap();
            r.finish().unwrap();
            assert_eq!(bits(&into), bits(&v), "n = {n} (into)");
        }
    }

    #[test]
    fn idx_slice_roundtrips_every_bit_pattern() {
        for n in LENGTHS {
            let v: Vec<usize> = (0..n)
                .map(|i| match i % 4 {
                    0 => u32::MAX as usize,
                    1 => 0,
                    2 => (i as u32).wrapping_mul(0x9e37_79b9) as usize,
                    _ => 1 << 31,
                })
                .collect();
            let mut w = Wr::new();
            w.idx_slice(&v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 4 + 4 * n);
            for (i, &x) in v.iter().enumerate() {
                let at = 4 + 4 * i;
                assert_eq!(bytes[at..at + 4], (x as u32).to_le_bytes(), "n = {n}");
            }
            let mut r = Rd::new(&bytes);
            assert_eq!(r.idx_slice().unwrap(), v, "n = {n}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn slices_reject_short_payloads_and_trailing_bytes() {
        let mut w = Wr::new();
        w.idx_slice(&[1, 2, 3]);
        w.f64_slice(&[0.5, -0.0, f64::NAN]);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes);
        r.idx_slice().unwrap();
        r.f64_slice().unwrap();
        assert!(r.finish().is_err(), "a trailing byte must be an error");
        // A prefix one element longer than the bytes that follow.
        let mut w = Wr::new();
        w.u32(2);
        w.f64(1.0);
        assert!(Rd::new(&w.into_bytes()).f64_slice().is_err());
        // Reading into a buffer longer than what is left.
        let mut w = Wr::new();
        w.f64(1.0);
        let b = w.into_bytes();
        assert!(Rd::new(&b).f64s_into(&mut [0.0; 2]).is_err());
    }

    #[test]
    fn read_frame_into_reuses_one_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 1, &[7u8; 40]).unwrap();
        write_frame(&mut buf, 2, 2, b"abc").unwrap();
        write_frame(&mut buf, 3, 3, &[9u8; 20]).unwrap();
        let mut r = &buf[..];
        let mut payload = Vec::new();
        assert_eq!(read_frame_into(&mut r, &mut payload).unwrap(), (1, 1));
        assert_eq!(payload, [7u8; 40]);
        let cap = payload.capacity();
        assert_eq!(read_frame_into(&mut r, &mut payload).unwrap(), (2, 2));
        assert_eq!(payload, b"abc");
        assert_eq!(read_frame_into(&mut r, &mut payload).unwrap(), (3, 3));
        assert_eq!(payload, [9u8; 20]);
        assert_eq!(payload.capacity(), cap, "no frame outgrew the first");
        assert!(read_frame_into(&mut r, &mut payload).is_err());
    }

    #[test]
    fn addr_parse_display() {
        let t = Addr::parse("tcp:127.0.0.1:0").unwrap();
        assert_eq!(t.to_string(), "tcp:127.0.0.1:0");
        let u = Addr::parse("uds:/tmp/x.sock").unwrap();
        assert_eq!(u.to_string(), "uds:/tmp/x.sock");
        assert!(Addr::parse("foo:1").is_err());
    }

    #[test]
    fn uds_connect_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bsk-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = Addr::Uds(dir.join("t.sock"));
        let l = Listener::bind(&addr).unwrap();
        let srv = std::thread::spawn(move || {
            let mut c = l.accept().unwrap();
            let (k, id, p) = read_frame(&mut c).unwrap();
            write_frame(&mut c, k + 1, id, &p).unwrap();
        });
        let mut c = Conn::connect(&addr).unwrap();
        write_frame(&mut c, 10, 77, b"ping").unwrap();
        let (k, id, p) = read_frame(&mut c).unwrap();
        assert_eq!((k, id, p.as_slice()), (11, 77, &b"ping"[..]));
        srv.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
