//! Compact binary trace format.
//!
//! Generated streams can be recorded once and replayed across experiments
//! (and across schemes, so every scheme sees bit-identical traffic). The
//! current format (`SAWLTRC2`) carries the source stream's name so a
//! replay reports under the same workload label as the live run:
//!
//! ```text
//! magic    8 bytes          b"SAWLTRC2"
//! space    8 bytes          u64 LE   logical address space in lines
//! count    8 bytes          u64 LE   number of records (u64::MAX = until EOF)
//! name_len 4 bytes          u32 LE   length of the stream name
//! name     name_len bytes   UTF-8 stream name
//! records  count * 8 bytes  u64 LE: (la << 1) | write
//! ```
//!
//! The original `SAWLTRC1` layout (no name field) is still read; such
//! traces replay under the name `"trace-replay"`.
//!
//! Records pack the write flag into bit 0, which caps the address space at
//! 2^63 lines — far beyond any device we simulate.
//!
//! [`TraceWriter`] streams records through any `io::Write`; on seekable
//! sinks [`TraceWriter::finish`] backpatches the real record count into
//! the header, while [`TraceWriter::finish_streaming`] leaves the
//! until-EOF marker for pipes and sockets. [`TraceReader`] replays a
//! trace held in memory; [`TraceFileStream`] replays straight off disk
//! through a buffered reader without loading the records.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{AddressStream, CursorKind, MemReq};

const MAGIC_V1: &[u8; 8] = b"SAWLTRC1";
const MAGIC_V2: &[u8; 8] = b"SAWLTRC2";

/// Reject absurd name lengths before allocating: no stream name in this
/// workspace comes near this, so anything larger is a corrupt header.
const MAX_NAME_LEN: u32 = 4096;

/// Byte offset of the `count` header field (both versions).
const COUNT_OFFSET: u64 = 16;

/// A parsed trace header: everything before the record array.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceHeader {
    space: u64,
    /// Declared record count; `u64::MAX` means "until EOF".
    declared: u64,
    /// Recorded stream name ("trace-replay" for v1 / unnamed traces).
    name: String,
    /// Total header length in bytes; records start here.
    len: u64,
}

/// Parse a trace header from the front of `r`, with the typed rejection
/// taxonomy shared by the in-memory and streaming readers.
fn read_header<R: Read>(r: &mut R) -> io::Result<TraceHeader> {
    let mut magic = [0u8; 8];
    fill_exact(r, &mut magic, "trace shorter than header")?;
    let v2 = match &magic {
        m if m == MAGIC_V1 => false,
        m if m == MAGIC_V2 => true,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad trace magic")),
    };
    let mut fixed = [0u8; 16];
    fill_exact(r, &mut fixed, "trace shorter than header")?;
    let space = u64::from_le_bytes(fixed[..8].try_into().unwrap());
    let declared = u64::from_le_bytes(fixed[8..].try_into().unwrap());
    if !v2 {
        return Ok(TraceHeader { space, declared, name: "trace-replay".into(), len: 24 });
    }
    let mut len4 = [0u8; 4];
    fill_exact(r, &mut len4, "trace shorter than header")?;
    let name_len = u32::from_le_bytes(len4);
    if name_len > MAX_NAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace name length {name_len} exceeds {MAX_NAME_LEN}"),
        ));
    }
    let mut name = vec![0u8; name_len as usize];
    fill_exact(r, &mut name, "trace shorter than header")?;
    let name = String::from_utf8(name)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "trace name is not UTF-8"))?;
    let name = if name.is_empty() { "trace-replay".into() } else { name };
    Ok(TraceHeader { space, declared, name, len: 28 + u64::from(name_len) })
}

/// `read_exact` with a header-specific truncation message (the default
/// `failed to fill whole buffer` loses what was being parsed).
fn fill_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
        } else {
            e
        }
    })
}

/// Validate the record-array byte length against the header, returning
/// the record count.
fn validate_records(header: &TraceHeader, record_bytes: u64) -> io::Result<u64> {
    if !record_bytes.is_multiple_of(8) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace record"));
    }
    let actual = record_bytes / 8;
    if header.declared != u64::MAX && header.declared != actual {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace declares {} records but contains {actual}", header.declared),
        ));
    }
    if actual == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty trace"));
    }
    Ok(actual)
}

fn decode_record(raw: u64) -> MemReq {
    MemReq { la: raw >> 1, write: raw & 1 == 1 }
}

/// Streaming trace writer over any `io::Write`.
pub struct TraceWriter<W: Write> {
    out: W,
    space: u64,
    count: u64,
    buf: BytesMut,
}

impl<W: Write> TraceWriter<W> {
    /// Begin an unnamed trace over `space` lines (replays as
    /// `"trace-replay"`). The header is written immediately with the
    /// until-EOF count marker; [`finish`](Self::finish) backpatches the
    /// real count on seekable sinks, and
    /// [`finish_streaming`](Self::finish_streaming) leaves the marker
    /// for sinks that cannot seek.
    pub fn new(out: W, space: u64) -> io::Result<Self> {
        Self::with_name(out, space, "")
    }

    /// Begin a trace over `space` lines recording `name` as the source
    /// stream's name, so replays report under the same workload label.
    pub fn with_name(mut out: W, space: u64, name: &str) -> io::Result<Self> {
        assert!(
            name.len() <= MAX_NAME_LEN as usize,
            "stream name {} bytes exceeds {MAX_NAME_LEN}",
            name.len()
        );
        let mut header = BytesMut::with_capacity(28 + name.len());
        header.put_slice(MAGIC_V2);
        header.put_u64_le(space);
        header.put_u64_le(u64::MAX);
        header.put_u32_le(name.len() as u32);
        header.put_slice(name.as_bytes());
        out.write_all(&header)?;
        Ok(Self { out, space, count: 0, buf: BytesMut::with_capacity(64 * 1024) })
    }

    /// Append one request.
    pub fn push(&mut self, req: MemReq) -> io::Result<()> {
        assert!(req.la < self.space, "address {} outside trace space {}", req.la, self.space);
        self.buf.put_u64_le((req.la << 1) | u64::from(req.write));
        self.count += 1;
        if self.buf.len() >= 64 * 1024 {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Record `n` requests from a stream.
    pub fn record<S: AddressStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> io::Result<()> {
        for _ in 0..n {
            self.push(stream.next_req())?;
        }
        Ok(())
    }

    /// Flush buffered records without backpatching: the header keeps the
    /// `u64::MAX` until-EOF count. For pipes, sockets, and other
    /// non-seekable sinks; prefer [`finish`](Self::finish) wherever the
    /// sink can seek. Returns the sink and the record count.
    pub fn finish_streaming(mut self) -> io::Result<(W, u64)> {
        self.out.write_all(&self.buf)?;
        self.out.flush()?;
        Ok((self.out, self.count))
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Flush buffered records and backpatch the real record count into
    /// the header, producing a self-describing trace. Returns the sink
    /// (positioned at end) and the record count.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        self.out.write_all(&self.buf)?;
        self.out.seek(SeekFrom::Start(COUNT_OFFSET))?;
        self.out.write_all(&self.count.to_le_bytes())?;
        self.out.seek(SeekFrom::End(0))?;
        self.out.flush()?;
        Ok((self.out, self.count))
    }
}

/// Trace reader that replays a recorded stream held in memory; implements
/// [`AddressStream`] by cycling when the trace is exhausted.
#[derive(Debug, Clone)]
pub struct TraceReader {
    records: Bytes,
    space: u64,
    name: String,
    pos: u64,
}

impl TraceReader {
    /// Parse a complete trace from any reader.
    pub fn from_reader<R: Read>(mut r: R) -> io::Result<Self> {
        let mut all = Vec::new();
        r.read_to_end(&mut all)?;
        Self::from_bytes(Bytes::from(all))
    }

    /// Parse a complete trace held in memory.
    pub fn from_bytes(data: Bytes) -> io::Result<Self> {
        if data.len() < 24 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "trace shorter than header"));
        }
        let mut cursor = io::Cursor::new(&data[..]);
        let header = read_header(&mut cursor)?;
        let mut records = data;
        records.advance(header.len as usize);
        validate_records(&header, records.len() as u64)?;
        Ok(Self { records, space: header.space, name: header.name, pos: 0 })
    }

    /// Number of records in the trace.
    pub fn len(&self) -> u64 {
        (self.records.len() / 8) as u64
    }

    /// Whether the trace holds no records (never true for parsed traces).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read the record at `idx` without advancing the cursor.
    pub fn get(&self, idx: u64) -> MemReq {
        let off = (idx * 8) as usize;
        decode_record(u64::from_le_bytes(self.records[off..off + 8].try_into().unwrap()))
    }
}

impl AddressStream for TraceReader {
    fn next_req(&mut self) -> MemReq {
        let idx = self.pos % self.len();
        self.pos = self.pos.wrapping_add(1);
        self.get(idx)
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.pos);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.pos = r.get_u64()?;
        Ok(())
    }
}

/// Streaming trace replay straight off disk: a buffered reader walks the
/// record array without ever loading it, cycling back to the first record
/// at EOF. This is what `WorkloadSpec::TraceFile` builds, so multi-GB
/// traces replay in constant memory.
#[derive(Debug)]
pub struct TraceFileStream {
    reader: BufReader<File>,
    space: u64,
    count: u64,
    records_start: u64,
    /// Index of the next record to replay, already wrapped into
    /// `0..count`.
    pos: u64,
    name: String,
}

impl TraceFileStream {
    /// Open a trace file for streaming replay, validating the header and
    /// the record-array length up front with the same typed rejections as
    /// [`TraceReader`].
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 24 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "trace shorter than header"));
        }
        let mut reader = BufReader::with_capacity(64 * 1024, file);
        let header = read_header(&mut reader)?;
        if file_len < header.len {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "trace shorter than header"));
        }
        let count = validate_records(&header, file_len - header.len)?;
        Ok(Self {
            reader,
            space: header.space,
            count,
            records_start: header.len,
            pos: 0,
            name: header.name,
        })
    }

    /// Number of records in the trace.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Never true: empty traces are rejected at open.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position the underlying reader at record `pos`.
    fn seek_to_pos(&mut self) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(self.records_start + 8 * self.pos))?;
        Ok(())
    }

    fn read_record(&mut self) -> MemReq {
        if self.pos == self.count {
            self.pos = 0;
            self.seek_to_pos().expect("trace file seek failed mid-replay");
        }
        let mut raw = [0u8; 8];
        self.reader.read_exact(&mut raw).expect("trace file read failed mid-replay");
        self.pos += 1;
        decode_record(u64::from_le_bytes(raw))
    }
}

impl AddressStream for TraceFileStream {
    fn next_req(&mut self) -> MemReq {
        self.read_record()
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.pos);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        let pos = r.get_u64()?;
        if pos > self.count {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "trace cursor {pos} past the {}-record trace",
                self.count
            )));
        }
        self.pos = pos;
        self.seek_to_pos().map_err(sawl_ckpt::CkptError::Io)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Uniform;
    use std::io::Cursor;

    fn mem_writer(space: u64) -> TraceWriter<Cursor<Vec<u8>>> {
        TraceWriter::new(Cursor::new(Vec::new()), space).unwrap()
    }

    #[test]
    fn round_trip_preserves_requests() {
        let mut gen = Uniform::new(1 << 12, 0.4, 7);
        let mut expected = Vec::new();
        let mut w = mem_writer(1 << 12);
        for _ in 0..1000 {
            let r = gen.next_req();
            expected.push(r);
            w.push(r).unwrap();
        }
        let (sink, count) = w.finish().unwrap();
        assert_eq!(count, 1000);
        let mut reader = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap();
        assert_eq!(reader.len(), 1000);
        assert_eq!(reader.space_lines(), 1 << 12);
        for r in &expected {
            assert_eq!(reader.next_req(), *r);
        }
    }

    #[test]
    fn reader_cycles_at_end() {
        let mut w = mem_writer(16);
        w.push(MemReq::write(3)).unwrap();
        w.push(MemReq::read(5)).unwrap();
        let (sink, _) = w.finish().unwrap();
        let mut r = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap();
        assert_eq!(r.next_req(), MemReq::write(3));
        assert_eq!(r.next_req(), MemReq::read(5));
        assert_eq!(r.next_req(), MemReq::write(3));
    }

    #[test]
    fn record_helper_pulls_from_stream() {
        let mut gen = Uniform::new(64, 1.0, 1);
        let mut w = mem_writer(64);
        w.record(&mut gen, 50).unwrap();
        let (sink, count) = w.finish().unwrap();
        assert_eq!(count, 50);
        let r = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap();
        assert_eq!(r.len(), 50);
    }

    #[test]
    fn finish_backpatches_the_count_on_seekable_sinks() {
        let mut w = mem_writer(16);
        w.push(MemReq::write(3)).unwrap();
        w.push(MemReq::read(5)).unwrap();
        let (sink, count) = w.finish().unwrap();
        assert_eq!(count, 2);
        let bytes = sink.into_inner();
        let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(declared, 2, "header count must be backpatched");
        // A backpatched trace survives a one-record amputation check: the
        // declared/actual mismatch is now detectable.
        let truncated = Bytes::from(bytes[..bytes.len() - 8].to_vec());
        assert!(TraceReader::from_bytes(truncated).is_err());
    }

    #[test]
    fn finish_streaming_keeps_the_until_eof_marker() {
        // Vec<u8> has no Seek: the streaming finish is the only option,
        // and the header keeps u64::MAX, which readers accept as
        // "count = until EOF".
        let mut w = TraceWriter::new(Vec::new(), 16).unwrap();
        w.push(MemReq::write(3)).unwrap();
        let (bytes, count) = w.finish_streaming().unwrap();
        assert_eq!(count, 1);
        let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(declared, u64::MAX);
        let mut r = TraceReader::from_bytes(Bytes::from(bytes)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.next_req(), MemReq::write(3));
    }

    #[test]
    fn named_traces_replay_under_the_recorded_name() {
        let mut w = TraceWriter::with_name(Cursor::new(Vec::new()), 64, "zipf").unwrap();
        w.push(MemReq::write(1)).unwrap();
        let (sink, _) = w.finish().unwrap();
        let r = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap();
        assert_eq!(r.name(), "zipf");
        // Unnamed traces fall back to the generic replay label.
        let mut w = mem_writer(64);
        w.push(MemReq::write(1)).unwrap();
        let (sink, _) = w.finish().unwrap();
        let r = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap();
        assert_eq!(r.name(), "trace-replay");
    }

    #[test]
    fn v1_traces_still_parse() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        bytes.extend_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&((7u64 << 1) | 1).to_le_bytes());
        let mut r = TraceReader::from_bytes(Bytes::from(bytes)).unwrap();
        assert_eq!(r.space_lines(), 64);
        assert_eq!(r.name(), "trace-replay");
        assert_eq!(r.next_req(), MemReq::write(7));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = TraceReader::from_bytes(Bytes::from(vec![0u8; 32])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_short_input() {
        let err = TraceReader::from_bytes(Bytes::from(vec![0u8; 10])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_truncated_record() {
        let mut w = mem_writer(16);
        w.push(MemReq::write(1)).unwrap();
        w.push(MemReq::write(2)).unwrap();
        let (sink, _) = w.finish().unwrap();
        let mut bytes = sink.into_inner();
        bytes.pop();
        let err = TraceReader::from_bytes(Bytes::from(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_empty_trace() {
        let w = mem_writer(16);
        let (sink, _) = w.finish().unwrap();
        let err = TraceReader::from_bytes(Bytes::from(sink.into_inner())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_corrupt_name_fields() {
        // Name length larger than the cap.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        bytes.extend_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(MAX_NAME_LEN + 1).to_le_bytes());
        let err = TraceReader::from_bytes(Bytes::from(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Name bytes that are not UTF-8.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        bytes.extend_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        let err = TraceReader::from_bytes(Bytes::from(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "outside trace space")]
    fn writer_rejects_out_of_space_address() {
        let mut w = mem_writer(16);
        let _ = w.push(MemReq::write(16));
    }

    fn temp_trace(label: &str, build: impl FnOnce(&mut TraceWriter<File>)) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sawl-trace-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{label}.trc"));
        let file = File::create(&path).unwrap();
        let mut w = TraceWriter::with_name(file, 1 << 10, "uniform").unwrap();
        build(&mut w);
        w.finish().unwrap();
        path
    }

    #[test]
    fn file_stream_matches_in_memory_replay() {
        let path = temp_trace("match", |w| {
            let mut gen = Uniform::new(1 << 10, 0.5, 3);
            w.record(&mut gen, 700).unwrap();
        });
        let mut on_disk = TraceFileStream::open(&path).unwrap();
        let mut in_mem = TraceReader::from_reader(File::open(&path).unwrap()).unwrap();
        assert_eq!(on_disk.len(), 700);
        assert_eq!(on_disk.name(), "uniform");
        assert_eq!(on_disk.space_lines(), in_mem.space_lines());
        // Run past the end so the wrap-around seek is exercised too.
        for i in 0..2_000 {
            assert_eq!(on_disk.next_req(), in_mem.next_req(), "record {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stream_fill_runs_matches_scalar() {
        let path = temp_trace("runs", |w| {
            // Repeats force coalescing; 700 records against a 512 scratch
            // forces wrap-around inside a batch.
            for i in 0..700u64 {
                w.push(MemReq::write((i / 7) % 64)).unwrap();
            }
        });
        let mut runs_side = TraceFileStream::open(&path).unwrap();
        let mut scalar_side = TraceFileStream::open(&path).unwrap();
        let mut runs = Vec::new();
        let mut scratch = [MemReq::read(0); 512];
        for _ in 0..4 {
            let covered = runs_side.fill_runs(&mut runs, &mut scratch);
            assert_eq!(covered, 512);
            assert!(runs.len() < 512, "no coalescing happened");
            for run in &runs {
                for _ in 0..run.len {
                    let expect = scalar_side.next_req();
                    assert_eq!((run.la, run.write), (expect.la, expect.write));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stream_cursor_round_trips() {
        let path = temp_trace("cursor", |w| {
            let mut gen = Uniform::new(1 << 10, 0.5, 9);
            w.record(&mut gen, 300).unwrap();
        });
        let mut reference = TraceFileStream::open(&path).unwrap();
        for _ in 0..123 {
            reference.next_req();
        }
        assert_eq!(reference.cursor_kind(), CursorKind::State);
        let mut w = sawl_ckpt::Writer::new();
        reference.cursor_save(&mut w);
        let payload = w.into_payload();

        let mut restored = TraceFileStream::open(&path).unwrap();
        let mut r = sawl_ckpt::Reader::new(&payload);
        restored.cursor_restore(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..600 {
            assert_eq!(restored.next_req(), reference.next_req(), "diverged at {i}");
        }

        // A cursor past the trace is rejected, not silently wrapped.
        let mut w = sawl_ckpt::Writer::new();
        w.put_u64(10_000);
        let payload = w.into_payload();
        let mut fresh = TraceFileStream::open(&path).unwrap();
        let err = fresh.cursor_restore(&mut sawl_ckpt::Reader::new(&payload)).unwrap_err();
        assert!(matches!(err, sawl_ckpt::CkptError::Corrupt(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stream_rejects_the_same_taxonomy() {
        let dir = std::env::temp_dir().join(format!("sawl-trace-reject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |label: &str, bytes: &[u8]| {
            let p = dir.join(format!("{label}.trc"));
            std::fs::write(&p, bytes).unwrap();
            p
        };
        let short = write("short", &[0u8; 10]);
        assert_eq!(TraceFileStream::open(&short).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        let bad_magic = write("magic", &[0u8; 32]);
        assert_eq!(
            TraceFileStream::open(&bad_magic).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut ok = Vec::new();
        ok.extend_from_slice(MAGIC_V2);
        ok.extend_from_slice(&64u64.to_le_bytes());
        ok.extend_from_slice(&u64::MAX.to_le_bytes());
        ok.extend_from_slice(&0u32.to_le_bytes());
        let empty = write("empty", &ok);
        assert_eq!(TraceFileStream::open(&empty).unwrap_err().kind(), io::ErrorKind::InvalidData);
        ok.extend_from_slice(&[1, 2, 3]);
        let torn = write("torn", &ok);
        assert_eq!(TraceFileStream::open(&torn).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
