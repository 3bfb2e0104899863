//! Compact binary serialization of [`FastMpcTable`] — the artifact a player
//! actually ships.
//!
//! The codec writes the table as fixed-width little-endian fields behind a
//! magic/version header, so the wire size is within a small constant of
//! [`FastMpcTable::rle_size_bytes`]: the Table 1 "run length coding"
//! column is what goes over the network.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "FMPC" | version u16 | buffer BinSpec | throughput BinSpec
//! | horizon u32 | horizon_slices u32
//! | lambda f64 | mu f64 | mu_s f64 | mu_event f64 | w_lat f64
//! | QualityFn (tag u8 + payload) | num_levels u32 | buffer_max_secs f64
//! | rle len u32 | run count u32 | starts [u32] | values [u8]
//! ```
//!
//! where a `BinSpec` is `count u32 | lo f64 | hi f64 | log u8`, and the
//! `QualityFn` tags are 0 = Identity, 1 = Log { r0, scale }, 2 = Saturating
//! { cap_kbps }, 3 = Table { knot count u32, (kbps f64, quality f64)* }.
//!
//! Decoding validates structure (magic, version, exact length) and
//! invariants (bin counts >= 1, run starts strictly increasing from 0,
//! decisions below `num_levels`, total length equal to the bin-grid size),
//! so [`FastMpcTable::from_bytes`] never yields a table whose `lookup`
//! could panic.

use crate::bins::BinSpec;
use crate::rle::Rle;
use crate::table::{FastMpcTable, TableConfig};
use abr_video::{QoeWeights, QualityFn};
use std::fmt;

/// Magic bytes opening every binary table.
const MAGIC: [u8; 4] = *b"FMPC";
/// Current format version. Version 2 added the live fields:
/// `horizon_slices` after the horizon and the `w_lat` QoE weight after
/// `mu_event`.
const VERSION: u16 = 2;

/// Why a byte buffer failed to decode as a [`FastMpcTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete, or carried
    /// trailing bytes past it.
    Truncated,
    /// The buffer does not start with the `FMPC` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The structure parsed but violates a table invariant.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated or trailing bytes present"),
            CodecError::BadMagic => write!(f, "not a FastMPC binary table (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Invalid(what) => write!(f, "invalid table: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian writer over a growing byte vector.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bins(&mut self, b: &BinSpec) {
        self.u32(b.count as u32);
        self.f64(b.lo);
        self.f64(b.hi);
        self.u8(b.log as u8);
    }

    fn quality(&mut self, q: &QualityFn) {
        match q {
            QualityFn::Identity => self.u8(0),
            QualityFn::Log { r0, scale } => {
                self.u8(1);
                self.f64(*r0);
                self.f64(*scale);
            }
            QualityFn::Saturating { cap_kbps } => {
                self.u8(2);
                self.f64(*cap_kbps);
            }
            QualityFn::Table { knots } => {
                self.u8(3);
                self.u32(knots.len() as u32);
                for &(kbps, quality) in knots {
                    self.f64(kbps);
                    self.f64(quality);
                }
            }
        }
    }
}

/// Cursor over the encoded bytes; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finite(&mut self, what: &'static str) -> Result<f64, CodecError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::Invalid(what))
        }
    }

    fn bins(&mut self) -> Result<BinSpec, CodecError> {
        let count = self.u32()? as usize;
        let lo = self.finite("bin edge not finite")?;
        let hi = self.finite("bin edge not finite")?;
        let log = match self.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid("bin spacing flag")),
        };
        if count < 1 || hi <= lo || (log && lo <= 0.0) {
            return Err(CodecError::Invalid("bin range"));
        }
        Ok(BinSpec { count, lo, hi, log })
    }

    fn quality(&mut self) -> Result<QualityFn, CodecError> {
        match self.u8()? {
            0 => Ok(QualityFn::Identity),
            1 => Ok(QualityFn::Log {
                r0: self.finite("quality parameter not finite")?,
                scale: self.finite("quality parameter not finite")?,
            }),
            2 => Ok(QualityFn::Saturating {
                cap_kbps: self.finite("quality parameter not finite")?,
            }),
            3 => {
                let n = self.u32()? as usize;
                let mut knots = Vec::with_capacity(n.min(self.buf.len() / 16));
                for _ in 0..n {
                    knots.push((self.f64()?, self.f64()?));
                }
                if !QualityFn::knots_valid(&knots) {
                    return Err(CodecError::Invalid("quality table knots"));
                }
                Ok(QualityFn::Table { knots })
            }
            _ => Err(CodecError::Invalid("quality function tag")),
        }
    }
}

/// Byte-offset layout of a validated `FMPC` buffer: everything
/// [`FastMpcTable::from_bytes`] would copy out, located in place instead.
///
/// Produced only by [`parse`], which runs the complete validation suite —
/// a `Layout` therefore certifies that `starts_off..values_off` holds
/// `runs` little-endian `u32` run starts (strictly increasing from 0, all
/// below `len`) and `values_off..values_off + runs` holds run values below
/// `num_levels`, so index arithmetic against these offsets cannot read out
/// of bounds or yield an out-of-ladder decision. This is the validated-
/// prefix invariant the zero-copy [`crate::TableView`] relies on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layout {
    pub cfg: TableConfig,
    pub num_levels: usize,
    pub buffer_max_secs: f64,
    pub len: u32,
    pub runs: usize,
    pub starts_off: usize,
    pub values_off: usize,
}

/// Validates an encoded table and returns its [`Layout`]. This is *the*
/// decoder: [`FastMpcTable::from_bytes`] materializes vectors from the
/// layout, the zero-copy [`crate::TableView`] reads through it in place —
/// both accept and reject exactly the same byte strings by construction.
pub(crate) fn parse(bytes: &[u8]) -> Result<Layout, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let buffer_bins = r.bins()?;
    let throughput_bins = r.bins()?;
    let horizon = r.u32()? as usize;
    if horizon == 0 {
        return Err(CodecError::Invalid("horizon must be positive"));
    }
    let horizon_slices = r.u32()? as usize;
    if horizon_slices == 0 || horizon_slices > horizon {
        return Err(CodecError::Invalid("horizon slices out of range"));
    }
    let lambda = r.finite("QoE weight not finite")?;
    let mu = r.finite("QoE weight not finite")?;
    let mu_s = r.finite("QoE weight not finite")?;
    let mu_event = r.finite("QoE weight not finite")?;
    let w_lat = r.finite("QoE weight not finite")?;
    let quality = r.quality()?;
    let num_levels = r.u32()? as usize;
    if num_levels == 0 || num_levels > u8::MAX as usize {
        return Err(CodecError::Invalid("ladder size out of range"));
    }
    let buffer_max_secs = r.finite("buffer capacity not finite")?;
    if buffer_max_secs <= 0.0 {
        return Err(CodecError::Invalid("buffer capacity must be positive"));
    }
    let len = r.u32()?;
    let runs = r.u32()? as usize;
    let expected = buffer_bins
        .count
        .checked_mul(num_levels)
        .and_then(|n| n.checked_mul(throughput_bins.count))
        .and_then(|n| n.checked_mul(horizon_slices))
        .ok_or(CodecError::Invalid("table dimensions overflow"))?;
    if len as usize != expected {
        return Err(CodecError::Invalid("length does not match dimensions"));
    }
    if runs > len as usize || (len > 0 && runs == 0) {
        return Err(CodecError::Invalid("run count out of range"));
    }
    let starts_off = r.pos;
    let starts = r.take(runs.checked_mul(4).ok_or(CodecError::Truncated)?)?;
    let values_off = r.pos;
    let values = r.take(runs)?;
    if r.pos != bytes.len() {
        return Err(CodecError::Truncated);
    }
    let start_at =
        |i: usize| u32::from_le_bytes(starts[4 * i..4 * i + 4].try_into().unwrap());
    if runs > 0 && start_at(0) != 0 {
        return Err(CodecError::Invalid("first run must start at 0"));
    }
    if (1..runs).any(|i| start_at(i - 1) >= start_at(i)) {
        return Err(CodecError::Invalid("run starts must strictly increase"));
    }
    if runs > 0 && start_at(runs - 1) >= len {
        return Err(CodecError::Invalid("run starts past the end"));
    }
    if values.iter().any(|&v| v as usize >= num_levels) {
        return Err(CodecError::Invalid("decision exceeds ladder"));
    }
    Ok(Layout {
        cfg: TableConfig {
            buffer_bins,
            throughput_bins,
            horizon,
            horizon_slices,
            weights: QoeWeights {
                lambda,
                mu,
                mu_s,
                mu_event,
                w_lat,
                quality,
            },
        },
        num_levels,
        buffer_max_secs,
        len,
        runs,
        starts_off,
        values_off,
    })
}

impl FastMpcTable {
    /// Serializes to the compact binary format described in the
    /// [module docs](self).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(VERSION);
        w.bins(&self.cfg.buffer_bins);
        w.bins(&self.cfg.throughput_bins);
        w.u32(self.cfg.horizon as u32);
        w.u32(self.cfg.horizon_slices as u32);
        w.f64(self.cfg.weights.lambda);
        w.f64(self.cfg.weights.mu);
        w.f64(self.cfg.weights.mu_s);
        w.f64(self.cfg.weights.mu_event);
        w.f64(self.cfg.weights.w_lat);
        w.quality(&self.cfg.weights.quality);
        w.u32(self.num_levels as u32);
        w.f64(self.buffer_max_secs);
        let (starts, values, len) = self.decisions.parts();
        w.u32(len);
        w.u32(starts.len() as u32);
        for &s in starts {
            w.u32(s);
        }
        w.buf.extend_from_slice(values);
        w.buf
    }

    /// Size of the binary serialization in bytes, without materializing it.
    pub fn binary_size_bytes(&self) -> usize {
        let quality_payload = match &self.cfg.weights.quality {
            QualityFn::Identity => 0,
            QualityFn::Log { .. } => 16,
            QualityFn::Saturating { .. } => 8,
            QualityFn::Table { knots } => 4 + 16 * knots.len(),
        };
        // magic + version, two BinSpecs, horizon + slices, five weights,
        // quality tag, num_levels, buffer_max, rle len + run count, then
        // the runs.
        4 + 2
            + 2 * (4 + 8 + 8 + 1)
            + 4
            + 4
            + 5 * 8
            + 1
            + quality_payload
            + 4
            + 8
            + 4
            + 4
            + self.decisions.size_bytes()
    }

    /// Decodes a table produced by [`FastMpcTable::to_bytes`], validating
    /// every structural invariant (via [`parse`], shared with the
    /// zero-copy [`crate::TableView`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let l = parse(bytes)?;
        let starts = bytes[l.starts_off..l.values_off]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let values = bytes[l.values_off..l.values_off + l.runs].to_vec();
        Ok(Self {
            cfg: l.cfg,
            num_levels: l.num_levels,
            buffer_max_secs: l.buffer_max_secs,
            decisions: Rle::from_parts(starts, values, l.len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::{envivio_video, LevelIdx};

    fn table() -> FastMpcTable {
        FastMpcTable::generate(&envivio_video(), 30.0, TableConfig::with_levels(12, 30.0))
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let t = table();
        let bytes = t.to_bytes();
        let back = FastMpcTable::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(
            back.lookup(12.0, LevelIdx(2), 2200.0),
            t.lookup(12.0, LevelIdx(2), 2200.0)
        );
    }

    #[test]
    fn binary_size_is_exact() {
        let t = table();
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.binary_size_bytes());
        // The binary form stays close to the raw RLE payload.
        assert!(bytes.len() < t.rle_size_bytes() + 256);
    }

    #[test]
    fn nontrivial_quality_fns_round_trip() {
        let mut cfg = TableConfig::with_levels(6, 30.0);
        for q in [
            QualityFn::Log {
                r0: 200.0,
                scale: 80.0,
            },
            QualityFn::Saturating { cap_kbps: 1500.0 },
            QualityFn::Table {
                knots: vec![(350.0, 0.0), (1200.0, 2.0), (3000.0, 3.0)],
            },
        ] {
            cfg.weights.quality = q;
            let t = FastMpcTable::generate(&envivio_video(), 30.0, cfg.clone());
            let back = FastMpcTable::from_bytes(&t.to_bytes()).unwrap();
            assert_eq!(t, back);
        }
    }

    #[test]
    fn sliced_live_table_round_trips() {
        let mut cfg = TableConfig::with_levels(8, 30.0).live_slices(3);
        cfg.weights.w_lat = 0.05;
        let t = FastMpcTable::generate(&envivio_video(), 30.0, cfg);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.binary_size_bytes());
        let back = FastMpcTable::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.config().horizon_slices, 3);
        assert_eq!(back.config().weights.w_lat, 0.05);
        for h_eff in 1..=5 {
            assert_eq!(
                back.lookup_live(5.0, LevelIdx(1), 1200.0, h_eff),
                t.lookup_live(5.0, LevelIdx(1), 1200.0, h_eff)
            );
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = table().to_bytes();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(FastMpcTable::from_bytes(&wrong), Err(CodecError::BadMagic));
        bytes[4] = 99; // version low byte
        assert_eq!(
            FastMpcTable::from_bytes(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let bytes = table().to_bytes();
        for cut in [0, 3, 6, 20, bytes.len() - 1] {
            assert_eq!(
                FastMpcTable::from_bytes(&bytes[..cut]),
                Err(CodecError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(FastMpcTable::from_bytes(&padded), Err(CodecError::Truncated));
    }

    #[test]
    fn rejects_corrupted_decisions() {
        let t = table();
        let bytes = t.to_bytes();
        // The run values are the trailing bytes; point one past the ladder.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] = 200;
        assert_eq!(
            FastMpcTable::from_bytes(&corrupt),
            Err(CodecError::Invalid("decision exceeds ladder"))
        );
    }

    #[test]
    fn errors_format_meaningfully() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::UnsupportedVersion(7).to_string().contains('7'));
        assert!(CodecError::Invalid("x").to_string().contains('x'));
    }
}
