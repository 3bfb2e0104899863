//! FNV-1a-128, the content hash the workspace's caches key on.
//!
//! The FastMPC table store and the offline-optimum cache identify a
//! problem by hashing the exact bit patterns of its inputs, so an entry is
//! never served for a different problem. Both hash a [`Video`] the same
//! way ([`Fnv::video`]), and every `Video` carries that hash of itself,
//! taken once when it is built ([`Video::digest`]); a throughput trace
//! carries one of its segments the same way (`abr_trace::Trace::digest`).
//! FNV-1a is a stream, so a key whose first input is the video can resume
//! from the digest ([`Fnv::resume`]) instead of rehashing every chunk
//! size, and a key over a trace hashes its digest ([`Fnv::u128`]).

use crate::chunk::Video;
use crate::ladder::LevelIdx;
use crate::quality::QualityFn;

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit FNV-1a stream: cheap, dependency-free, and wide enough that
/// collisions across the few thousand problems a process caches are not a
/// concern. Floats are hashed by bit pattern and lengths as little-endian
/// `u64`s. The per-value methods are `#[inline]` so that callers in other
/// crates hash without a call per value.
#[derive(Debug, Clone)]
pub struct Fnv(u128);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A fresh stream.
    #[inline]
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Continues a stream whose state so far is `state`: hashing further
    /// bytes gives exactly the value a single stream over all of them
    /// would.
    #[inline]
    pub const fn resume(state: u128) -> Self {
        Self(state)
    }

    /// The stream's state: the hash of everything fed so far.
    #[inline]
    pub const fn finish(&self) -> u128 {
        self.0
    }

    /// Hashes one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u128::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Hashes a float's bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Hashes a 128-bit value, such as another stream's digest.
    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a length or count.
    #[inline]
    pub fn len(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    /// Hashes a video: chunk length, chunk count, ladder length, every
    /// level and every per-chunk per-level size (so VBR videos differ).
    /// From a fresh stream this is [`Video::digest`].
    pub fn video(&mut self, video: &Video) {
        self.f64(video.chunk_secs());
        self.len(video.num_chunks());
        self.len(video.ladder().len());
        for &r in video.ladder().levels() {
            self.f64(r);
        }
        for k in 0..video.num_chunks() {
            for l in 0..video.ladder().len() {
                self.f64(video.chunk_size_kbits(k, LevelIdx(l)));
            }
        }
    }

    /// Hashes a quality function: a variant tag, then its parameters.
    pub fn quality(&mut self, quality: &QualityFn) {
        match quality {
            QualityFn::Identity => self.byte(0),
            QualityFn::Log { r0, scale } => {
                self.byte(1);
                self.f64(*r0);
                self.f64(*scale);
            }
            QualityFn::Saturating { cap_kbps } => {
                self.byte(2);
                self.f64(*cap_kbps);
            }
            QualityFn::Table { knots } => {
                self.byte(3);
                self.len(knots.len());
                for &(b, q) in knots {
                    self.f64(b);
                    self.f64(q);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{envivio_video, Ladder, VideoBuilder};

    fn ladder() -> Ladder {
        Ladder::new(vec![300.0, 750.0, 1850.0, 4300.0]).unwrap()
    }

    fn sizes() -> Vec<Vec<f64>> {
        (0..6)
            .map(|k| {
                ladder()
                    .levels()
                    .iter()
                    .map(|r| r * (3.0 + k as f64 * 0.25))
                    .collect()
            })
            .collect()
    }

    fn explicit(sizes: Vec<Vec<f64>>) -> Video {
        VideoBuilder::new(ladder())
            .chunks(sizes.len())
            .chunk_secs(3.0)
            .explicit_sizes(sizes)
            .unwrap()
    }

    #[test]
    fn digest_is_the_fresh_stream_over_the_video() {
        let cbr = envivio_video();
        let vbr = VideoBuilder::new(ladder())
            .chunks(12)
            .vbr(|k| 0.8 + (k % 5) as f64 * 0.1);
        for video in [cbr, vbr, explicit(sizes())] {
            let mut h = Fnv::new();
            h.video(&video);
            assert_eq!(video.digest(), h.finish());
            assert_eq!(video.clone().digest(), video.digest(), "a clone keeps it");
        }
    }

    #[test]
    fn resuming_equals_one_stream() {
        let video = envivio_video();
        let mut one = Fnv::new();
        one.video(&video);
        one.f64(30.0);
        one.byte(7);
        let mut resumed = Fnv::resume(video.digest());
        resumed.f64(30.0);
        resumed.byte(7);
        assert_eq!(one.finish(), resumed.finish());
    }

    #[test]
    fn one_chunk_size_moves_the_digest() {
        let base = explicit(sizes());
        let mut bumped = sizes();
        bumped[4][2] = f64::from_bits(bumped[4][2].to_bits() + 1);
        let bumped = explicit(bumped);
        assert_ne!(base.digest(), bumped.digest());
        assert_eq!(base.digest(), explicit(sizes()).digest());
        // Truncation rebuilds the digest for the shorter video.
        let cut = base.truncated(3);
        let mut h = Fnv::new();
        h.video(&cut);
        assert_eq!(cut.digest(), h.finish());
        assert_ne!(cut.digest(), base.digest());
    }
}
