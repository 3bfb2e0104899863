//! Chunked video representation: `K` chunks of `L` seconds, each encoded at
//! every ladder level with size `d_k(R)` kilobits.

use crate::digest::Fnv;
use crate::ladder::{Ladder, LevelIdx};

/// Per-chunk encoded sizes, one entry per ladder level, in kilobits.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSizes {
    sizes_kbits: Vec<f64>,
}

impl ChunkSizes {
    /// Creates per-level sizes. Must be one positive entry per ladder level,
    /// non-decreasing with level (a higher bitrate never yields a smaller
    /// chunk).
    pub fn new(sizes_kbits: Vec<f64>) -> Option<Self> {
        if sizes_kbits.is_empty() {
            return None;
        }
        let ok = sizes_kbits[0] > 0.0
            && sizes_kbits.windows(2).all(|w| w[1] >= w[0])
            && sizes_kbits.iter().all(|s| s.is_finite());
        ok.then_some(Self { sizes_kbits })
    }

    /// Size at a level, kilobits.
    #[inline]
    pub fn kbits(&self, level: LevelIdx) -> f64 {
        self.sizes_kbits[level.0]
    }
}

/// A video as seen by the adaptation layer: a bitrate ladder plus per-chunk
/// per-level sizes.
///
/// Constant-bitrate (CBR) videos have `d_k(R) = L * R` for every chunk;
/// variable-bitrate (VBR) videos carry explicit per-chunk sizes (the paper
/// notes that the DASH manifest standard unfortunately does not mandate
/// them — our [`VideoBuilder::vbr`] models them directly).
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    ladder: Ladder,
    chunk_secs: f64,
    chunks: Vec<ChunkSizes>,
    /// [`Video::digest`], taken at construction.
    digest: u128,
}

impl Video {
    /// The one constructor: every video takes its digest here.
    fn from_parts(ladder: Ladder, chunk_secs: f64, chunks: Vec<ChunkSizes>) -> Self {
        let mut video = Video {
            ladder,
            chunk_secs,
            chunks,
            digest: 0,
        };
        let mut h = Fnv::new();
        h.video(&video);
        video.digest = h.finish();
        video
    }

    /// FNV-1a-128 over the video's chunk length, chunk count, ladder
    /// length, levels and every chunk size, in that order: the state of a
    /// fresh [`Fnv`] after [`Fnv::video`]. It is taken once, when the
    /// video is built, so a key that starts with the video resumes the
    /// stream from here ([`Fnv::resume`]) in time independent of the
    /// video's length. Equal videos have equal digests; a clone keeps it.
    #[inline]
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// The bitrate ladder.
    #[inline]
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Chunk duration `L` in seconds (uniform across the video).
    #[inline]
    pub fn chunk_secs(&self) -> f64 {
        self.chunk_secs
    }

    /// Number of chunks `K`.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total play time in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.chunk_secs * self.chunks.len() as f64
    }

    /// Size of chunk `k` at ladder level `level`, in kilobits: `d_k(R)`.
    ///
    /// Panics if `k` or `level` is out of range.
    #[inline]
    pub fn chunk_size_kbits(&self, k: usize, level: LevelIdx) -> f64 {
        self.chunks[k].kbits(level)
    }

    /// Sizes of chunk `k` at every ladder level, lowest level first, in
    /// kilobits. They never fall with the level.
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn chunk_sizes_kbits(&self, k: usize) -> &[f64] {
        &self.chunks[k].sizes_kbits
    }

    /// Effective bitrate of chunk `k` at `level` (size / duration), kbps.
    /// Equal to the ladder bitrate for CBR content.
    #[inline]
    pub fn chunk_effective_kbps(&self, k: usize, level: LevelIdx) -> f64 {
        self.chunk_size_kbits(k, level) / self.chunk_secs
    }

    /// Returns a copy of this video truncated to its first `k` chunks
    /// (useful for tests and horizon-limited experiments).
    pub fn truncated(&self, k: usize) -> Video {
        Video::from_parts(
            self.ladder.clone(),
            self.chunk_secs,
            self.chunks[..k.min(self.chunks.len())].to_vec(),
        )
    }
}

/// Builder for [`Video`].
#[derive(Debug, Clone)]
pub struct VideoBuilder {
    ladder: Ladder,
    chunks: usize,
    chunk_secs: f64,
}

impl VideoBuilder {
    /// Starts a builder with the given bitrate ladder. Defaults: 65 chunks of
    /// 4 seconds (the paper's reference video shape).
    pub fn new(ladder: Ladder) -> Self {
        Self {
            ladder,
            chunks: crate::ENVIVIO_CHUNKS,
            chunk_secs: crate::ENVIVIO_CHUNK_SECS,
        }
    }

    /// Sets the number of chunks `K` (must be > 0).
    pub fn chunks(mut self, k: usize) -> Self {
        assert!(k > 0, "video must have at least one chunk");
        self.chunks = k;
        self
    }

    /// Sets the chunk duration `L` in seconds (must be > 0).
    pub fn chunk_secs(mut self, l: f64) -> Self {
        assert!(l > 0.0 && l.is_finite(), "chunk duration must be positive");
        self.chunk_secs = l;
        self
    }

    /// Builds a constant-bitrate video: `d_k(R) = L * R`.
    pub fn cbr(self) -> Video {
        let sizes = ChunkSizes::new(
            self.ladder
                .levels()
                .iter()
                .map(|r| r * self.chunk_secs)
                .collect(),
        )
        .expect("ladder levels are positive and increasing");
        Video::from_parts(self.ladder, self.chunk_secs, vec![sizes; self.chunks])
    }

    /// Builds a variable-bitrate video where chunk `k`'s size at every level
    /// is the CBR size scaled by `scale(k)`. Scales must be positive;
    /// values around 1.0 model normal VBR variation (e.g. 0.7..1.3 for
    /// alternating static/dynamic scenes).
    pub fn vbr(self, scale: impl Fn(usize) -> f64) -> Video {
        let chunks = (0..self.chunks)
            .map(|k| {
                let s = scale(k);
                assert!(
                    s > 0.0 && s.is_finite(),
                    "VBR scale must be positive and finite (chunk {k} had {s})"
                );
                ChunkSizes::new(
                    self.ladder
                        .levels()
                        .iter()
                        .map(|r| r * self.chunk_secs * s)
                        .collect(),
                )
                .expect("scaled sizes remain positive and non-decreasing")
            })
            .collect();
        Video::from_parts(self.ladder, self.chunk_secs, chunks)
    }

    /// Builds a VBR video from explicit per-chunk per-level sizes (kilobits).
    /// Returns `None` if dimensions don't match the ladder/chunk count or any
    /// row violates the non-decreasing-size invariant.
    pub fn explicit_sizes(self, sizes: Vec<Vec<f64>>) -> Option<Video> {
        if sizes.len() != self.chunks {
            return None;
        }
        let mut rows = Vec::with_capacity(sizes.len());
        for row in sizes {
            if row.len() != self.ladder.len() {
                return None;
            }
            rows.push(ChunkSizes::new(row)?);
        }
        Some(Video::from_parts(self.ladder, self.chunk_secs, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Ladder {
        Ladder::new(vec![350.0, 600.0, 1000.0, 2000.0, 3000.0]).unwrap()
    }

    #[test]
    fn cbr_sizes_are_rate_times_duration() {
        let v = VideoBuilder::new(ladder()).chunks(10).chunk_secs(2.0).cbr();
        assert_eq!(v.num_chunks(), 10);
        assert!((v.chunk_size_kbits(3, LevelIdx(2)) - 2000.0).abs() < 1e-9);
        assert!((v.chunk_effective_kbps(3, LevelIdx(2)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn vbr_scales_apply_per_chunk() {
        let v = VideoBuilder::new(ladder())
            .chunks(4)
            .chunk_secs(4.0)
            .vbr(|k| if k % 2 == 0 { 0.8 } else { 1.2 });
        assert!((v.chunk_size_kbits(0, LevelIdx(0)) - 350.0 * 4.0 * 0.8).abs() < 1e-9);
        assert!((v.chunk_size_kbits(1, LevelIdx(0)) - 350.0 * 4.0 * 1.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "VBR scale must be positive")]
    fn vbr_rejects_nonpositive_scale() {
        let _ = VideoBuilder::new(ladder()).chunks(2).vbr(|_| 0.0);
    }

    #[test]
    fn explicit_sizes_validated() {
        let b = || VideoBuilder::new(ladder()).chunks(2).chunk_secs(4.0);
        // Wrong chunk count.
        assert!(b().explicit_sizes(vec![vec![1.0; 5]]).is_none());
        // Wrong level count.
        assert!(b().explicit_sizes(vec![vec![1.0; 4], vec![1.0; 5]]).is_none());
        // Decreasing row.
        assert!(b()
            .explicit_sizes(vec![
                vec![5.0, 4.0, 6.0, 7.0, 8.0],
                vec![1.0, 2.0, 3.0, 4.0, 5.0]
            ])
            .is_none());
        // Valid.
        let v = b()
            .explicit_sizes(vec![
                vec![1.0, 2.0, 3.0, 4.0, 5.0],
                vec![2.0, 3.0, 4.0, 5.0, 6.0],
            ])
            .unwrap();
        assert!((v.chunk_size_kbits(1, LevelIdx(4)) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let v = VideoBuilder::new(ladder()).chunks(10).cbr();
        let t = v.truncated(3);
        assert_eq!(t.num_chunks(), 3);
        let t2 = v.truncated(99);
        assert_eq!(t2.num_chunks(), 10);
    }

    #[test]
    fn chunk_sizes_reject_bad_rows() {
        assert!(ChunkSizes::new(vec![]).is_none());
        assert!(ChunkSizes::new(vec![0.0]).is_none());
        assert!(ChunkSizes::new(vec![2.0, 1.0]).is_none());
        assert!(ChunkSizes::new(vec![1.0, f64::NAN]).is_none());
        assert!(ChunkSizes::new(vec![1.0, 1.0]).is_some()); // equal is allowed
    }
}
