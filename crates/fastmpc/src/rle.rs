//! Run-length encoding of the decision vector with binary-search retrieval
//! (Section 5.2, "table compression").
//!
//! The offline table has massive structure — long runs of identical optimal
//! decisions across neighbouring scenarios — so a lossless run-length code
//! shrinks it dramatically (the paper reports 60 kB at 100 bins, 82 %
//! reduction at 500 bins). Retrieval stays `O(log runs)` via binary search
//! over run start offsets, exactly the paper's online mechanism.

/// A run-length-encoded byte vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rle {
    /// Start offset of each run (ascending; first is 0 when non-empty).
    starts: Vec<u32>,
    /// Value of each run.
    values: Vec<u8>,
    /// Total decoded length.
    len: u32,
}

impl Rle {
    /// Encodes a byte slice. Lengths above `u32::MAX` are rejected (a
    /// FastMPC table is orders of magnitude smaller).
    pub fn encode(data: &[u8]) -> Self {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "vector too long for RLE offsets"
        );
        let mut starts = Vec::new();
        let mut values = Vec::new();
        let mut prev: Option<u8> = None;
        for (i, &b) in data.iter().enumerate() {
            if prev != Some(b) {
                starts.push(i as u32);
                values.push(b);
                prev = Some(b);
            }
        }
        Self {
            starts,
            values,
            len: data.len() as u32,
        }
    }

    /// Decodes back to the full byte vector.
    pub fn decode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len as usize);
        for (i, &start) in self.starts.iter().enumerate() {
            let end = self
                .starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.len);
            out.resize(out.len() + (end - start) as usize, self.values[i]);
        }
        out
    }

    /// Random access without decoding: binary search over run starts.
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> u8 {
        assert!((idx as u64) < self.len as u64, "index {idx} out of range");
        let run = self.starts.partition_point(|&s| s as usize <= idx) - 1;
        self.values[run]
    }

    /// Decoded length.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the decoded vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.values.len()
    }

    /// In-memory size of the encoded form: 4 bytes per run offset plus
    /// 1 byte per run value (the Table 1 "run length coding" column).
    pub fn size_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>() + self.values.len()
    }

    /// Raw parts for the binary codec: `(run starts, run values, length)`.
    pub(crate) fn parts(&self) -> (&[u32], &[u8], u32) {
        (&self.starts, &self.values, self.len)
    }

    /// Reassembles from raw parts. The caller (the binary codec) is
    /// responsible for having validated the invariants: equally many starts
    /// and values, starts strictly increasing from 0, all below `len`.
    pub(crate) fn from_parts(starts: Vec<u32>, values: Vec<u8>, len: u32) -> Self {
        debug_assert_eq!(starts.len(), values.len());
        debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(len == 0 || (starts.first() == Some(&0)));
        Self {
            starts,
            values,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_par::{check, SplitMix64};

    #[test]
    fn empty_round_trip() {
        let r = Rle::encode(&[]);
        assert!(r.is_empty());
        assert_eq!(r.decode(), Vec::<u8>::new());
        assert_eq!(r.runs(), 0);
        assert_eq!(r.size_bytes(), 0);
    }

    #[test]
    fn single_value() {
        let r = Rle::encode(&[7]);
        assert_eq!(r.decode(), vec![7]);
        assert_eq!(r.get(0), 7);
        assert_eq!(r.runs(), 1);
    }

    #[test]
    fn long_uniform_run_compresses_hard() {
        let data = vec![3u8; 50_000];
        let r = Rle::encode(&data);
        assert_eq!(r.runs(), 1);
        assert_eq!(r.size_bytes(), 5);
        assert_eq!(r.decode(), data);
        assert_eq!(r.get(49_999), 3);
    }

    #[test]
    fn alternating_does_not_compress() {
        let data: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        let r = Rle::encode(&data);
        assert_eq!(r.runs(), 100);
        assert!(r.size_bytes() > data.len());
        assert_eq!(r.decode(), data);
    }

    #[test]
    fn get_at_run_boundaries() {
        let data = [1u8, 1, 1, 2, 2, 3];
        let r = Rle::encode(&data);
        assert_eq!(r.get(0), 1);
        assert_eq!(r.get(2), 1);
        assert_eq!(r.get(3), 2);
        assert_eq!(r.get(4), 2);
        assert_eq!(r.get(5), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        Rle::encode(&[1, 2]).get(2);
    }

    fn random_levels(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<u8> {
        rng.vec(len, |r| r.range(0u8..5))
    }

    /// decode(encode(x)) == x.
    #[test]
    fn round_trip() {
        check(256, |rng| {
            let data = random_levels(rng, 0..2000);
            let r = Rle::encode(&data);
            assert_eq!(r.decode(), data);
        });
    }

    /// get(i) equals the original element for every index.
    #[test]
    fn random_access_matches() {
        check(256, |rng| {
            let data = random_levels(rng, 1..500);
            let r = Rle::encode(&data);
            for (i, &b) in data.iter().enumerate() {
                assert_eq!(r.get(i), b);
            }
        });
    }

    /// Run count never exceeds the data length, and size never exceeds
    /// 5x the run count.
    #[test]
    fn size_accounting() {
        check(256, |rng| {
            let data = random_levels(rng, 0..500);
            let r = Rle::encode(&data);
            assert!(r.runs() <= data.len());
            assert_eq!(r.size_bytes(), r.runs() * 5);
        });
    }
}
