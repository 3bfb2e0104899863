//! Zero-copy decision-table access over validated `FMPC` bytes.
//!
//! The warm tier of the tiered table store keeps evicted tables as on-disk
//! binaries and serves them memory-mapped. Deserializing such a file back
//! into an owned [`FastMpcTable`] would copy the whole run array — exactly
//! the allocation the tier exists to avoid — so [`TableView`] runs
//! `lookup`/`lookup_live` directly over the encoded bytes:
//!
//! * construction calls [`codec::parse`] — the *same* validator
//!   [`FastMpcTable::from_bytes`] is built on — so a view exists only for
//!   byte strings an owned decode would accept, and the offsets it reads
//!   through certify in-bounds, in-ladder accesses (the validated-prefix
//!   invariant; see `DESIGN.md` §12);
//! * run starts are stored little-endian at arbitrary alignment, so every
//!   access goes through `u32::from_le_bytes` on a 4-byte slice — no
//!   pointer casts, no `unsafe`, and identical behavior on any
//!   endianness;
//! * the lookups mirror [`Rle::get`]'s binary search over the run starts
//!   and are pinned bit-identical to the owned path by seeded property
//!   differentials below.
//!
//! `B` is any stable byte container — `Vec<u8>` in tests,
//! `abr_net::mmap::Mmap` in the warm tier ([`crate::TableHandle`]).
//!
//! [`Rle::get`]: crate::Rle::get

use crate::codec::{self, CodecError};
use crate::table::TableConfig;
use abr_video::LevelIdx;

/// A decision table served directly from encoded `FMPC` bytes.
///
/// Behaves exactly like the [`FastMpcTable`](crate::FastMpcTable) decoded
/// from the same bytes — same clamping, same decisions, bit for bit — but
/// owns nothing beyond the byte container and a parsed header.
#[derive(Debug)]
pub struct TableView<B> {
    bytes: B,
    cfg: TableConfig,
    num_levels: usize,
    buffer_max_secs: f64,
    len: u32,
    runs: usize,
    starts_off: usize,
    values_off: usize,
}

impl<B: AsRef<[u8]>> TableView<B> {
    /// Validates `bytes` as an encoded table and wraps them. Accepts and
    /// rejects exactly the byte strings
    /// [`FastMpcTable::from_bytes`](crate::FastMpcTable::from_bytes) does,
    /// with the same errors (both run [`codec::parse`]).
    pub fn new(bytes: B) -> Result<Self, CodecError> {
        let l = codec::parse(bytes.as_ref())?;
        Ok(Self {
            bytes,
            cfg: l.cfg,
            num_levels: l.num_levels,
            buffer_max_secs: l.buffer_max_secs,
            len: l.len,
            runs: l.runs,
            starts_off: l.starts_off,
            values_off: l.values_off,
        })
    }

    /// Start offset of run `run` (unaligned little-endian read).
    #[inline]
    fn start_at(&self, run: usize) -> u32 {
        let off = self.starts_off + 4 * run;
        u32::from_le_bytes(self.bytes.as_ref()[off..off + 4].try_into().unwrap())
    }

    /// Value of run `run`.
    #[inline]
    fn value_at(&self, run: usize) -> u8 {
        self.bytes.as_ref()[self.values_off + run]
    }

    /// Index of the run containing flat index `idx` — the binary search
    /// [`Rle::get`](crate::Rle::get) does, over in-place starts.
    #[inline]
    fn run_of(&self, idx: u32) -> usize {
        debug_assert!(idx < self.len);
        let (mut lo, mut hi) = (0usize, self.runs);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.start_at(mid) <= idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo - 1
    }

    /// Online lookup over the mapped bytes; bit-identical to
    /// [`FastMpcTable::lookup`](crate::FastMpcTable::lookup) on the same
    /// encoded table.
    pub fn lookup(&self, buffer_secs: f64, prev: LevelIdx, throughput_kbps: f64) -> LevelIdx {
        let b = self.cfg.buffer_bins.index_of(buffer_secs);
        let p = prev.get().min(self.num_levels - 1);
        let c = self.cfg.throughput_bins.index_of(throughput_kbps);
        let idx = (b * self.num_levels + p) * self.cfg.throughput_bins.count + c;
        LevelIdx(self.value_at(self.run_of(idx as u32)) as usize)
    }

    /// Live lookup in the truncated-horizon slice over the mapped bytes;
    /// bit-identical to
    /// [`FastMpcTable::lookup_live`](crate::FastMpcTable::lookup_live).
    pub fn lookup_live(
        &self,
        buffer_secs: f64,
        prev: LevelIdx,
        throughput_kbps: f64,
        effective_horizon: usize,
    ) -> LevelIdx {
        let s = self
            .cfg
            .horizon
            .saturating_sub(effective_horizon.max(1))
            .min(self.cfg.horizon_slices - 1);
        let b = self.cfg.buffer_bins.index_of(buffer_secs);
        let p = prev.get().min(self.num_levels - 1);
        let c = self.cfg.throughput_bins.index_of(throughput_kbps);
        let grid = self.cfg.buffer_bins.count * self.num_levels * self.cfg.throughput_bins.count;
        let idx = s * grid + (b * self.num_levels + p) * self.cfg.throughput_bins.count + c;
        LevelIdx(self.value_at(self.run_of(idx as u32)) as usize)
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Ladder size the table was generated for.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Buffer capacity the table was generated for.
    pub fn buffer_max_secs(&self) -> f64 {
        self.buffer_max_secs
    }

    /// Number of scenarios (rows) in the table.
    pub fn num_entries(&self) -> usize {
        self.len as usize
    }

    /// Number of RLE runs in the encoded table.
    pub fn num_runs(&self) -> usize {
        self.runs
    }

    /// Size of the underlying encoded bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.as_ref().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::FastMpcTable;
    use abr_video::envivio_video;
    use abr_par::{check, SplitMix64};
    use std::sync::OnceLock;

    fn shared_bytes() -> &'static Vec<u8> {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            FastMpcTable::generate(&envivio_video(), 30.0, TableConfig::with_levels(12, 30.0))
                .to_bytes()
        })
    }

    #[test]
    fn view_parses_what_from_bytes_parses() {
        let bytes = shared_bytes();
        let view = TableView::new(bytes.clone()).unwrap();
        let owned = FastMpcTable::from_bytes(bytes).unwrap();
        assert_eq!(view.config(), owned.config());
        assert_eq!(view.num_levels(), 5);
        assert_eq!(view.buffer_max_secs(), owned.buffer_max_secs());
        assert_eq!(view.num_entries(), owned.num_entries());
        assert_eq!(view.num_runs(), owned.num_runs());
        assert_eq!(view.size_bytes(), bytes.len());
    }

    #[test]
    fn view_over_mmap_matches_owned_lookup() {
        let bytes = shared_bytes();
        let mut path = std::env::temp_dir();
        path.push(format!("abr_view_test_{}.fmpc", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let map = abr_net::mmap::Mmap::open(&path).unwrap();
        let view = TableView::new(map).unwrap();
        let owned = FastMpcTable::from_bytes(bytes).unwrap();
        for (buffer, prev, thr) in
            [(0.0, 0, 120.0), (12.0, 2, 2200.0), (30.0, 4, 9500.0), (-1.0, 0, 50.0), (99.0, 4, 1e6)]
        {
            assert_eq!(
                view.lookup(buffer, LevelIdx(prev), thr),
                owned.lookup(buffer, LevelIdx(prev), thr),
            );
        }
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_truncation_prefixes_identically_to_owned_decode() {
        let bytes = shared_bytes();
        for cut in 0..bytes.len() {
            let owned_err = FastMpcTable::from_bytes(&bytes[..cut]).err();
            let view_err = TableView::new(&bytes[..cut]).err();
            assert!(view_err.is_some(), "every proper prefix must be rejected (cut {cut})");
            assert_eq!(owned_err, view_err, "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(TableView::new(&padded[..]).unwrap_err(), CodecError::Truncated);
    }

    /// Random `(buffer, prev level, throughput)` probes.
    fn random_probes(
        rng: &mut SplitMix64,
        len: std::ops::Range<usize>,
    ) -> Vec<(f64, usize, f64)> {
        rng.vec(len, |r| (r.range(-5.0..40.0), r.below(5), r.range(50.0..20_000.0)))
    }

    /// Scalar differential: every probe through the view equals the
    /// owned decode of the same bytes, bit for bit.
    #[test]
    fn view_lookup_matches_owned() {
        check(48, |rng| {
            let probes = random_probes(rng, 1..64);
            let bytes = shared_bytes();
            let view = TableView::new(bytes.clone()).unwrap();
            let owned = FastMpcTable::from_bytes(bytes).unwrap();
            for &(buffer, prev, thr) in &probes {
                assert_eq!(
                    view.lookup(buffer, LevelIdx(prev), thr),
                    owned.lookup(buffer, LevelIdx(prev), thr)
                );
            }
        });
    }

    /// Corruption differential: any single-byte flip is accepted or
    /// rejected identically by the view and the owned decode; when both
    /// accept, the tables still agree everywhere probed.
    #[test]
    fn corrupt_bytes_reject_identically() {
        check(48, |rng| {
            let pos_frac = rng.next_f64();
            let delta = rng.range(1u8..=255);
            let probes = random_probes(rng, 1..16);
            let mut bytes = shared_bytes().clone();
            let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[pos] = bytes[pos].wrapping_add(delta);
            let owned = FastMpcTable::from_bytes(&bytes);
            let view = TableView::new(bytes.clone());
            assert_eq!(owned.as_ref().err(), view.as_ref().err(), "flip at {}", pos);
            if let (Ok(owned), Ok(view)) = (owned, view) {
                for &(buffer, prev, thr) in &probes {
                    assert_eq!(
                        view.lookup(buffer, LevelIdx(prev), thr),
                        owned.lookup(buffer, LevelIdx(prev), thr)
                    );
                }
            }
        });
    }
}
