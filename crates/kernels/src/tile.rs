//! Block-CSR tiling of a [`StructuredMask`].
//!
//! Not on the forward path: the blocked engine
//! ([`sparse_flash_attention_blocked`](crate::sparse_flash_attention_blocked))
//! works straight off mask geometry. The layout survives as an analysis
//! view of a mask (occupancy classes, predicted row loads) and because
//! the repo benchmark's kernel probes are compiled against it.
//!
//! A [`TiledMask`] regroups a mask's live set into fixed-size
//! `tile × tile` query×key blocks, stored CSR-style per query-tile row,
//! with a per-tile occupancy class:
//!
//! * [`TileClass::Full`] — every row's local window covers the whole
//!   tile width.
//! * [`TileClass::Window`] — each row's live set inside the tile is
//!   exactly its window clip, one contiguous `(lo, hi)` span per row.
//! * [`TileClass::Bitmap`] — anything irregular (sink columns, stripe
//!   diagonals, mixed segments): one 64-bit occupancy word per row,
//!   which is why tile sizes are capped at [`MAX_TILE`].
//!
//! Tiling is pure bookkeeping: the live set is untouched, so
//! [`TiledMask::expand`] reproduces `mask.to_dense()` exactly.

use crate::mask::{DenseMask, StructuredMask};
use crate::{sparse_flash_attention_blocked, AttentionOutput};
use sa_tensor::{Matrix, TensorError};

/// Hard cap on the tile edge so a bitmap row always fits one `u64`.
pub const MAX_TILE: usize = 64;

/// Bookkeeping cost of one tile entry, in K-row-load units, used by the
/// analytic load predictor ([`TiledMask::predict_row_loads`]).
const TILE_ENTRY_OVERHEAD: u64 = 4;

/// Occupancy class of one query×key tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileClass {
    /// Every in-bounds row's window covers the whole tile width.
    Full,
    /// Per-row contiguous window clips, `(lo, hi)` offsets within the
    /// tile (`lo == hi` marks an empty row).
    Window { spans: Vec<(u16, u16)> },
    /// Per-row occupancy bitmap; bit `t` is key `key_tile * tile + t`.
    Bitmap { bits: Vec<u64> },
}

impl TileClass {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TileClass::Full => "full",
            TileClass::Window { .. } => "window",
            TileClass::Bitmap { .. } => "bitmap",
        }
    }
}

/// One live tile in a query-tile row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileEntry {
    /// Key-tile index; the tile covers keys `key_tile * tile ..`.
    pub key_tile: usize,
    /// How the tile's live set is encoded.
    pub class: TileClass,
}

/// Block-CSR view of a [`StructuredMask`]: per query-tile row, the
/// sorted list of live key tiles with their occupancy classes.
#[derive(Debug, Clone)]
pub struct TiledMask {
    mask: StructuredMask,
    tile: usize,
    q_tiles: usize,
    /// CSR offsets into `entries`, length `q_tiles + 1`.
    row_ptr: Vec<usize>,
    entries: Vec<TileEntry>,
    nnz: usize,
    full_tiles: usize,
    window_tiles: usize,
    bitmap_tiles: usize,
}

impl TiledMask {
    /// Tiles `mask` into `tile × tile` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when `tile` is zero or
    /// exceeds [`MAX_TILE`], or when the mask has a zero dimension.
    pub fn build(mask: StructuredMask, tile: usize) -> Result<Self, TensorError> {
        if tile == 0 || tile > MAX_TILE {
            return Err(TensorError::InvalidDimension {
                op: "TiledMask::build",
                what: format!("tile size {tile} outside 1..={MAX_TILE}"),
            });
        }
        if mask.s_q() == 0 || mask.s_k() == 0 {
            return Err(TensorError::InvalidDimension {
                op: "TiledMask::build",
                what: format!("degenerate mask shape {}x{}", mask.s_q(), mask.s_k()),
            });
        }
        let (s_q, s_k) = (mask.s_q(), mask.s_k());
        let q_tiles = s_q.div_ceil(tile);
        let extras = mask.extra_columns();
        let diagonals = mask.diagonal_offsets();

        let mut row_ptr = Vec::with_capacity(q_tiles + 1);
        row_ptr.push(0usize);
        let mut entries: Vec<TileEntry> = Vec::new();
        let mut nnz = 0usize;
        let (mut full_tiles, mut window_tiles, mut bitmap_tiles) = (0usize, 0usize, 0usize);
        let mut candidates: Vec<usize> = Vec::new();

        for qt in 0..q_tiles {
            let r0 = qt * tile;
            let r1 = (r0 + tile).min(s_q);
            candidate_key_tiles(&mask, tile, r0, r1, &mut candidates);
            for &kt in candidates.iter() {
                let c0 = kt * tile;
                let c_end = (c0 + tile).min(s_k);
                let mut spans: Vec<(u16, u16)> = Vec::with_capacity(r1 - r0);
                let mut bits: Vec<u64> = Vec::with_capacity(r1 - r0);
                let mut tile_nnz = 0usize;
                let mut all_rows_full = true;
                let mut any_sub_window = false;
                for r in r0..r1 {
                    let Some(end) = mask.causal_end(r) else {
                        spans.push((0, 0));
                        bits.push(0);
                        all_rows_full = false;
                        continue;
                    };
                    let ws = mask.window_start(r);
                    // Window clip inside the tile.
                    let lo = c0.max(ws);
                    let hi = c_end.min(end + 1);
                    let (lo, hi) = if lo < hi { (lo, hi) } else { (c0, c0) };
                    let mut win_bits: u64 = 0;
                    if hi > lo {
                        let n = hi - lo;
                        let run = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                        win_bits = run << (lo - c0);
                    }
                    // Sub-window live keys (sinks/stripes below the
                    // window) that land inside this tile.
                    let sub_hi = c_end.min(ws).min(end + 1);
                    let mut sub_bits: u64 = 0;
                    if c0 < sub_hi {
                        let a = extras.partition_point(|&c| c < c0);
                        let b = extras.partition_point(|&c| c < sub_hi);
                        for &c in &extras[a..b] {
                            sub_bits |= 1u64 << (c - c0);
                        }
                        for &delta in diagonals {
                            if let Some(j) = end.checked_sub(delta) {
                                if j >= c0 && j < sub_hi {
                                    sub_bits |= 1u64 << (j - c0);
                                }
                            }
                        }
                    }
                    if sub_bits != 0 {
                        any_sub_window = true;
                    }
                    if !(ws <= c0 && end + 1 >= c_end) {
                        all_rows_full = false;
                    }
                    let row_bits = win_bits | sub_bits;
                    tile_nnz += row_bits.count_ones() as usize;
                    spans.push(((lo - c0) as u16, (hi - c0) as u16));
                    bits.push(row_bits);
                }
                if tile_nnz == 0 {
                    continue;
                }
                nnz += tile_nnz;
                let class = if all_rows_full {
                    full_tiles += 1;
                    TileClass::Full
                } else if !any_sub_window {
                    window_tiles += 1;
                    TileClass::Window { spans }
                } else {
                    bitmap_tiles += 1;
                    TileClass::Bitmap { bits }
                };
                entries.push(TileEntry { key_tile: kt, class });
            }
            row_ptr.push(entries.len());
        }

        Ok(TiledMask {
            mask,
            tile,
            q_tiles,
            row_ptr,
            entries,
            nnz,
            full_tiles,
            window_tiles,
            bitmap_tiles,
        })
    }

    /// The tile edge length.
    #[inline]
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of query-tile rows (`ceil(s_q / tile)`).
    #[inline]
    pub fn q_tiles(&self) -> usize {
        self.q_tiles
    }

    /// The underlying structured mask.
    #[inline]
    pub fn mask(&self) -> &StructuredMask {
        &self.mask
    }

    /// Live entries, identical to `mask().nnz()`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total number of live tiles.
    pub fn tile_count(&self) -> usize {
        self.entries.len()
    }

    /// `(full, window, bitmap)` tile counts.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        (self.full_tiles, self.window_tiles, self.bitmap_tiles)
    }

    /// The live tiles of query-tile row `qt`, sorted by key tile.
    #[inline]
    pub fn entries_for(&self, qt: usize) -> &[TileEntry] {
        &self.entries[self.row_ptr[qt]..self.row_ptr[qt + 1]]
    }

    /// Rebuilds the dense live set from the tiles alone. Must equal
    /// `mask().to_dense()` exactly — the round-trip oracle for the
    /// golden tests.
    pub fn expand(&self) -> DenseMask {
        let (s_q, s_k) = (self.mask.s_q(), self.mask.s_k());
        let mut dense = DenseMask::zeros(s_q, s_k);
        for qt in 0..self.q_tiles {
            let r0 = qt * self.tile;
            let r1 = (r0 + self.tile).min(s_q);
            for entry in self.entries_for(qt) {
                let c0 = entry.key_tile * self.tile;
                let c_end = (c0 + self.tile).min(s_k);
                match &entry.class {
                    TileClass::Full => {
                        for r in r0..r1 {
                            for j in c0..c_end {
                                dense.set(r, j, true);
                            }
                        }
                    }
                    TileClass::Window { spans } => {
                        for (ri, &(lo, hi)) in spans.iter().enumerate() {
                            for j in c0 + lo as usize..c0 + hi as usize {
                                dense.set(r0 + ri, j, true);
                            }
                        }
                    }
                    TileClass::Bitmap { bits } => {
                        for (ri, &word) in bits.iter().enumerate() {
                            let mut b = word;
                            while b != 0 {
                                let t = b.trailing_zeros() as usize;
                                dense.set(r0 + ri, c0 + t, true);
                                b &= b - 1;
                            }
                        }
                    }
                }
            }
        }
        dense
    }

    /// Tile-granular memory-traffic summary for the cost model.
    pub fn traffic(&self) -> TileTraffic {
        let s_k = self.mask.s_k();
        let mut t = TileTraffic::default();
        for entry in &self.entries {
            let c0 = entry.key_tile * self.tile;
            let width = ((c0 + self.tile).min(s_k) - c0) as u64;
            match &entry.class {
                TileClass::Full => t.full_rows += width,
                TileClass::Window { spans } => {
                    t.partial_rows += width;
                    t.span_entries += spans.len() as u64;
                }
                TileClass::Bitmap { bits } => {
                    t.partial_rows += width;
                    t.bitmap_words += bits.len() as u64;
                }
            }
        }
        t
    }

    /// Cheap analytic prediction of the K/V row loads the tiled kernel
    /// would issue for `mask` at a given tile size — candidate tiles
    /// only, no per-bit classification — used by the tile-size
    /// autotuner to rank candidates without building each layout.
    pub fn predict_row_loads(mask: &StructuredMask, tile: usize) -> u64 {
        if tile == 0 || tile > MAX_TILE || mask.s_q() == 0 || mask.s_k() == 0 {
            return u64::MAX;
        }
        let s_q = mask.s_q();
        let s_k = mask.s_k();
        let q_tiles = s_q.div_ceil(tile);
        let mut candidates: Vec<usize> = Vec::new();
        let mut loads = 0u64;
        for qt in 0..q_tiles {
            let r0 = qt * tile;
            let r1 = (r0 + tile).min(s_q);
            candidate_key_tiles(mask, tile, r0, r1, &mut candidates);
            for &kt in candidates.iter() {
                let c0 = kt * tile;
                let width = ((c0 + tile).min(s_k) - c0) as u64;
                loads += width + TILE_ENTRY_OVERHEAD;
            }
        }
        loads
    }
}

/// Sorted, deduplicated key tiles that can hold live keys for query
/// rows `r0..r1`: the window band, extras columns, and stripe
/// diagonals. A superset of the live tiles — empty candidates are
/// dropped during classification.
fn candidate_key_tiles(
    mask: &StructuredMask,
    tile: usize,
    r0: usize,
    r1: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let mut ws_min = usize::MAX;
    let mut end_max: Option<usize> = None;
    for r in r0..r1 {
        let Some(end) = mask.causal_end(r) else {
            continue;
        };
        ws_min = ws_min.min(mask.window_start(r));
        end_max = Some(end_max.map_or(end, |e: usize| e.max(end)));
        for &delta in mask.diagonal_offsets() {
            if let Some(j) = end.checked_sub(delta) {
                out.push(j / tile);
            }
        }
    }
    let Some(end_max) = end_max else {
        out.clear();
        return;
    };
    for kt in ws_min / tile..=end_max / tile {
        out.push(kt);
    }
    for &c in mask.extra_columns() {
        if c <= end_max {
            out.push(c / tile);
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Tile-granular traffic counts of a layout: K-row loads by tile class
/// plus the span or bitmap metadata partial tiles carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileTraffic {
    /// K-row loads issued by Full tiles (each also loads a V row).
    pub full_rows: u64,
    /// K-row loads issued by Window/Bitmap tiles.
    pub partial_rows: u64,
    /// 64-bit occupancy words read by Bitmap tiles.
    pub bitmap_words: u64,
    /// `(lo, hi)` span pairs read by Window tiles.
    pub span_entries: u64,
}

/// Structured-sparse attention over the mask underlying `tiled`.
///
/// Runs the blocked engine on `tiled.mask()`; the tile layout itself is
/// not consulted. Kept for callers compiled against the former tiled
/// kernel's signature.
///
/// # Errors
///
/// As [`sparse_flash_attention_blocked`].
pub fn sparse_flash_attention_tiled(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    tiled: &TiledMask,
) -> Result<AttentionOutput, TensorError> {
    let out = sparse_flash_attention_blocked(q, k, v, tiled.mask())?;
    Ok(AttentionOutput {
        output: out.output,
        cost: out.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense-causal 8x8 with tile 4: the lower-left tile is Full, the
    /// two diagonal-straddling tiles are Window clips.
    #[test]
    fn golden_dense_causal_tile_classes() {
        let mask = StructuredMask::dense_causal(8, 8);
        let tiled = TiledMask::build(mask.clone(), 4).unwrap();
        assert_eq!(tiled.q_tiles(), 2);
        // Tiles: (qt0,kt0)=causal clip (Window), (qt1,kt0)=Full,
        // (qt1,kt1)=causal clip (Window).
        let (full, window, bitmap) = tiled.class_counts();
        assert_eq!((full, window, bitmap), (1, 2, 0));
        assert_eq!(tiled.tile_count(), 3);
        assert_eq!(tiled.nnz(), mask.nnz());
        assert_eq!(tiled.entries_for(1)[0].key_tile, 0);
        assert!(matches!(tiled.entries_for(1)[0].class, TileClass::Full));
    }

    /// Sinks far below the window produce Bitmap tiles; window band
    /// tiles stay Window/Full; nnz is preserved exactly.
    #[test]
    fn golden_sink_window_mix() {
        let mask = StructuredMask::builder(16, 16)
            .window(4)
            .sinks(2)
            .build()
            .unwrap();
        let tiled = TiledMask::build(mask.clone(), 4).unwrap();
        assert_eq!(tiled.nnz(), mask.nnz());
        let (_, _, bitmap) = tiled.class_counts();
        // Rows 8.. see sinks {0,1} in key tile 0, well below their
        // window: those tiles must be bitmaps.
        assert!(bitmap >= 1, "expected bitmap tiles for detached sinks");
        // Key tile 0 for query tile 3 (rows 12..16) holds only the two
        // sink columns.
        let entry = &tiled.entries_for(3)[0];
        assert_eq!(entry.key_tile, 0);
        match &entry.class {
            TileClass::Bitmap { bits } => {
                for &w in bits {
                    assert_eq!(w, 0b11, "each row sees exactly sinks 0 and 1");
                }
            }
            other => panic!("expected bitmap, got {}", other.label()),
        }
    }

    /// Round trip: expanding the tiles reproduces the structured mask's
    /// dense materialisation exactly, for a mask exercising every
    /// feature at a tile size that does not divide S.
    #[test]
    fn round_trip_expansion_exact() {
        let mask = StructuredMask::builder(19, 23)
            .window(5)
            .sinks(2)
            .columns(vec![7, 11])
            .dense_tail_rows(3)
            .diagonals(vec![9])
            .build()
            .unwrap();
        for tile in [1, 3, 4, 7, 19, 64] {
            let tiled = TiledMask::build(mask.clone(), tile).unwrap();
            assert_eq!(
                tiled.expand(),
                mask.to_dense(),
                "round trip failed at tile={tile}"
            );
            assert_eq!(tiled.nnz(), mask.nnz(), "nnz drifted at tile={tile}");
        }
    }

    /// Rectangular problems where early rows see nothing (s_k < s_q):
    /// empty query tiles get zero entries, not phantom tiles.
    #[test]
    fn rectangular_with_empty_rows() {
        let mask = StructuredMask::builder(12, 4).window(2).build().unwrap();
        let tiled = TiledMask::build(mask.clone(), 4).unwrap();
        // Rows 0..7 have causal_end None (end = i + 4 - 12 < 0 for i<8).
        assert!(tiled.entries_for(0).is_empty());
        assert_eq!(tiled.expand(), mask.to_dense());
        assert_eq!(tiled.nnz(), mask.nnz());
    }

    #[test]
    fn invalid_tile_sizes_are_typed_errors() {
        let mask = StructuredMask::dense_causal(4, 4);
        assert!(matches!(
            TiledMask::build(mask.clone(), 0),
            Err(TensorError::InvalidDimension { .. })
        ));
        assert!(matches!(
            TiledMask::build(mask, MAX_TILE + 1),
            Err(TensorError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn traffic_splits_full_and_partial() {
        let mask = StructuredMask::builder(16, 16)
            .window(4)
            .sinks(2)
            .build()
            .unwrap();
        let tiled = TiledMask::build(mask.clone(), 4).unwrap();
        let t = tiled.traffic();
        let (full, window, bitmap) = tiled.class_counts();
        assert_eq!(t.full_rows, 4 * full as u64);
        assert_eq!(t.partial_rows, 4 * (window + bitmap) as u64);
        assert!(t.bitmap_words > 0);
        assert_eq!(
            t.bitmap_words + t.span_entries > 0,
            window + bitmap > 0,
            "partial tiles must carry metadata"
        );
    }

    /// The load predictor is exact on the candidate superset: strictly
    /// monotone in S for a fixed pattern, and finite for valid tiles.
    #[test]
    fn predict_row_loads_sane() {
        let small = StructuredMask::builder(32, 32).window(8).build().unwrap();
        let big = StructuredMask::builder(128, 128).window(8).build().unwrap();
        for tile in [4, 16, 64] {
            let a = TiledMask::predict_row_loads(&small, tile);
            let b = TiledMask::predict_row_loads(&big, tile);
            assert!(a < b, "loads must grow with S (tile={tile})");
            assert!(a < u64::MAX);
        }
        assert_eq!(TiledMask::predict_row_loads(&small, 0), u64::MAX);
    }
}
