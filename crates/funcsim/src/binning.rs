//! The Tiling Engine's Polygon List Builder: identifies the screen tiles
//! overlapped by each primitive and builds per-tile primitive lists
//! (center of Fig. 1).
//!
//! The per-tile lists are stored in CSR form (one offsets array plus one
//! flat entries array) instead of a `Vec<Vec<u32>>`, so rebuilding the
//! bins every frame touches no allocator once the scratch buffers have
//! grown to steady state.

use megsim_gfx::draw::Viewport;
use megsim_gfx::geometry::Primitive;

use crate::activity::FrameActivity;
use crate::geometry::TransformedDraw;

/// A primitive bound to its originating draw call.
#[derive(Debug, Clone, Copy)]
pub struct BinnedPrim {
    /// Index of the draw call within the frame.
    pub draw_index: u32,
    /// The screen-space primitive.
    pub prim: Primitive,
}

/// Per-tile primitive lists, in submission order within each tile,
/// stored as a CSR matrix over tiles.
#[derive(Debug, Clone, Default)]
pub struct TileBins {
    /// Flat store of all emitted primitives.
    prims: Vec<BinnedPrim>,
    /// CSR row starts: tile `t`'s entries live at
    /// `entries[offsets[t]..offsets[t + 1]]`. Empty when no tiles.
    offsets: Vec<u32>,
    /// Indices into `prims`, grouped by tile.
    entries: Vec<u32>,
}

impl TileBins {
    /// Bins with no tiles and no primitives — the placeholder for
    /// immediate-mode rendering, which bypasses the Tiling Engine.
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// The binned primitive with the given index.
    #[inline]
    pub(crate) fn prim(&self, index: u32) -> &BinnedPrim {
        &self.prims[index as usize]
    }

    /// Tiles that contain at least one primitive, in row-major order.
    pub(crate) fn touched_tiles(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1] > w[0])
            .map(|(t, w)| (t as u32, &self.entries[w[0] as usize..w[1] as usize]))
    }
}

/// Reusable Tiling Engine scratch: the per-tile entry counters and the
/// per-primitive tile spans recorded by the counting pass.
#[derive(Debug, Default)]
pub struct BinScratch {
    /// Per-tile entry count, then (after the prefix sum) the per-tile
    /// write cursor of the fill pass.
    counts: Vec<u32>,
    /// `(tx0, ty0, tx1, ty1)` per kept primitive, parallel to
    /// `TileBins::prims`.
    spans: Vec<(u32, u32, u32, u32)>,
}

/// Bins every emitted primitive to the tiles its bounding box overlaps
/// (the conservative binning that bbox-based Polygon List Builders use).
///
/// Two passes over the primitives: the first counts entries per tile
/// (recording each primitive's tile span), the second fills the CSR
/// entries in primitive order — preserving submission order within every
/// tile, exactly as the old push-based builder did.
pub(crate) fn bin_primitives(
    draws: &[TransformedDraw],
    viewport: Viewport,
    activity: &mut FrameActivity,
    scratch: &mut BinScratch,
) -> TileBins {
    let tile_count = viewport.tile_count() as usize;
    let mut bins = TileBins::default();
    scratch.counts.clear();
    scratch.counts.resize(tile_count, 0);
    scratch.spans.clear();
    // Pass 1: keep overlapping primitives and count per-tile entries.
    for draw in draws {
        for prim in &draw.prims {
            let (min_x, min_y, max_x, max_y) = prim.bounds();
            let Some((tx0, ty0, tx1, ty1)) = viewport.tiles_overlapping(min_x, min_y, max_x, max_y)
            else {
                continue;
            };
            bins.prims.push(BinnedPrim {
                draw_index: draw.geometry.draw_index,
                prim: *prim,
            });
            scratch.spans.push((tx0, ty0, tx1, ty1));
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    scratch.counts[viewport.tile_index(tx, ty) as usize] += 1;
                    activity.tile_bin_entries += 1;
                }
            }
        }
    }
    // Prefix-sum the counts into CSR offsets, turning `counts` into the
    // fill pass's write cursors.
    bins.offsets.clear();
    bins.offsets.reserve(tile_count + 1);
    let mut total = 0u32;
    bins.offsets.push(0);
    for c in scratch.counts.iter_mut() {
        let n = *c;
        *c = total;
        total += n;
        bins.offsets.push(total);
    }
    // Pass 2: fill entries in primitive (= submission) order.
    bins.entries.clear();
    bins.entries.resize(total as usize, 0);
    for (prim_idx, &(tx0, ty0, tx1, ty1)) in scratch.spans.iter().enumerate() {
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let cursor = &mut scratch.counts[viewport.tile_index(tx, ty) as usize];
                bins.entries[*cursor as usize] = prim_idx as u32;
                *cursor += 1;
            }
        }
    }
    activity.tiles_touched += bins.offsets.windows(2).filter(|w| w[1] > w[0]).count() as u64;
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DrawGeometry;
    use megsim_gfx::geometry::ScreenVertex;
    use megsim_gfx::math::Vec2;
    use megsim_gfx::shader::ShaderId;

    fn sv(x: f32, y: f32) -> ScreenVertex {
        ScreenVertex {
            x,
            y,
            z: 0.5,
            inv_w: 1.0,
            uv: Vec2::default(),
        }
    }

    fn transformed(prims: Vec<Primitive>) -> TransformedDraw {
        TransformedDraw {
            geometry: DrawGeometry {
                draw_index: 0,
                vertex_shader: ShaderId(0),
                vertex_shader_instructions: 1,
                vertex_fetch_addresses: vec![],
                vertices_shaded: 0,
                primitives_assembled: prims.len() as u32,
                primitives_emitted: prims.len() as u32,
            },
            prims,
        }
    }

    fn bin(draws: &[TransformedDraw], viewport: Viewport, act: &mut FrameActivity) -> TileBins {
        bin_primitives(draws, viewport, act, &mut BinScratch::default())
    }

    #[test]
    fn small_triangle_bins_to_one_tile() {
        let viewport = Viewport::new(128, 128, 32);
        let prim = Primitive {
            v: [sv(2.0, 2.0), sv(10.0, 2.0), sv(2.0, 10.0)],
        };
        let mut act = FrameActivity::new(1, 1);
        let bins = bin(&[transformed(vec![prim])], viewport, &mut act);
        assert_eq!(act.tile_bin_entries, 1);
        assert_eq!(act.tiles_touched, 1);
        assert_eq!(bins.touched_tiles().collect::<Vec<_>>(), [(0, &[0u32][..])]);
    }

    #[test]
    fn spanning_triangle_bins_to_multiple_tiles() {
        let viewport = Viewport::new(128, 128, 32);
        // Bbox covers tiles (0,0)..(1,1) = 4 tiles.
        let prim = Primitive {
            v: [sv(10.0, 10.0), sv(50.0, 10.0), sv(10.0, 50.0)],
        };
        let mut act = FrameActivity::new(1, 1);
        let bins = bin(&[transformed(vec![prim])], viewport, &mut act);
        assert_eq!(act.tile_bin_entries, 4);
        assert_eq!(bins.touched_tiles().count(), 4);
    }

    #[test]
    fn submission_order_is_preserved_within_a_tile() {
        let viewport = Viewport::new(64, 64, 32);
        let a = Primitive {
            v: [sv(1.0, 1.0), sv(5.0, 1.0), sv(1.0, 5.0)],
        };
        let b = Primitive {
            v: [sv(2.0, 2.0), sv(6.0, 2.0), sv(2.0, 6.0)],
        };
        let mut act = FrameActivity::new(1, 1);
        let bins = bin(&[transformed(vec![a, b])], viewport, &mut act);
        assert_eq!(
            bins.touched_tiles().collect::<Vec<_>>(),
            [(0, &[0u32, 1][..])]
        );
    }

    #[test]
    fn offscreen_primitive_is_ignored() {
        let viewport = Viewport::new(64, 64, 32);
        let prim = Primitive {
            v: [sv(-50.0, -50.0), sv(-40.0, -50.0), sv(-50.0, -40.0)],
        };
        let mut act = FrameActivity::new(1, 1);
        let bins = bin(&[transformed(vec![prim])], viewport, &mut act);
        assert_eq!(act.tile_bin_entries, 0);
        assert!(bins.prims.is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let viewport = Viewport::new(128, 128, 32);
        let prims = vec![
            Primitive {
                v: [sv(10.0, 10.0), sv(50.0, 10.0), sv(10.0, 50.0)],
            },
            Primitive {
                v: [sv(70.0, 70.0), sv(90.0, 70.0), sv(70.0, 90.0)],
            },
        ];
        let mut scratch = BinScratch::default();
        let mut a1 = FrameActivity::new(1, 1);
        // Dirty the scratch with an unrelated frame first.
        let _ = bin_primitives(
            &[transformed(vec![Primitive {
                v: [sv(1.0, 1.0), sv(120.0, 1.0), sv(1.0, 120.0)],
            }])],
            viewport,
            &mut a1,
            &mut scratch,
        );
        let mut act_reused = FrameActivity::new(1, 1);
        let reused = bin_primitives(
            &[transformed(prims.clone())],
            viewport,
            &mut act_reused,
            &mut scratch,
        );
        let mut act_fresh = FrameActivity::new(1, 1);
        let fresh = bin(&[transformed(prims)], viewport, &mut act_fresh);
        assert_eq!(act_reused, act_fresh);
        assert_eq!(reused.prims.len(), fresh.prims.len());
        let r: Vec<_> = reused.touched_tiles().collect();
        let f: Vec<_> = fresh.touched_tiles().collect();
        assert_eq!(r, f);
    }

    #[test]
    fn empty_bins_report_nothing() {
        let bins = TileBins::empty();
        assert!(bins.prims.is_empty());
        assert_eq!(bins.touched_tiles().count(), 0);
    }
}
